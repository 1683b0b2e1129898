import contextlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dual_oracle
import vfc.expressions
from dual_oracle import Dual, jacobian
from vfc.charts_atlas import RationalArray
from vfc.expressions import (
    check_grammar,
    compile_vector,
    eval_expr,
    eval_pred,
    eval_pred_rows,
    eval_vector,
    evaluate_until_raise,
    num,
    value_and_jacobian,
    var,
)

F = Fraction


class TestRationalEval:
    def test_num_and_var(self):
        assert eval_expr(num("3/4"), []) == F(3, 4)
        assert eval_expr(var(1), [F(1), F(5, 2)]) == F(5, 2)

    def test_arith_stays_rational(self):
        ast = ["/", ["+", var(0), ["*", num(2), var(1)]], num("3/1")]
        out = eval_expr(ast, [F(1, 2), F(1, 4)])
        assert out == F(1, 3)
        assert isinstance(out, Fraction)

    def test_pow(self):
        assert eval_expr(["pow", var(0), 3], [F(2, 3)]) == F(8, 27)
        assert eval_expr(["pow", var(0), 0], [F(7)]) == F(1)
        assert eval_expr(["pow", var(0), -2], [F(2)]) == F(1, 4)

    def test_neg_sub(self):
        assert eval_expr(["neg", ["-", var(0), var(1)]], [F(1), F(3)]) == F(2)

    def test_const_vec(self):
        assert eval_vector([num(1), num(F(1, 2))], []) == [F(1), F(1, 2)]


class TestTranscendental:
    def test_sin_cos_quarter_turn(self):
        assert eval_expr(["sin2pi", num("1/4")], []) == pytest.approx(1.0)
        assert eval_expr(["cos2pi", num("1/2")], []) == pytest.approx(-1.0)

    def test_sqrt(self):
        assert eval_expr(["sqrt", num("9/4")], []) == pytest.approx(1.5)

    def test_clamp01(self):
        assert eval_expr(["clamp01", num("-1/2")], []) == 0
        assert eval_expr(["clamp01", num("3/2")], []) == 1
        assert eval_expr(["clamp01", num("1/3")], []) == F(1, 3)

    def test_smoothstep_values(self):
        assert eval_expr(["smoothstep", num("-1/1")], []) == 0
        assert eval_expr(["smoothstep", num("2/1")], []) == 1
        assert eval_expr(["smoothstep", num("1/2")], []) == F(1, 2)
        # u^2 (3 - 2u) at 1/4 = (1/16)(5/2) = 5/32
        assert eval_expr(["smoothstep", num("1/4")], []) == F(5, 32)


class TestDual:
    """The oracle's own derivatives, exact at rational points."""

    def test_product_rule(self):
        x = Dual.seed(F(2), 0, 2)
        y = Dual.seed(F(3), 1, 2)
        z = x * y + x
        assert z.val == F(8)
        assert z.grad == (F(4), F(2))

    def test_quotient_rule(self):
        x = Dual.seed(F(1), 0, 1)
        z = 1 / (1 + x)
        assert z.val == F(1, 2)
        assert z.grad == (F(-1, 4),)

    def test_jacobian_polynomial_exact(self):
        # f(x, y) = (x^2 y, x - y^3)
        asts = [
            ["*", ["pow", var(0), 2], var(1)],
            ["-", var(0), ["pow", var(1), 3]],
        ]
        rows = jacobian(asts, [F(2), F(3)])
        assert rows == [[F(12), F(4)], [F(1), F(-27)]]

    def test_jacobian_trig(self):
        asts = [["sin2pi", var(0)], ["cos2pi", var(0)]]
        rows = jacobian(asts, [F(1, 8)])
        tau = 2 * math.pi
        assert rows[0][0] == pytest.approx(tau * math.cos(tau / 8))
        assert rows[1][0] == pytest.approx(-tau * math.sin(tau / 8))

    def test_tangent_dims_restriction(self):
        # derivative only along coordinate 1; coordinate 0 held constant
        asts = [["*", var(0), var(1)]]
        vals, rows = dual_oracle.value_and_jacobian(asts, [F(5), F(7)], tangent_dims=[1])
        assert vals == [F(35)]
        assert rows == [[F(5)]]

    def test_smoothstep_derivative_c1(self):
        ast = ["smoothstep", var(0)]
        # interior: d/du u^2(3-2u) = 6u - 6u^2
        (row,) = jacobian([ast], [F(1, 4)])
        assert row[0] == F(6, 4) - F(6, 16)
        # flat regions: derivative exactly zero
        assert jacobian([ast], [F(-1)]) == [[0]]
        assert jacobian([ast], [F(2)]) == [[0]]

    @given(st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3))
    def test_derivative_matches_finite_difference(self, a, b):
        ast = ["+", ["*", var(0), var(0), var(1)], ["pow", ["+", var(1), num(5)], 2]]
        (row,) = jacobian([ast], [a, b])
        h = F(1, 1_000_000)
        for k, d in enumerate(row):
            bumped = [a, b]
            bumped[k] += h
            fd = (eval_expr(ast, bumped) - eval_expr(ast, [a, b])) / h
            assert abs(fd - d) < F(1, 1000)


class TestPredicates:
    def test_comparisons_exact(self):
        assert eval_pred(["<=", var(0), num("1/3")], [F(1, 3)])
        assert not eval_pred(["<", var(0), num("1/3")], [F(1, 3)])
        assert eval_pred(["==", ["*", num(3), var(0)], num(1)], [F(1, 3)])

    def test_boolean_ops(self):
        p = ["and", ["true"], ["or", ["false"], ["not", ["false"]]]]
        assert eval_pred(p, [])
        assert not eval_pred(["and", ["true"], ["false"]], [])

    def test_annulus_membership(self):
        # 1/4 <= x^2 + y^2 <= 4
        q = ["+", ["pow", var(0), 2], ["pow", var(1), 2]]
        p = ["and", ["<=", num("1/4"), q], ["<=", q, num("4/1")]]
        assert eval_pred(p, [F(1), F(0)])
        assert not eval_pred(p, [F(0), F(0)])
        assert not eval_pred(p, [F(3), F(0)])

    def test_unknown_node_raises(self):
        with pytest.raises(ValueError):
            eval_expr(["bogus", 1], [])
        with pytest.raises(ValueError):
            eval_pred(["bogus", num(1), num(2)], [])


# ---------------------------------------------------------------------------
# compiled float form against the Dual-number oracle
# ---------------------------------------------------------------------------

N_VARS = 3

_leaves = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3, 2)]).map(num),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).map(num),
    st.integers(0, N_VARS - 1).map(var),
)


def _extend(sub):
    two = st.tuples(sub, sub)
    some = st.lists(sub, min_size=1, max_size=3)
    return st.one_of(
        some.map(lambda xs: ["+", *xs]),
        some.map(lambda xs: ["*", *xs]),
        two.map(lambda t: ["-", *t]),
        two.map(lambda t: ["/", *t]),
        sub.map(lambda a: ["neg", a]),
        st.tuples(sub, st.integers(-3, 3)).map(lambda t: ["pow", t[0], t[1]]),
        # a square under the root, so that sqrt(0) and its zero slope occur
        sub.map(lambda a: ["sqrt", ["*", a, a]]),
        sub.map(lambda a: ["sin2pi", a]),
        sub.map(lambda a: ["cos2pi", a]),
        sub.map(lambda a: ["clamp01", a]),
        sub.map(lambda a: ["smoothstep", a]),
    )


# an operator at the root, so that every node kind is drawn often
_asts = _extend(st.recursive(_leaves, _extend, max_leaves=8))
# on both sides of 0 and 1, and on them
_coords = st.lists(
    st.one_of(
        st.sampled_from([-0.5, 0.0, 0.25, 1.0, 1.5]),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    ),
    min_size=N_VARS,
    max_size=N_VARS,
)
# every subset of the coordinates as tangent dims, one of them out of order
_dims = st.sampled_from([[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2], [2, 0]])


# a batch of points, from none to several
_batches = st.lists(_coords, min_size=0, max_size=4)

_RAISES = (ZeroDivisionError, ValueError, OverflowError)


def _interpreted(asts, coords, dims):
    """The oracle's (values, jacobian) as floats, or its exception."""
    try:
        vals, rows = dual_oracle.value_and_jacobian(asts, coords, dims)
    except _RAISES as ex:
        return ex
    return (
        np.array([float(v) for v in vals]),
        np.array([[float(v) for v in row] for row in rows]).reshape(len(asts), len(dims)),
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class TestCompiledForm:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_asts, min_size=1, max_size=3), _batches, _dims)
    # overflow: values inf and ∞ − ∞ = NaN, an infinite slope, and a flat ramp over it
    @example(
        [
            ["*", var(0), ["*", var(0), var(1)]],
            ["*", var(0), var(0)],
            ["-", ["*", var(0), var(0)], ["*", var(0), var(0)]],
            ["clamp01", ["*", var(0), ["*", var(0), var(1)]]],
        ],
        [[1e200, 1e-250, 0.0]],
        [0, 1],
    )
    # a flat ramp over the infinite slope of 1/v₁ inside a ramp whose slope is not 0
    @example(
        [num(0), ["-", ["smoothstep", ["cos2pi", ["smoothstep", ["pow", var(1), -1]]]], var(1)]],
        [[-0.5, 4.5e-287, -0.5]],
        [1],
    )
    # a constant 0 times x₂⁻³, which overflows: ∞·0 is NaN only along x₂
    @example(
        [["*", num(0), ["neg", ["pow", var(2), -3]]]],
        [[-0.5, -0.5, 3.795e-153]],
        [0, 2],
    )
    def test_matches_interpreter_at_float_coordinates(self, asts, points, dims):
        want = [_interpreted(asts, p, dims) for p in points]
        raised = [i for i, w in enumerate(want) if isinstance(w, Exception)]
        try:
            f = compile_vector(asts, dims)
        except _RAISES:
            # a constant subtree that cannot be folded raises at every point
            assert len(raised) == len(points)
            return
        vals, jac, error = evaluate_until_raise(f, points)
        first = raised[0] if raised else len(points)
        assert vals.shape == (first, len(asts)) and jac.shape == (first, len(asts), len(dims))
        if raised:
            # the batch raises because a point raises, and as that point does
            assert type(error) is type(want[first])
            with pytest.raises(_RAISES):
                f(points)
        else:
            assert error is None
            whole_vals, whole_jac = f(points)
            assert _bits(whole_vals) == _bits(vals) and _bits(whole_jac) == _bits(jac)
        for i in range(first):
            want_vals, want_jac = want[i]
            np.testing.assert_allclose(vals[i], want_vals, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(jac[i], want_jac, rtol=1e-12, atol=1e-12)
            # a row does not depend on the rest of the batch
            one_vals, one_jac = f(points[i : i + 1])
            assert _bits(one_vals[0]) == _bits(vals[i]) and _bits(one_jac[0]) == _bits(jac[i])

    def test_constants_fold_exactly_before_rounding(self):
        # 1/3 + 1/3 + x: the interpreter adds 2/3 exactly, then rounds once
        f = compile_vector([["+", num("1/3"), num("1/3"), var(0)]], [0])
        vals, jac = f([[0.1]])
        assert vals[0, 0] == float(F(2, 3)) + 0.1
        assert jac.tolist() == [[[1.0]]]

    def test_shapes_and_non_tangent_coordinates(self):
        f = compile_vector([["*", var(0), var(1)], num("1/2")], [1])
        vals, jac = f([[F(5), F(7)], [1.0, -2.0]])
        assert vals.tolist() == [[35.0, 0.5], [-2.0, 0.5]]
        assert jac.tolist() == [[[5.0], [0.0]], [[1.0], [0.0]]]
        none_vals, none_jac = f([])
        assert none_vals.shape == (0, 2) and none_jac.shape == (0, 2, 1)
        empty_vals, empty_jac = compile_vector([], [0, 1])([[0.0, 0.0]])
        assert empty_vals.shape == (1, 0) and empty_jac.shape == (1, 0, 2)

    def test_branches_are_taken_point_by_point(self):
        f = compile_vector([["clamp01", var(0)], ["smoothstep", var(0)]], [0])
        vals, jac = f([[-1.0], [0.25], [2.0], [float("nan")]])
        assert vals[:3].tolist() == [[0.0, 0.0], [0.25, 0.15625], [1.0, 1.0]]
        assert jac[:3].tolist() == [[[0.0], [0.0]], [[1.0], [1.125]], [[0.0], [0.0]]]
        assert np.isnan(vals[3]).all()

    def test_raises_only_where_a_point_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the sqrt slope at 0 and the smoothstep ramp far out of [0, 1]
            # are computed for every point but taken by none that raises
            f = compile_vector([["sqrt", ["*", var(0), var(0)]], ["smoothstep", var(0)]], [0])
            vals, jac = f([[0.0], [1e200], [-1e200]])
            assert vals.tolist() == [[0.0, 0.0], [math.inf, 1.0], [math.inf, 0.0]]
            assert jac[0].tolist() == [[0.0], [0.0]]
            g = compile_vector([["/", num(1), var(0)]], [0])
            vals, jac, error = evaluate_until_raise(g, [[2.0], [0.0], [4.0]])
        assert vals.tolist() == [[0.5]] and jac.tolist() == [[[-0.25]]]
        assert isinstance(error, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            g([[2.0], [-0.0]])

    def test_the_first_point_to_raise_names_the_error(self):
        # per point, sqrt comes first on the tape; over points, order rules
        f = compile_vector([["sqrt", var(0)], ["/", num(1), var(1)]], [0, 1])
        sqrt_of_negative, zero_divisor = [-1.0, 1.0], [1.0, 0.0]
        _, _, error = evaluate_until_raise(f, [zero_divisor, sqrt_of_negative])
        assert isinstance(error, ZeroDivisionError)
        vals, _, error = evaluate_until_raise(f, [[1.0, 1.0], sqrt_of_negative, zero_divisor])
        assert len(vals) == 1 and isinstance(error, ValueError)
        for point in (zero_divisor, sqrt_of_negative, [float("inf"), 1.0]):
            with pytest.raises((ZeroDivisionError, ValueError)):
                compile_vector([["sqrt", var(0)], ["sin2pi", var(0)], ["/", num(1), var(1)]],
                               [0])([point])

    def test_one_compile_walks_each_ast_object_once(self, monkeypatch):
        # the section of the sphere's transition chart shares subtree objects
        from vfc.examples_cli import ExampleDescriptor, build_example

        built = build_example(ExampleDescriptor("sphere-euler", {"density": 12}))
        chart = built.atlas.charts[(1, 2)]
        shared = list(chart.section_asts)
        objects, nodes = {}, 0
        stack = list(shared)
        while stack:
            ast = stack.pop()
            nodes += 1
            objects[id(ast)] = ast
            stack.extend(sub for sub in ast[1:] if isinstance(sub, list))
        assert len(objects) < nodes
        walked = []
        walk = vfc.expressions._Tape._walk

        def counting(tape, ast):
            walked.append(id(ast))
            return walk(tape, ast)

        monkeypatch.setattr(vfc.expressions._Tape, "_walk", counting)
        dims = list(chart.tangent_dims)
        f = compile_vector(shared, dims)
        assert sorted(walked) == sorted(objects)
        # the same ASTs without shared objects: one walk per node, the same bits
        walked.clear()
        g = compile_vector(json.loads(json.dumps(shared)), dims)
        assert len(walked) == nodes
        points = chart.domain.coordinates
        assert [_bits(a) for a in f(points)] == [_bits(a) for a in g(points)]

    def test_unknown_node_raises_at_compile_time(self):
        with pytest.raises(ValueError, match="unknown expression node"):
            compile_vector([["bogus", 1]], [])
        with pytest.raises(ValueError, match="unknown expression node"):
            compile_vector([var(0), ["+", var(0), ["sin2pi", ["bogus"]]]], [0])


class TestValueAndJacobian:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_asts, min_size=1, max_size=3), _coords, _dims)
    def test_is_one_row_of_the_tape(self, asts, point, dims):
        try:
            want_vals, want_jac = compile_vector(asts, dims)([point])
        except _RAISES as ex:
            with pytest.raises(type(ex)):
                value_and_jacobian(asts, point, dims)
            return
        vals, jac = value_and_jacobian(asts, point, dims)
        assert isinstance(vals, list) and isinstance(jac, list)
        assert _bits(vals) == _bits(want_vals[0]) and _bits(jac) == _bits(want_jac[0])

    def test_floats_along_every_coordinate_by_default(self):
        vals, rows = value_and_jacobian([["*", var(0), var(1)]], [F(5), F(7)])
        assert vals == [35.0] and rows == [[7.0, 5.0]]
        assert type(vals[0]) is float


# ---------------------------------------------------------------------------
# exact batch predicates against the interpreter
# ---------------------------------------------------------------------------


_constants = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _fragment(divisors, exponents=st.integers(0, 3)):
    """The nodes that the batch form evaluates exactly, with ``/`` by one of
    ``divisors`` and ``pow`` to one of ``exponents``."""
    def extend(sub):
        some = st.lists(sub, min_size=1, max_size=3)
        return st.one_of(
            some.map(lambda xs: ["+", *xs]),
            some.map(lambda xs: ["*", *xs]),
            st.tuples(sub, sub).map(lambda t: ["-", *t]),
            st.tuples(sub, divisors.map(num)).map(lambda t: ["/", *t]),
            sub.map(lambda a: ["neg", a]),
            st.tuples(sub, exponents).map(lambda t: ["pow", *t]),
        )
    return extend


_pred_values = st.one_of(
    # a zero divisor and a negative exponent, outside the fragment, too
    st.recursive(_leaves, _fragment(_constants, st.integers(-2, 3)), max_leaves=6),
    st.recursive(_leaves, _extend, max_leaves=6),
)
_comparisons = st.tuples(st.sampled_from(["<=", "<", ">=", ">", "=="]), _pred_values,
                         _pred_values).map(list)
_preds = st.recursive(
    st.one_of(_comparisons, st.sampled_from([["true"], ["false"]])),
    lambda sub: st.one_of(
        st.lists(sub, max_size=3).map(lambda ps: ["and", *ps]),
        st.lists(sub, max_size=3).map(lambda ps: ["or", *ps]),
        sub.map(lambda p: ["not", p]),
    ),
    max_leaves=4,
)
_sample_arrays = st.tuples(
    st.lists(st.lists(st.integers(-24, 24), min_size=N_VARS, max_size=N_VARS), max_size=5),
    st.integers(1, 12),
).map(lambda t: RationalArray.reduced(np.array(t[0], dtype=np.int64).reshape(-1, N_VARS), t[1]))


def _outcome(rows):
    """The values ``rows`` yields, and the type of what it raises after them."""
    out = []
    try:
        for holds in rows:
            out.append(bool(holds))
    except (ArithmeticError, ValueError) as ex:
        return out, type(ex)
    return out, None


class TestPredicateRows:
    @settings(max_examples=300, deadline=None)
    @given(_preds, _sample_arrays)
    # the later conjunct divides by zero where the first is false
    @example(["and", [">", var(0), num(0)], ["<", ["/", num(1), var(0)], num(1)]],
             RationalArray.reduced(np.array([[0, 1, 1], [2, 1, 1], [-1, 0, 0]]), 2))
    @example(["and", ["false"], ["<", ["/", num(1), num(0)], num(1)]],
             RationalArray.reduced(np.zeros((2, N_VARS), dtype=np.int64), 1))
    @example(["<", ["pow", var(0), -2], num(1)],
             RationalArray.reduced(np.array([[1, 2, 3], [2, 2, 2]]), 3))
    def test_rows_are_eval_pred_row_by_row(self, pred, points):
        want = _outcome(eval_pred(pred, p) for p in points.fractions())
        assert _outcome(eval_pred_rows(pred, points)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(_leaves, _fragment(_constants.filter(bool)), max_leaves=8),
           _sample_arrays)
    def test_the_fragment_is_evaluated_on_the_whole_array(self, value, points):
        pred = ["and", ["not", ["<", value, var(0)]], ["or", ["false"], ["true"]]]
        rows = eval_pred_rows(pred, points)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(points),)
        assert rows.tolist() == [eval_pred(pred, p) for p in points.fractions()]


# ---------------------------------------------------------------------------
# the grammar check of documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ast, predicate, message", [
    (["var", 9], False, "['var', 9] is not one of the 3 coordinates"),
    (["var", "x"], False, "['var', 'x'] is not one of the 3 coordinates"),
    (["var", True], False, "['var', True] is not one of the 3 coordinates"),
    ([], False, "[] is no expression node"),
    (3, False, "3 is no expression node"),
    (["+"], False, "['+'] has 0 arguments, not at least 1"),
    (["-", var(0)], False, "['-', ['var', 0]] has 1 arguments, not 2"),
    (["num", "1/0"], False, "['num', '1/0'] is not a rational"),
    (["num", 0.5], False, "['num', 0.5] is not a rational"),
    (["pow", var(0), "2"], False, "['pow', ['var', 0], '2'] has no int exponent"),
    (["sin2pi", ["frob"]], False, "unknown expression node: 'frob'"),
    (["frob"], True, "unknown predicate node: 'frob'"),
    (["<="], True, "['<='] has 0 arguments, not 2"),
    ([], True, "[] is no predicate node"),
    (["true", var(0)], True, "['true', ['var', 0]] has 1 arguments, not 0"),
    (["and", ["true"], ["<", var(0), ["var", 3]]], True, "['var', 3] is not one of the 3"),
    (var(0), True, "unknown predicate node: 'var'"),
    (["true"], False, "unknown expression node: 'true'"),
])
def test_grammar_faults_name_where_and_what(ast, predicate, message):
    with pytest.raises(ValueError) as raised:
        check_grammar([["true"], ast] if predicate else [var(0), ast], N_VARS, "chart (1,): here",
                      predicate)
    assert str(raised.value).startswith(f"chart (1,): here: {message}")


def test_grammar_passes_the_documented_nodes():
    value = ["/", ["+", num(1), ["pow", var(2), -2], ["num", 3]],
             ["-", ["sqrt", ["clamp01", ["smoothstep", var(0)]]], ["neg", ["cos2pi", var(1)]]]]
    check_grammar([["*", ["sin2pi", value]], value], N_VARS, "here")
    check_grammar([["and", ["not", ["or"]], ["true"], ["false"], ["==", value, var(1)]]],
                  N_VARS, "here", predicate=True)


_VALUE_OPS = ["num", "var", "+", "-", "neg", "*", "/", "pow", "sqrt", "sin2pi", "cos2pi",
              "clamp01", "smoothstep"]
_PRED_OPS = ["<=", "<", ">=", ">", "==", "and", "or", "not", "true", "false"]
_junk = st.sampled_from([
    ["var", N_VARS], ["var", "x"], ["var", -1], ["var", True], [], 3, "x", None, ["+"],
    ["frob"], ["num", "1/0"], ["num", None], ["num", 0.5], ["num"], ["pow", var(0), 1.5],
    ["-", var(0)], ["neg", var(0), var(1)], [var(0)],
])
# well-formed leaves and junk, under well-formed nodes and under any node
# name with any number of arguments
_any_values = st.recursive(
    st.one_of(_leaves, _junk),
    lambda sub: st.one_of(
        _extend(sub),
        st.tuples(st.sampled_from(_VALUE_OPS + _PRED_OPS), st.lists(sub, max_size=3))
        .map(lambda t: [t[0], *t[1]]),
    ),
    max_leaves=6,
)
_any_preds = st.recursive(
    st.one_of(_comparisons, st.sampled_from([["true"], ["false"], ["<="], ["frob"], []]),
              st.tuples(st.sampled_from(_PRED_OPS[:5]), _any_values, _any_values).map(list)),
    lambda sub: st.tuples(st.sampled_from(_PRED_OPS + _VALUE_OPS[:3]),
                          st.lists(st.one_of(sub, _any_values), max_size=3))
    .map(lambda t: [t[0], *t[1]]),
    max_leaves=4,
)


class TestGrammar:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_any_values.map(lambda a: (a, False)), _any_preds.map(lambda p: (p, True))),
           _batches, _sample_arrays, _dims)
    def test_what_passes_raises_only_arithmetic_or_value_errors(self, drawn, points, samples,
                                                               dims):
        ast, predicate = drawn
        try:
            check_grammar([ast], N_VARS, "here", predicate)
        except ValueError as ex:
            assert str(ex).startswith("here: ")
            return
        allowed = (ArithmeticError, ValueError)
        for row in [*points, *samples.fractions()]:
            with contextlib.suppress(*allowed):
                (eval_pred if predicate else eval_expr)(ast, row)
        if predicate:
            _outcome(eval_pred_rows(ast, samples))
        else:
            with contextlib.suppress(*allowed):
                compile_vector([ast], dims)(points)
