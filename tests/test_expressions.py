import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vfc.expressions import (
    Dual,
    compile_vector,
    const_vec,
    eval_expr,
    eval_pred,
    eval_vector,
    jacobian,
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
        assert eval_vector(const_vec([1, F(1, 2)]), []) == [F(1), F(1, 2)]


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
        vals, rows = value_and_jacobian(asts, [F(5), F(7)], tangent_dims=[1])
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
# compiled float form against the interpreter
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


class TestCompiledForm:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_asts, min_size=1, max_size=3), _coords, _dims)
    def test_matches_interpreter_at_float_coordinates(self, asts, coords, dims):
        try:
            want_vals, want_rows = value_and_jacobian(asts, coords, dims)
        except (ZeroDivisionError, OverflowError, ValueError):
            assume(False)
        want_vals = np.array([float(v) for v in want_vals])
        want_jac = np.array(
            [[float(v) for v in row] for row in want_rows]
        ).reshape(len(asts), len(dims))
        vals, jac = compile_vector(asts, dims)(coords)
        assert vals.shape == want_vals.shape and jac.shape == want_jac.shape
        np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jac, want_jac, rtol=1e-12, atol=1e-12)

    def test_constants_fold_exactly_before_rounding(self):
        # 1/3 + 1/3 + x: the interpreter adds 2/3 exactly, then rounds once
        f = compile_vector([["+", num("1/3"), num("1/3"), var(0)]], [0])
        vals, jac = f([0.1])
        assert vals[0] == float(F(2, 3)) + 0.1
        assert jac.tolist() == [[1.0]]

    def test_shapes_and_non_tangent_coordinates(self):
        f = compile_vector([["*", var(0), var(1)], num("1/2")], [1])
        vals, jac = f([F(5), F(7)])
        assert vals.tolist() == [35.0, 0.5]
        assert jac.tolist() == [[5.0], [0.0]]
        empty_vals, empty_jac = compile_vector([], [0, 1])([0.0, 0.0])
        assert empty_vals.shape == (0,) and empty_jac.shape == (0, 2)

    def test_unknown_node_raises_at_compile_time(self):
        with pytest.raises(ValueError, match="unknown expression node"):
            compile_vector([["bogus", 1]], [])
        with pytest.raises(ValueError, match="unknown expression node"):
            compile_vector([var(0), ["+", var(0), ["sin2pi", ["bogus"]]]], [0])
