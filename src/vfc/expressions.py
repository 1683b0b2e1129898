"""Expression ASTs: values by an interpreter, first derivatives by a
compiled forward-mode tape, and a grammar check for documents.

Expressions are JSON-native nested lists, e.g. ``["*", ["var", 0],
["num", "1/2"]]``.  Rational subexpressions evaluate exactly over
:class:`fractions.Fraction`; transcendental nodes (``sin2pi``, ``cos2pi``,
``sqrt``) coerce to floats.  Angle arguments are fractions of a full turn,
so rational sample coordinates stay rational as long as possible.

Supported value nodes
---------------------
``["num", "p/q"]``, ``["var", k]``, ``["+", a, b, ...]``, ``["-", a, b]``,
``["neg", a]``, ``["*", a, b, ...]``, ``["/", a, b]``, ``["pow", a, n]``,
``["sqrt", a]``, ``["sin2pi", a]``, ``["cos2pi", a]``, ``["clamp01", a]``,
``["smoothstep", a]`` (the C¹ ramp u²(3-2u) of the clamped argument,
equal to 0 for a ≤ 0 and 1 for a ≥ 1).

Predicate nodes
---------------
``["<=", a, b]``, ``["<", a, b]``, [">=", a, b], [">", a, b],
``["==", a, b]``, ``["and", ...]``, ``["or", ...]``, ``["not", p]``,
``["true"]``, ``["false"]``.

Values, derivatives and documents
---------------------------------
:func:`eval_expr` and :func:`eval_pred` compute values only, exactly at
``Fraction`` coordinates where every node on the way is rational: the
exact sample values of a perturbation and every predicate at float
points.  :func:`eval_pred_rows` tests a predicate on a whole rational
sample array, exactly where it can.

Every derivative comes from :func:`compile_vector`, a forward-mode tape
(Griewank and Walther, *Evaluating Derivatives*, 2nd ed., 2008): each step
carries a node's value v and its gradient ∇v along the tangent
coordinates, by ∇(a ± b) = ∇a ± ∇b, ∇(ab) = b∇a + a∇b,
∇(a/b) = (∇a − (a/b)∇b)/b and ∇f(a) = f′(a)∇a, for a batch of points at
once.  Newton's iteration and every float-side check evaluate through it;
:func:`value_and_jacobian` is one row of it.  :func:`check_grammar`
checks an AST once, as a document is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import eq, ge, gt, itemgetter, le, lt
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "check_grammar",
    "compile_vector",
    "evaluate_until_raise",
    "eval_expr",
    "eval_vector",
    "eval_pred",
    "eval_pred_rows",
    "value_and_jacobian",
    "num",
    "var",
]


def num(value) -> list:
    """AST literal node for an exact rational."""
    v = Fraction(value)
    return ["num", f"{v.numerator}/{v.denominator}"]


def var(k: int) -> list:
    return ["var", k]


_TWO_PI = 2.0 * math.pi
_COMPARE = {"<=": le, "<": lt, ">=": ge, ">": gt, "==": eq}


def eval_expr(ast, coords: Sequence):
    """The value of an AST at coordinates: exact where the coordinates and
    every node on the way are rational, else a float."""
    op = ast[0]
    if op == "num":
        return Fraction(ast[1])
    if op == "var":
        return coords[ast[1]]
    if op == "+":
        acc = eval_expr(ast[1], coords)
        for sub in ast[2:]:
            acc = acc + eval_expr(sub, coords)
        return acc
    if op == "-":
        return eval_expr(ast[1], coords) - eval_expr(ast[2], coords)
    if op == "neg":
        return -eval_expr(ast[1], coords)
    if op == "*":
        acc = eval_expr(ast[1], coords)
        for sub in ast[2:]:
            acc = acc * eval_expr(sub, coords)
        return acc
    if op == "/":
        return eval_expr(ast[1], coords) / eval_expr(ast[2], coords)
    if op == "pow":
        base = eval_expr(ast[1], coords)
        n = int(ast[2])
        if n == 0:
            return Fraction(1)
        if n < 0:
            base, n = 1 / base, -n
        acc = base
        for _ in range(n - 1):
            acc = acc * base
        return acc
    if op == "sqrt":
        return math.sqrt(float(eval_expr(ast[1], coords)))
    if op == "sin2pi":
        return math.sin(float(eval_expr(ast[1], coords)) * _TWO_PI)
    if op == "cos2pi":
        return math.cos(float(eval_expr(ast[1], coords)) * _TWO_PI)
    if op in ("clamp01", "smoothstep"):
        x = eval_expr(ast[1], coords)
        if x <= 0 or x >= 1:
            return Fraction(x >= 1) if isinstance(x, Fraction) else float(x >= 1)
        return x if op == "clamp01" else x * x * (3 - 2 * x)
    raise ValueError(f"unknown expression node: {op!r}")


def eval_vector(asts: Sequence, coords: Sequence) -> list:
    return [eval_expr(a, coords) for a in asts]


def eval_pred(ast, coords: Sequence) -> bool:
    op = ast[0]
    if op in ("true", "false"):
        return op == "true"
    if op in ("and", "or"):
        return (all if op == "and" else any)(eval_pred(sub, coords) for sub in ast[1:])
    if op == "not":
        return not eval_pred(ast[1], coords)
    if op in _COMPARE:
        return _COMPARE[op](eval_expr(ast[1], coords), eval_expr(ast[2], coords))
    raise ValueError(f"unknown predicate node: {op!r}")


class _Inexact(Exception):
    """A node outside the exact fragment of :func:`eval_pred_rows`."""


def eval_pred_rows(ast, points) -> Iterable[bool]:
    """``eval_pred(ast, p)`` for every row ``p`` of ``points``, an (n, dim)
    :class:`~vfc.charts_atlas.RationalArray`.

    A predicate built from ``num``, ``var``, ``+``, ``-``, ``*``, ``neg``,
    ``pow`` with exponent ≥ 0, ``/`` by a nonzero constant, the
    comparisons, ``and``, ``or``, ``not``, ``true`` and ``false`` is
    evaluated exactly on all rows at once and returns a bool array: each
    value is numerators (a Python int, or an object array of them) over one
    positive int, and none of these nodes can raise.  Any other predicate
    returns a generator of ``eval_pred`` row by row, which makes the row's
    ``Fraction`` s and raises where ``eval_pred`` raises, as far as the
    caller reads."""
    columns = list(points.num.T.astype(object))

    def value(ast) -> tuple:
        op = ast[0]
        if op == "num":
            v = Fraction(ast[1])
            return v.numerator, v.denominator
        if op == "var":
            return columns[ast[1]], points.den
        if op in ("+", "-", "*"):
            (a, da), *rest = map(value, [ast[1], ast[2]] if op == "-" else ast[1:])
            for b, db in rest:
                if op == "*":
                    a, da = a * b, da * db
                    continue
                lcm = math.lcm(da, db)
                a, b, da = a * (lcm // da), b * (lcm // db), lcm
                a = a + b if op == "+" else a - b
            return a, da
        if op == "neg":
            a, da = value(ast[1])
            return -a, da
        if op == "pow" and int(ast[2]) >= 0:
            a, da = value(ast[1])
            return a ** int(ast[2]), da ** int(ast[2])
        if op == "/":
            (a, da), (b, db) = value(ast[1]), value(ast[2])
            if not isinstance(b, np.ndarray) and b != 0:
                return (a * db, da * b) if b > 0 else (-a * db, -da * b)
        raise _Inexact

    def holds(ast) -> np.ndarray:
        op = ast[0]
        if op in ("true", "false", "and", "or"):
            out = np.asarray(op in ("true", "and"))
            for sub in ast[1:] if op in ("and", "or") else ():
                out = out & holds(sub) if op == "and" else out | holds(sub)
            return out
        if op == "not":
            return ~holds(ast[1])
        if op in _COMPARE:
            (a, da), (b, db) = value(ast[1]), value(ast[2])
            return np.asarray(_COMPARE[op](a * db, b * da), dtype=bool)
        raise _Inexact

    try:
        return np.broadcast_to(holds(ast), (len(points),))
    except (_Inexact, ArithmeticError, LookupError, TypeError, ValueError):
        return (eval_pred(ast, p) for p in points.fractions())


def value_and_jacobian(
    asts: Sequence,
    coords: Sequence,
    tangent_dims: Sequence[int] | None = None,
) -> tuple[list, list[list]]:
    """Values and the Jacobian along ``tangent_dims`` (by default every
    coordinate) at one point, as float lists: :func:`compile_vector` at
    ``[coords]``, row 0."""
    dims = list(range(len(coords))) if tangent_dims is None else list(tangent_dims)
    values, jac = compile_vector(asts, dims)([coords])
    return values[0].tolist(), jac[0].tolist()


# ---------------------------------------------------------------------------
# compiled float form
# ---------------------------------------------------------------------------
#
# An operand of the tape is ("c", exact constant), ("p", register) for a
# float column that carries no gradient (it depends on non-tangent
# coordinates only) or ("d", register) for a (value column, gradient
# array) pair: one row per point, the gradient of shape (points, tangent
# dims).  Each step computes, row by row, its node's float value as the
# interpreter does on float coordinates and, for a "d" result, the
# gradient by the node's forward-mode rule, a "p" or "c" operand having
# gradient 0; an exact constant is rounded by one ``float()`` where it
# meets a column.  A step raises where the float arithmetic of one row would;
# results a row does not take (the other side of a ramp, the ``sqrt`` slope
# at 0) are computed with numpy's warnings off and dropped by ``np.where``.


def _fold(op: str, values: list, extra: tuple = ()):
    """The interpreter's result of one node on constant operands."""
    return eval_expr([op, *(["var", i] for i in range(len(values))), *extra], values)


def _getter(operand, column: bool = False) -> Callable:
    """The operand's value in a step, shaped to scale the rows of a
    gradient if ``column``."""
    kind, ref = operand
    if kind == "c":
        value = float(ref)
        return lambda r: value
    return (lambda r: r[ref][:, None]) if column else itemgetter(ref)


def _divisor(v):
    if not np.all(v):
        raise ZeroDivisionError("float division by zero")
    return v


def _add_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) + fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            return va + vb, ga + gb
    elif a[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            return va + fb(r), ga
    else:
        def step(x, r):
            vb, gb = fb(r)
            return fa(r) + vb, gb
    return step


def _sub_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) - fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            return va - vb, ga - gb
    elif a[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            return va - fb(r), ga
    else:
        def step(x, r):
            vb, gb = fb(r)
            return fa(r) - vb, 0.0 - gb
    return step


def _mul_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) * fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            return va * vb, ga * vb[:, None] + va[:, None] * gb
    elif a[0] == "d":
        cb = _getter(b, column=True)

        def step(x, r):
            va, ga = fa(r)
            return va * fb(r), ga * cb(r)
    else:
        ca = _getter(a, column=True)

        def step(x, r):
            vb, gb = fb(r)
            return vb * fa(r), gb * ca(r)
    return step


def _div_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) / _divisor(fb(r))
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            inv = 1.0 / _divisor(vb)
            val = va * inv
            return val, (ga - val[:, None] * gb) * inv[:, None]
    elif b[0] == "c":
        # a / c = a·(1/c) and ∇(a / c) = ∇a·(1/c), with 1/c taken exactly
        inv_c = float(1 / b[1]) if isinstance(b[1], Fraction) else 1.0 / b[1]

        def step(x, r):
            va, ga = fa(r)
            return va * inv_c, ga * inv_c
    elif a[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            inv = 1.0 / _divisor(fb(r))
            return va * inv, ga * inv[:, None]
    else:
        def step(x, r):
            vb, gb = fb(r)
            inv = 1.0 / _divisor(vb)
            val = fa(r) * inv
            return val, (0.0 - val[:, None] * gb) * inv[:, None]
    return step


def _neg_step(dual, a):
    fa = _getter(a)
    if not dual:
        return lambda x, r: -fa(r)

    def step(x, r):
        v, g = fa(r)
        return -v, -g

    return step


def _chain_step(fd: Callable):
    """A scalar function f: ``fd(v)`` is (f(v), f′(v)), and the gradient
    is f′(v)·∇v."""

    def make(dual, a):
        fa = _getter(a)
        if not dual:
            return lambda x, r: fd(fa(r))[0]

        def step(x, r):
            v, g = fa(r)
            fv, d = fd(v)
            return fv, d[:, None] * g

        return step

    return make


def _sqrt(v):
    if np.any(v < 0):
        raise ValueError("math domain error")
    fv = np.sqrt(v)
    return fv, np.where(fv == 0.0, 0.0, 0.5 / fv)


def _turn(v):
    t = v * _TWO_PI
    if np.any(np.isinf(t)):
        raise ValueError("math domain error")
    return t


def _sin2pi(v):
    t = _turn(v)
    return np.sin(t), _TWO_PI * np.cos(t)


def _cos2pi(v):
    t = _turn(v)
    return np.cos(t), -_TWO_PI * np.sin(t)


def _ramp_step(smooth: bool):
    """``clamp01`` (``smooth`` false) or ``smoothstep``: 0 at or below 0,
    1 at or above 1, the ramp between, chosen row by row.  The gradient is
    the ramp's on the ramp and exactly 0 on the flat sides, also where
    ∇a is infinite."""

    def make(dual, a):
        fa = _getter(a)
        if not dual:
            def step(x, r):
                v = fa(r)
                inner = v * v * (3 - 2 * v) if smooth else v
                return np.where(v <= 0, 0.0, np.where(v >= 1, 1.0, inner))

            return step

        def step(x, r):
            v, g = fa(r)
            low, high = v <= 0, v >= 1
            if smooth:
                # u²·t with t = 3 − 2u: ∇(u·u)·t + u²·∇t, ∇t = 0 − 2∇u
                vv = v * v
                t = 3 - v * 2
                c = v[:, None]
                val = vv * t
                g = (g * c + c * g) * t[:, None] + vv[:, None] * (0.0 - g * 2)
            else:
                val = v
            flat = (low | high)[:, None]
            return np.where(low, 0.0, np.where(high, 1.0, val)), np.where(flat, 0.0, g)

        return step

    return make


_STEPS = {
    "+": _add_step,
    "-": _sub_step,
    "*": _mul_step,
    "/": _div_step,
    "neg": _neg_step,
    "sqrt": _chain_step(_sqrt),
    "sin2pi": _chain_step(_sin2pi),
    "cos2pi": _chain_step(_cos2pi),
    "clamp01": _ramp_step(smooth=False),
    "smoothstep": _ramp_step(smooth=True),
}


class _Tape:
    """The straight-line program of one :func:`compile_vector` call.

    Equal steps are emitted once, so a subexpression shared by several
    components is evaluated once per call."""

    def __init__(self, tangent_dims: Sequence[int]):
        self.eye = np.eye(len(tangent_dims))
        self.slot: dict = {}
        for k, d in enumerate(tangent_dims):
            self.slot.setdefault(d, k)
        self.steps: list = []
        self.memo: dict = {}
        self.walked: dict = {}  # id of an AST list -> its operand

    def _emit(self, key: tuple, dual: bool, make: Callable):
        operand = self.memo.get(key)
        if operand is None:
            operand = self.memo[key] = ("d" if dual else "p", len(self.steps))
            self.steps.append(make())
        return operand

    def _apply(self, op: str, *args):
        if all(a[0] == "c" for a in args):
            return ("c", _fold(op, [a[1] for a in args]))
        dual = any(a[0] == "d" for a in args)
        return self._emit((op, *args), dual, lambda: _STEPS[op](dual, *args))

    def node(self, ast):
        """The operand of ``ast``: each AST object is walked once."""
        if id(ast) not in self.walked:
            self.walked[id(ast)] = self._walk(ast)
        return self.walked[id(ast)]

    def _walk(self, ast):
        op = ast[0]
        if op == "num":
            return ("c", Fraction(ast[1]))
        if op == "var":
            k = ast[1]
            if k in self.slot:
                # one gradient row, broadcast against every point's
                seed = self.eye[self.slot[k]]
                return self._emit(("var", k), True, lambda: lambda x, r: (x[k], seed))
            return self._emit(("var", k), False, lambda: lambda x, r: x[k])
        if op in ("+", "*"):
            acc = self.node(ast[1])
            for sub in ast[2:]:
                acc = self._apply(op, acc, self.node(sub))
            return acc
        if op in ("-", "/"):
            return self._apply(op, self.node(ast[1]), self.node(ast[2]))
        if op == "pow":
            base = self.node(ast[1])
            n = int(ast[2])
            if n == 0:
                return ("c", Fraction(1))
            if base[0] == "c":
                return ("c", _fold("pow", [base[1]], (n,)))
            if n < 0:
                base = self._apply("/", ("c", Fraction(1)), base)
                n = -n
            acc = base
            for _ in range(n - 1):
                acc = self._apply("*", acc, base)
            return acc
        if op in _STEPS:
            return self._apply(op, self.node(ast[1]))
        raise ValueError(f"unknown expression node: {op!r}")


def compile_vector(asts: Sequence, tangent_dims: Sequence[int]) -> Callable:
    """Compile ASTs once into ``f(points) -> (values, jacobians)``.

    ``f`` takes a batch of points, shape ``(n, dim)`` (floats, or exact
    numbers that it rounds with ``float()``), and returns float64 arrays:
    the values, shape ``(n, len(asts))``, and the Jacobians along
    ``tangent_dims``, shape ``(n, len(asts), len(tangent_dims))``; other
    coordinates are constants.  Every subtree without variables is folded
    exactly by :func:`eval_expr` and then rounded by one ``float()``; every
    other value is what :func:`eval_expr` gives at the float coordinates of
    the point, up to the last bits, and each gradient follows its node's
    forward-mode rule (see the module docstring), with ∇ of a ``var`` a
    unit row and of anything without tangent variables 0.  Every step is
    elementwise, so a row does not depend on the other rows: points
    evaluated one at a time or together give the same bits.

    Unknown nodes raise ``ValueError`` here, at compile time, and so does
    a constant subtree that cannot be folded.  ``f`` raises exactly when
    the float arithmetic of one of the points raises (a zero divisor,
    ``sqrt`` of a negative, ``sin`` or ``cos`` of an infinity), never for
    a branch that no point takes; :func:`evaluate_until_raise` tells which
    point raises first.
    """
    tape = _Tape(tangent_dims)
    outputs = [
        (kind, float(ref) if kind == "c" else ref) for kind, ref in map(tape.node, asts)
    ]
    steps = tape.steps
    m, nv = len(asts), len(tape.eye)

    def evaluate(points) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(points, dtype=float)
        n = len(x)
        values = np.empty((n, m))
        jac = np.zeros((n, m, nv))
        if n == 0:
            return values, jac
        x = list(x.T)  # the columns, indexed as a point's coordinates were
        r: list = []
        push = r.append
        with np.errstate(all="ignore"):
            for step in steps:
                push(step(x, r))
        for j, (kind, ref) in enumerate(outputs):
            if kind == "c":
                values[:, j] = ref
            elif kind == "p":
                values[:, j] = r[ref]
            else:
                values[:, j], jac[:, j] = r[ref]
        return values, jac

    return evaluate


def evaluate_until_raise(f: Callable, points) -> tuple:
    """``f`` at ``points`` in one call, as far as a loop that evaluates one
    point at a time gets before it raises.

    Returns ``(values, jacobians, error)``: the rows of ``f``'s result for
    the points before the first one at which ``f`` raises, and that
    exception (``None`` when no point raises).  A check that stops at its
    first failing point reports a failure among those rows first and
    raises ``error`` only when there is none."""
    try:
        return (*f(points), None)
    except (ArithmeticError, ValueError) as batch_error:
        error = batch_error
    for i in range(len(points)):
        try:
            f(points[i : i + 1])
        except (ArithmeticError, ValueError) as ex:
            return (*f(points[:i]), ex)
    raise error


#: the largest |n| of a document's ``pow``, which is unrolled into |n| − 1 products
POW_CAP = 64

#: the arguments of each node, ``None`` for any number (at least 1 for a value)
_ARITY = {
    "expression": {**dict.fromkeys(_STEPS, 1), "num": 1, "var": 1, "pow": 2, "+": None,
                   "*": None, "-": 2, "/": 2},
    "predicate": {**dict.fromkeys(_COMPARE, 2), "and": None, "or": None, "not": 1,
                  "true": 0, "false": 0},
}


def check_grammar(asts, dim: int, where: str, predicate: bool = False) -> None:
    """Raise ``ValueError`` naming ``where`` unless each of ``asts`` is a
    value node (a predicate node if ``predicate``) of the module docstring
    over ``dim`` coordinates, with its arity, ``var`` an int below ``dim``,
    ``num`` an int or string rational and ``pow`` an int exponent of size
    at most ``POW_CAP``.  What passes raises nothing at ``dim`` coordinates
    but ``ArithmeticError`` or ``ValueError``."""

    def fail(message: str):
        raise ValueError(f"{where}: {message}")

    def args(ast, kind: str) -> list:
        if not (isinstance(ast, list) and ast and isinstance(ast[0], str)):
            fail(f"{ast!r} is no {kind} node")
        if ast[0] not in _ARITY[kind]:
            fail(f"unknown {kind} node: {ast[0]!r}")
        n, given = _ARITY[kind][ast[0]], len(ast) - 1
        if given != n and (n is not None or kind == "expression" and not given):
            fail(f"{ast!r} has {given} arguments, not {'at least 1' if n is None else n}")
        return ast[1:]

    def value(ast):
        subs = args(ast, "expression")
        if ast[0] == "var" and not (type(subs[0]) is int and 0 <= subs[0] < dim):
            fail(f"{ast!r} is not one of the {dim} coordinates")
        if ast[0] == "num":
            try:
                Fraction(subs[0] if type(subs[0]) in (int, str) else None)
            except (ArithmeticError, TypeError, ValueError):
                fail(f"{ast!r} is not a rational")
        if ast[0] == "pow" and not (type(subs[1]) is int and abs(subs[1]) <= POW_CAP):
            fail(f"{ast!r} has no int exponent in [-{POW_CAP}, {POW_CAP}]")
        for sub in {"num": (), "var": (), "pow": subs[:1]}.get(ast[0], subs):
            value(sub)

    def holds(ast):
        for sub in args(ast, "predicate"):
            (holds if ast[0] in ("and", "or", "not") else value)(sub)

    for ast in asts:
        (holds if predicate else value)(ast)
