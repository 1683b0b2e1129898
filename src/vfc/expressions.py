"""Expression ASTs with forward-mode (dual-number) first derivatives.

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

Exact and float evaluation
--------------------------
The interpreter (:func:`eval_expr`, :func:`eval_pred`,
:func:`value_and_jacobian` with :class:`Dual`) is the exact path: at
``Fraction`` coordinates rational subexpressions stay rational.  It serves
exact sample values of a perturbation and every predicate at float points.
:func:`eval_pred_rows` tests a predicate at every row of a rational sample
array at once, exactly, and falls back to :func:`eval_pred` row by row for
nodes outside its fragment.

The repeated evaluations at float coordinates (Newton's iteration in
``find_zeros``, the transversality and admissibility checks of a
perturbation, the tangent bundle condition, ρ and section consistency)
go through :func:`compile_vector` instead.  It walks the ASTs once and
returns a closure over a batch of points, ``(n, dim)`` in, values
``(n, m)`` and Jacobians ``(n, m, k)`` out, each row the numbers the
interpreter gives at that point's float coordinates.  Newton steps every
seed of a chart in one call per round, and each check evaluates all its
points in one call; :func:`evaluate_until_raise` keeps a check's
first-failure order when some point's arithmetic raises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import eq, ge, gt, itemgetter, le, lt
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Dual",
    "compile_vector",
    "evaluate_until_raise",
    "eval_expr",
    "eval_vector",
    "eval_pred",
    "eval_pred_rows",
    "jacobian",
    "value_and_jacobian",
    "num",
    "var",
    "const_vec",
]

Number = int | float | Fraction


def num(value) -> list:
    """AST literal node for an exact rational."""
    v = Fraction(value)
    return ["num", f"{v.numerator}/{v.denominator}"]


def var(k: int) -> list:
    return ["var", k]


def const_vec(values) -> list[list]:
    return [num(v) for v in values]


class Dual:
    """A first-order dual number: value + directional gradient."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad: tuple):
        self.val = val
        self.grad = tuple(grad)

    @staticmethod
    def lift(x, nvars: int) -> "Dual":
        if isinstance(x, Dual):
            return x
        return Dual(x, (0,) * nvars)

    @staticmethod
    def seed(x, k: int, nvars: int) -> "Dual":
        return Dual(x, tuple(1 if i == k else 0 for i in range(nvars)))

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        return Dual(other, (0,) * len(self.grad))

    def __add__(self, other):
        o = self._coerce(other)
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Dual(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o - self

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __mul__(self, other):
        o = self._coerce(other)
        return Dual(
            self.val * o.val,
            tuple(a * o.val + self.val * b for a, b in zip(self.grad, o.grad)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        inv = 1 / o.val if isinstance(o.val, Fraction) else 1.0 / o.val
        val = self.val * inv
        return Dual(
            val,
            tuple((a - val * b) * inv for a, b in zip(self.grad, o.grad)),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __repr__(self):
        return f"Dual({self.val}, {self.grad})"


def _val(x):
    return x.val if isinstance(x, Dual) else x


def _chain(x, fval, dval):
    """Lift a scalar function with value fval and derivative dval at x."""
    if isinstance(x, Dual):
        return Dual(fval, tuple(dval * g for g in x.grad))
    return fval


_TWO_PI = 2.0 * math.pi


def eval_expr(ast, coords: Sequence):
    """Evaluate an AST at coordinates (numbers or Duals)."""
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
        acc = base
        if n == 0:
            return Fraction(1)
        if n < 0:
            acc = 1 / base if not isinstance(base, Dual) else Dual(1, (0,) * len(base.grad)) / base
            base = acc
            n = -n
            acc = base
        for _ in range(n - 1):
            acc = acc * base
        return acc
    if op == "sqrt":
        x = eval_expr(ast[1], coords)
        v = float(_val(x))
        f = math.sqrt(v)
        d = 0.0 if f == 0.0 else 0.5 / f
        return _chain(x, f, d)
    if op == "sin2pi":
        x = eval_expr(ast[1], coords)
        v = float(_val(x)) * _TWO_PI
        return _chain(x, math.sin(v), _TWO_PI * math.cos(v))
    if op == "cos2pi":
        x = eval_expr(ast[1], coords)
        v = float(_val(x)) * _TWO_PI
        return _chain(x, math.cos(v), -_TWO_PI * math.sin(v))
    if op in ("clamp01", "smoothstep"):
        x = eval_expr(ast[1], coords)
        v = _val(x)
        if v <= 0 or v >= 1:
            # flat: an exact zero gradient, also beside an infinite slope
            c = Fraction(v >= 1) if isinstance(v, Fraction) else float(v >= 1)
            return Dual(c, (0,) * len(x.grad)) if isinstance(x, Dual) else c
        return x if op == "clamp01" else x * x * (3 - 2 * x)
    raise ValueError(f"unknown expression node: {op!r}")


def eval_vector(asts: Sequence, coords: Sequence) -> list:
    return [eval_expr(a, coords) for a in asts]


def eval_pred(ast, coords: Sequence) -> bool:
    op = ast[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "and":
        return all(eval_pred(sub, coords) for sub in ast[1:])
    if op == "or":
        return any(eval_pred(sub, coords) for sub in ast[1:])
    if op == "not":
        return not eval_pred(ast[1], coords)
    a = _val(eval_expr(ast[1], coords))
    b = _val(eval_expr(ast[2], coords))
    if op == "<=":
        return a <= b
    if op == "<":
        return a < b
    if op == ">=":
        return a >= b
    if op == ">":
        return a > b
    if op == "==":
        return a == b
    raise ValueError(f"unknown predicate node: {op!r}")


class _Inexact(Exception):
    """A node outside the exact fragment of :func:`eval_pred_rows`."""


_COMPARE = {"<=": le, "<": lt, ">=": ge, ">": gt, "==": eq}


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
        if op == "var" and type(ast[1]) is int and 0 <= ast[1] < len(columns):
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
    """Values and the Jacobian w.r.t. the tangent coordinate directions.

    Returns ``(values, rows)`` where ``rows[i][j]`` is the derivative of the
    i-th component along the j-th tangent direction.  Non-tangent
    coordinates are treated as constants.
    """
    dims = list(tangent_dims) if tangent_dims is not None else list(range(len(coords)))
    nv = len(dims)
    lifted = []
    for idx, c in enumerate(coords):
        if idx in dims:
            lifted.append(Dual.seed(c, dims.index(idx), nv))
        else:
            lifted.append(c)
    values, rows = [], []
    for a in asts:
        r = eval_expr(a, lifted)
        if isinstance(r, Dual):
            values.append(r.val)
            rows.append(list(r.grad))
        else:
            values.append(r)
            rows.append([0] * nv)
    return values, rows


def jacobian(
    asts: Sequence,
    coords: Sequence,
    tangent_dims: Sequence[int] | None = None,
) -> list[list]:
    return value_and_jacobian(asts, coords, tangent_dims)[1]


# ---------------------------------------------------------------------------
# compiled float form
# ---------------------------------------------------------------------------
#
# An operand of the tape is ("c", exact constant), ("p", register) for a
# float column that carries no gradient (it depends on non-tangent
# coordinates only) or ("d", register) for a (value column, gradient
# array) pair: one row per point, the gradient of shape (points, tangent
# dims).  Each step mirrors, row by row, what the interpreter does on float
# coordinates: ``Dual`` arithmetic for "d" operands, plain float arithmetic
# for "p" operands, and one ``float()`` of an exact constant where it meets
# either.  A step raises where the float arithmetic of one row would;
# results a row does not take (the other side of a ramp, the ``sqrt`` slope
# at 0) are computed with numpy's warnings off and dropped by ``np.where``.


def _fold(op: str, values: list, extra: tuple = ()):
    """The interpreter's result of one node on constant operands."""
    return eval_expr([op, *(["var", i] for i in range(len(values))), *extra], values)


def _getter(operand) -> Callable:
    kind, ref = operand
    if kind == "c":
        value = float(ref)
        return lambda r: value
    return itemgetter(ref)


def _column(operand) -> Callable:
    """Like :func:`_getter`, shaped to scale the rows of a gradient."""
    kind, ref = operand
    if kind == "c":
        value = float(ref)
        return lambda r: value
    return lambda r: r[ref][:, None]


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
        cb = _column(b)

        def step(x, r):
            va, ga = fa(r)
            return va * fb(r), ga * cb(r)
    else:
        ca = _column(a)

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
        # an exact divisor is inverted exactly, as ``Dual.__truediv__`` does
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
    """A scalar function: ``fd(v)`` is its value and derivative."""

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
    1 at or above 1, the ramp between, chosen row by row."""

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
                # x * x * (3 - 2 * x) in Dual arithmetic
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
    components (or by a section and its perturbation) is evaluated once
    per call."""

    def __init__(self, tangent_dims: Sequence[int]):
        self.nv = len(tangent_dims)
        self.slot: dict = {}
        for k, d in enumerate(tangent_dims):
            self.slot.setdefault(d, k)
        self.steps: list = []
        self.memo: dict = {}

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
        op = ast[0]
        if op == "num":
            return ("c", Fraction(ast[1]))
        if op == "var":
            k = ast[1]
            if k in self.slot:
                # one gradient row, broadcast against every point's
                seed = np.eye(self.nv)[self.slot[k]]
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
    coordinates are constants.  Row ``i`` is what
    :func:`value_and_jacobian` gives at the float coordinates of point
    ``i``: every subtree without variables is folded exactly and then
    rounded by one ``float()``, and gradients follow the operation order of
    :class:`Dual`.  The two can differ only in the last bits (the
    interpreter keeps integer gradient entries exact), in the sign of a
    zero, and where a flat ``clamp01`` or ``smoothstep`` meets an infinite
    gradient (0 here, 0·∞ = NaN there).  Every step is elementwise, so a
    row does not depend on the other rows: points evaluated one at a time
    or together give the same bits.

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
    m, nv = len(asts), tape.nv

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
