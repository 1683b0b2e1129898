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
the reduction predicates on rational samples, exact sample values of a
perturbation, and every predicate.

The repeated evaluations at float coordinates (Newton's iteration in
``find_zeros``, the transversality and admissibility checks of a
perturbation, the tangent bundle condition, ρ and section consistency)
go through :func:`compile_vector` instead.  It walks the ASTs once and
returns a closure over floats that gives the values and the Jacobian as
numpy arrays: the numbers the interpreter gives at the same float
coordinates, without re-reading ``Fraction`` constants or mixing them
with floats on every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Dual",
    "compile_vector",
    "eval_expr",
    "eval_vector",
    "eval_pred",
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
    if op == "clamp01":
        x = eval_expr(ast[1], coords)
        v = _val(x)
        if v <= 0:
            return _chain(x, Fraction(0) if isinstance(v, Fraction) else 0.0, 0)
        if v >= 1:
            return _chain(x, Fraction(1) if isinstance(v, Fraction) else 1.0, 0)
        return x
    if op == "smoothstep":
        x = eval_expr(ast[1], coords)
        v = _val(x)
        if v <= 0:
            return _chain(x, Fraction(0) if isinstance(v, Fraction) else 0.0, 0)
        if v >= 1:
            return _chain(x, Fraction(1) if isinstance(v, Fraction) else 1.0, 0)
        return x * x * (3 - 2 * x)
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
# float that carries no gradient (it depends on non-tangent coordinates
# only) or ("d", register) for a (value, gradient tuple) pair.  Each step
# mirrors what the interpreter does on float coordinates: ``Dual``
# arithmetic for "d" operands, plain float arithmetic for "p" operands, and
# one ``float()`` of an exact constant where it meets either.


def _fold(op: str, values: list, extra: tuple = ()):
    """The interpreter's result of one node on constant operands."""
    return eval_expr([op, *(["var", i] for i in range(len(values))), *extra], values)


def _getter(operand) -> Callable:
    kind, ref = operand
    if kind == "c":
        value = float(ref)
        return lambda r: value
    return itemgetter(ref)


def _add_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) + fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            return va + vb, tuple([p + q for p, q in zip(ga, gb)])
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
            return va - vb, tuple([p - q for p, q in zip(ga, gb)])
    elif a[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            return va - fb(r), ga
    else:
        def step(x, r):
            vb, gb = fb(r)
            return fa(r) - vb, tuple([0.0 - q for q in gb])
    return step


def _mul_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) * fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            return va * vb, tuple([p * vb + va * q for p, q in zip(ga, gb)])
    elif a[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb = fb(r)
            return va * vb, tuple([p * vb for p in ga])
    else:
        def step(x, r):
            vb, gb = fb(r)
            va = fa(r)
            return vb * va, tuple([q * va for q in gb])
    return step


def _div_step(dual, a, b):
    fa, fb = _getter(a), _getter(b)
    if not dual:
        return lambda x, r: fa(r) / fb(r)
    if a[0] == "d" and b[0] == "d":
        def step(x, r):
            va, ga = fa(r)
            vb, gb = fb(r)
            inv = 1.0 / vb
            val = va * inv
            return val, tuple([(p - val * q) * inv for p, q in zip(ga, gb)])
    elif a[0] == "d":
        if b[0] == "c":
            # an exact divisor is inverted exactly, as ``Dual.__truediv__`` does
            inv_c = float(1 / b[1]) if isinstance(b[1], Fraction) else 1.0 / b[1]
            inverse = lambda r: inv_c  # noqa: E731
        else:
            inverse = lambda r: 1.0 / fb(r)  # noqa: E731

        def step(x, r):
            va, ga = fa(r)
            inv = inverse(r)
            return va * inv, tuple([p * inv for p in ga])
    else:
        def step(x, r):
            vb, gb = fb(r)
            inv = 1.0 / vb
            val = fa(r) * inv
            return val, tuple([(0.0 - val * q) * inv for q in gb])
    return step


def _neg_step(dual, a):
    fa = _getter(a)
    if not dual:
        return lambda x, r: -fa(r)

    def step(x, r):
        v, g = fa(r)
        return -v, tuple([-p for p in g])

    return step


def _chain_step(f: Callable, fd: Callable):
    """A scalar function: ``f(v)`` is its value, ``fd(v)`` its value and
    derivative."""

    def make(dual, a):
        fa = _getter(a)
        if not dual:
            return lambda x, r: f(fa(r))

        def step(x, r):
            v, g = fa(r)
            fv, d = fd(v)
            return fv, tuple([d * p for p in g])

        return step

    return make


def _sqrt(v):
    fv = math.sqrt(v)
    return fv, 0.0 if fv == 0.0 else 0.5 / fv


def _sin2pi(v):
    t = v * _TWO_PI
    return math.sin(t), _TWO_PI * math.cos(t)


def _cos2pi(v):
    t = v * _TWO_PI
    return math.cos(t), -_TWO_PI * math.sin(t)


def _ramp_step(smooth: bool):
    """``clamp01`` (``smooth`` false) or ``smoothstep``."""

    def make(dual, a):
        fa = _getter(a)
        if not dual:
            def step(x, r):
                v = fa(r)
                if v <= 0:
                    return 0.0
                if v >= 1:
                    return 1.0
                return v * v * (3 - 2 * v) if smooth else v

            return step

        def step(x, r):
            v, g = fa(r)
            if v <= 0:
                return 0.0, tuple([0.0 for _ in g])
            if v >= 1:
                return 1.0, tuple([0.0 for _ in g])
            if not smooth:
                return v, g
            # x * x * (3 - 2 * x) in Dual arithmetic
            vv = v * v
            t = 3 - v * 2
            return vv * t, tuple([(p * v + v * p) * t + vv * (0.0 - p * 2) for p in g])

        return step

    return make


_STEPS = {
    "+": _add_step,
    "-": _sub_step,
    "*": _mul_step,
    "/": _div_step,
    "neg": _neg_step,
    "sqrt": _chain_step(math.sqrt, _sqrt),
    "sin2pi": _chain_step(lambda v: math.sin(v * _TWO_PI), _sin2pi),
    "cos2pi": _chain_step(lambda v: math.cos(v * _TWO_PI), _cos2pi),
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
                seed = tuple(1.0 if i == self.slot[k] else 0.0 for i in range(self.nv))
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
    """Compile ASTs once into ``f(coords) -> (values, jacobian)``.

    ``f`` takes float coordinates and returns float64 arrays: the values,
    shape ``(len(asts),)``, and the Jacobian along ``tangent_dims``, shape
    ``(len(asts), len(tangent_dims))``; other coordinates are constants.
    It follows :func:`value_and_jacobian` at float coordinates: every
    subtree without variables is folded exactly and then rounded by one
    ``float()``, and gradients follow the operation order of :class:`Dual`.
    The two can differ only in the last bits (the interpreter keeps
    integer gradient entries exact) and in the sign of a zero.  Unknown
    nodes raise ``ValueError`` here, at compile time.
    """
    tape = _Tape(tangent_dims)
    zero = (0.0,) * tape.nv
    outputs = []
    for ast in asts:
        kind, ref = tape.node(ast)
        if kind == "c":
            outputs.append(lambda r, v=float(ref): (v, zero))
        elif kind == "p":
            outputs.append(lambda r, i=ref: (r[i], zero))
        else:
            outputs.append(itemgetter(ref))
    steps = tape.steps
    shape = (len(asts), tape.nv)

    def evaluate(coords: Sequence) -> tuple[np.ndarray, np.ndarray]:
        x = [float(c) for c in coords]
        r: list = []
        push = r.append
        for step in steps:
            push(step(x, r))
        pairs = [out(r) for out in outputs]
        values = np.array([v for v, _ in pairs], dtype=float)
        jac = np.array([g for _, g in pairs], dtype=float).reshape(shape)
        return values, jac

    return evaluate
