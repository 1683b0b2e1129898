"""The forward-mode interpreter over dual numbers, kept as the oracle of
the compiled tape in ``test_expressions.py``.

:class:`Dual` carries a value and its gradient through the arithmetic
operators; :func:`eval_expr` evaluates an AST at coordinates that are
numbers or :class:`Dual` s, and :func:`value_and_jacobian` seeds one
:class:`Dual` per tangent coordinate.  At ``Fraction`` coordinates every
rational value and gradient entry stays exact, which the compiled tape
(floats throughout) is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


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

    # A non-Dual operand adds no gradient term, as in the tape: ∇(a·c) = ∇a·c
    # and ∇(a / c) = ∇a/c, so an infinite value is never multiplied by 0.
    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.val * other, tuple(a * other for a in self.grad))
        return Dual(
            self.val * other.val,
            tuple(a * other.val + self.val * b for a, b in zip(self.grad, other.grad)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other.val if isinstance(other, Dual) else other
        inv = 1 / o if isinstance(o, Fraction) else 1.0 / o
        val = self.val * inv
        if not isinstance(other, Dual):
            return Dual(val, tuple(a * inv for a in self.grad))
        return Dual(
            val,
            tuple((a - val * b) * inv for a, b in zip(self.grad, other.grad)),
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

