"""Exact elimination and the sign of a transverse zero, on Python ints.

* :func:`parse_rat` / :func:`rat_str` -- the ``"p/q"`` wire format;
* :func:`eliminate` -- fraction-free (Bareiss) Gauss–Jordan elimination
  of an integer matrix: rank, pivots, determinant and reduced row-echelon
  form;
* :func:`zero_sign` -- the orientation sign of a transverse zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "eliminate",
    "parse_rat",
    "rat_str",
    "zero_sign",
]


def parse_rat(text: str | int) -> Fraction:
    """Parse a rational from the JSON wire format ``"p/q"`` (or an int)."""
    return Fraction(text)


def rat_str(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` (always with explicit denominator)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class Elimination(NamedTuple):
    """The outcome of :func:`eliminate` on an integer matrix A: ``rref``
    (int rows) over ``scale`` (a positive int) is the reduced row-echelon
    form of A, with ``rank`` pivots in the columns ``pivots``; ``det`` is
    the determinant of A if A is square, else 0."""

    rref: list
    scale: int
    rank: int
    pivots: tuple[int, ...]
    det: int


def eliminate(a: np.ndarray) -> Elimination:
    """Gauss–Jordan elimination of the 2-D integer array ``a`` (int64, or
    object holding Python ints), fraction-free on Python ints, so nothing
    overflows.  Each step takes the first nonzero entry p at or below the
    pivot row and sets every other row to (p·row − f·pivot row) / p', f its
    entry in the pivot column and p' the previous pivot (at first 1).  The
    division is exact, as every entry is a minor of ``a`` (Sylvester's
    identity); at the end every pivot entry is ± the last pivot minor."""
    n, cols = a.shape
    m = a.tolist()
    prev, sign, pivots = 1, 1, []
    for c in range(cols):
        r = len(pivots)
        sel = next((i for i in range(r, n) if m[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            sign = -sign
        p, top = m[r][c], m[r]
        for i in range(n):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        pivots.append(c)
        prev = p
        if len(pivots) == n:
            break
    det = sign * prev if len(pivots) == n == cols else 0
    if prev < 0:
        m, prev = [[-x for x in row] for row in m], -prev
    return Elimination(m, prev, len(pivots), tuple(pivots), det)


# Kept for perfbench/tracer.py alone, which wraps RationalMatrix.matvec and stops if it is missing.
@dataclass(frozen=True)
class RationalMatrix:
    """An immutable matrix of exact rationals, one tuple per row."""

    entries: tuple

    def matvec(self, v) -> tuple:
        return tuple(sum(a * Fraction(b) for a, b in zip(r, v)) for r in self.entries)


def zero_sign(jacobian: np.ndarray) -> int:
    """Orientation sign of a transverse zero in an index-0 chart.

    Every chart carries the standard orientation e_1 ∧ … ∧ e_n ⊗
    (e_1 ∧ … ∧ e_n)* of det(ds) = Λ^n TU ⊗ (Λ^n E)*, and ds contracts it
    to det(ds): the sign is the sign of the determinant of the float
    matrix ``jacobian``, taken exactly: over the common power-of-two
    denominator D of its (dyadic) entries it is an integer matrix of
    determinant Dⁿ·det.  A non-square or singular ``jacobian`` or a NaN
    entry raises ``ValueError``, an infinite entry ``OverflowError``."""
    jacobian = np.asarray(jacobian, dtype=float)
    if jacobian.ndim != 2 or jacobian.shape[0] != jacobian.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    ratios = [x.as_integer_ratio() for x in jacobian.ravel().tolist()]
    den = math.lcm(*(q for _, q in ratios))
    ints = np.array([p * (den // q) for p, q in ratios], dtype=object)
    det = eliminate(ints.reshape(jacobian.shape)).det
    if det == 0:
        raise ValueError("jacobian is singular: zero is not transverse")
    return 1 if det > 0 else -1
