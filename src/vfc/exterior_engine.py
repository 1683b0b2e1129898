"""Exact rational matrices and the sign of a transverse zero.

Everything in this module is computed over exact rationals
(:class:`fractions.Fraction`); there is no floating point anywhere.  The
module provides:

* :func:`parse_rat` / :func:`rat_str` -- the ``"p/q"`` wire format;
* :class:`RationalMatrix` -- immutable exact matrices with elimination,
  rank and determinant;
* :func:`zero_sign` -- the orientation sign of a transverse zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

__all__ = [
    "RationalMatrix",
    "parse_rat",
    "rat_str",
    "zero_sign",
]


def parse_rat(text: str | int) -> Fraction:
    """Parse a rational from the JSON wire format ``"p/q"`` (or an int)."""
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text)


def rat_str(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` (always with explicit denominator)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _as_vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


class ExteriorError(ValueError):
    """Raised on dimension mismatches and degenerate inputs."""


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMatrix:
    """An immutable rows x cols matrix of exact rationals."""

    entries: tuple[Vec, ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "RationalMatrix":
        return RationalMatrix(tuple(_as_vec(r) for r in rows))

    @staticmethod
    def from_cols(cols: Iterable[Sequence], rows: int | None = None) -> "RationalMatrix":
        cols = [_as_vec(c) for c in cols]
        if not cols:
            if rows:
                return RationalMatrix(tuple(() for _ in range(rows)))
            return RationalMatrix(())
        return RationalMatrix.from_rows(zip(*cols))

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        z = Fraction(0)
        return RationalMatrix(tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def matvec(self, v: Sequence) -> Vec:
        v = _as_vec(v)
        if len(v) != self.cols:
            raise ExteriorError(f"matvec: expected length {self.cols}, got {len(v)}")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.entries)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows == 0:
            return RationalMatrix(())
        if self.cols != other.rows:
            raise ExteriorError("matrix product dimension mismatch")
        return RationalMatrix.from_cols(
            (self.matvec(c) for c in other.columns()), rows=self.rows
        )

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...], Fraction]:
        """Reduced row-echelon form.

        Returns ``(R, pivots, t)`` where ``R = T @ self`` for an invertible
        row-operation matrix ``T`` with ``det(T) = t``.
        """
        m = [list(r) for r in self.entries]
        nrows, ncols = self.rows, self.cols
        det_t = Fraction(1)
        pivots: list[int] = []
        pr = 0
        for pc in range(ncols):
            sel = next((i for i in range(pr, nrows) if m[i][pc] != 0), None)
            if sel is None:
                continue
            if sel != pr:
                m[pr], m[sel] = m[sel], m[pr]
                det_t = -det_t
            p = m[pr][pc]
            if p != 1:
                m[pr] = [x / p for x in m[pr]]
                det_t /= p
            for i in range(nrows):
                if i != pr and m[i][pc] != 0:
                    f = m[i][pc]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == nrows:
                break
        return RationalMatrix.from_rows(m), tuple(pivots), det_t

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ExteriorError("determinant of a non-square matrix")
        if self.rows == 0:
            return Fraction(1)
        red, pivots, t = self.rref()
        if len(pivots) < self.rows:
            return Fraction(0)
        # red = T @ self is the identity, so det(self) = 1/det(T).
        return 1 / t

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [rat_str(x) for r in self.entries for x in r],
        }

    @staticmethod
    def from_json(data: dict, where: str = "matrix") -> "RationalMatrix":
        """Read ``{"rows", "cols", "entries"}``, the entries row by row.

        Sizes that are not nonnegative integers, an entry count other than
        rows * cols, and 0 rows over nonzero cols (a shape this class
        cannot hold) raise ``ValueError`` naming ``where`` and the field."""
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
        for name, size in (("rows", rows), ("cols", cols)):
            if type(size) is not int or size < 0:
                raise ValueError(f"{where}: {name} is {size!r}, not a nonnegative integer")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{where}: entries has {len(entries)} values, not rows * cols = {rows * cols}"
            )
        if rows == 0 and cols:
            raise ValueError(f"{where}: cols is {cols} over 0 rows")
        flat = [parse_rat(x) for x in entries]
        return RationalMatrix.from_rows(
            [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        )


def zero_sign(jacobian: RationalMatrix) -> int:
    """Orientation sign of a transverse zero in an index-0 chart.

    Every chart carries the standard orientation e_1 ∧ … ∧ e_n ⊗
    (e_1 ∧ … ∧ e_n)* of det(ds) = Λ^n TU ⊗ (Λ^n E)*, and ds contracts it
    to det(ds): the sign is the sign of the exact determinant.  A
    non-square or singular ``jacobian`` raises :class:`ExteriorError`.
    """
    det = jacobian.det()
    if det == 0:
        raise ExteriorError("jacobian is singular: zero is not transverse")
    return 1 if det > 0 else -1
