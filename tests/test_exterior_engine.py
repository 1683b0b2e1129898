"""Oracle-first tests for the exact elimination and zero signs."""

import ast
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vfc
from vfc import exterior_engine
from vfc.charts_atlas import INT64_MAX, RationalArray
from vfc.exterior_engine import (
    eliminate,
    parse_rat,
    rat_str,
    zero_sign,
)

F = Fraction


def gauss_jordan(rows: list, cols: int) -> tuple[list, tuple, Fraction]:
    """Reference elimination over ``Fraction``: the reduced row-echelon
    form of the ``cols``-column matrix ``rows``, its pivot columns, and the
    determinant (the meaningful one for a square matrix)."""
    m = [[F(x) for x in row] for row in rows]
    det, pivots = F(1), []
    for pc in range(cols):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(m)) if m[i][pc] != 0), None)
        if sel is None:
            continue
        if sel != pr:
            m[pr], m[sel] = m[sel], m[pr]
            det = -det
        p = m[pr][pc]
        det *= p
        m[pr] = [x / p for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc] != 0:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
    return m, tuple(pivots), det if len(pivots) == len(m) else F(0)


def random_invertible(rng: random.Random, n: int) -> np.ndarray:
    """A random invertible n x n int matrix with small entries."""
    while True:
        m = np.array([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if gauss_jordan(m.tolist(), n)[2] != 0:
            return m


_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64_MAX - 3, INT64_MAX),
    st.integers(-INT64_MAX, -INT64_MAX + 3),
)


@st.composite
def _int_matrices(draw):
    """0 to 5 rows and columns; with a repeated row, rank-deficient."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    m = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if m and draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), list(m[0]))
    return np.array(m, dtype=np.int64).reshape(len(m), cols)


class TestEliminate:
    def test_rat_roundtrip(self):
        assert rat_str(F(5, 6)) == "5/6"
        assert rat_str(2) == "2/1"
        assert parse_rat("5/6") == F(5, 6)

    def test_det_oracle(self):
        assert eliminate(np.array([[1, 2], [3, 4]])).det == -2
        assert eliminate(np.array([[2, 0], [0, 3]])).det == 6
        assert eliminate(np.zeros((0, 0), dtype=np.int64)).det == 1
        assert eliminate(np.array([[1, 2, 3]])).det == 0

    def test_rref_of_invertible_is_scaled_identity(self):
        rng = random.Random(7)
        for _ in range(25):
            A = random_invertible(rng, 3)
            e = eliminate(A)
            assert e.pivots == (0, 1, 2)
            assert e.rref == (e.scale * np.eye(3, dtype=np.int64)).tolist()
            assert e.det == gauss_jordan(A.tolist(), 3)[2]

    @settings(max_examples=300, deadline=None)
    @given(_int_matrices(), st.integers(1, INT64_MAX))
    @example(np.zeros((0, 3), dtype=np.int64), 1)
    @example(np.zeros((3, 0), dtype=np.int64), 5)
    @example(np.array([[INT64_MAX, INT64_MAX - 1], [-INT64_MAX, INT64_MAX]]), INT64_MAX)
    def test_matches_gauss_jordan(self, num, den):
        """Rank, pivots, reduced row-echelon form and det of num/den."""
        rows, cols = num.shape
        red, pivots, det = gauss_jordan(RationalArray(num, den).fractions(), cols)
        e = eliminate(num)
        assert (e.rank, e.pivots) == (len(pivots), pivots)
        assert e.scale > 0
        assert [[F(x, e.scale) for x in row] for row in e.rref] == red
        if rows == cols:
            assert F(e.det, den**rows) == det
        else:
            assert e.det == 0

    def test_json_round_trip_of_every_shape(self):
        for rows in ([], [[], []], [[F(1, 2), F(-3)]], [[1, 2], [3, 4], [5, 6]]):
            m = RationalArray.of(rows, "m", (-1, -1))
            again = RationalArray.from_json(m.to_json(), "m")
            assert again.num.shape == m.num.shape and again.fractions() == m.fractions()

    @pytest.mark.parametrize("data, message", [
        ({"rows": 2, "cols": 1, "entries": ["1/1", "0/1", "5/1"]},
         "phi: entries has 3 values, not rows * cols = 2"),
        ({"rows": 2, "cols": 2, "entries": ["1/1"]}, "phi: entries has 1 values"),
        ({"rows": 0, "cols": 3, "entries": []}, "phi: cols is 3 over 0 rows"),
        ({"rows": True, "cols": 1, "entries": ["1/1"]}, "phi: rows is True"),
        ({"rows": "1", "cols": 1, "entries": ["1/1"]}, "phi: rows is '1'"),
        ({"rows": 1, "cols": 1.5, "entries": ["1/1"]}, "phi: cols is 1.5"),
        ({"rows": -1, "cols": -1, "entries": ["1/1"]}, "phi: rows is -1"),
    ])
    def test_from_json_rejects_another_shape(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RationalArray.from_json(data, "phi")


def _exact_sign(rows: list) -> int:
    """The sign of the determinant of the float matrix ``rows``, exactly."""
    det = gauss_jordan(rows, len(rows))[2]
    return (det > 0) - (det < 0)


_far_floats = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
)


class TestZeroSign:
    def test_identity_plus(self):
        assert zero_sign(np.eye(2)) == 1

    def test_reflection_minus(self):
        assert zero_sign(np.array([[1.0, 0.0], [0.0, -1.0]])) == -1

    def test_empty_jacobian_plus(self):
        assert zero_sign(np.zeros((0, 0))) == 1

    def test_random_matches_det(self):
        rng = random.Random(41)
        for _ in range(30):
            J = random_invertible(rng, rng.choice([1, 2, 3]))
            assert zero_sign(J / 3.0) == _exact_sign((J / 3.0).tolist())

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            zero_sign(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            zero_sign(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_block_multiplicative(self):
        rng = random.Random(43)
        for _ in range(20):
            A = random_invertible(rng, 2) / 2.0
            B = random_invertible(rng, 1) / 4.0
            rows = np.zeros((3, 3))
            rows[:2, :2], rows[2:, 2:] = A, B
            assert zero_sign(rows) == zero_sign(A) * zero_sign(B)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_far_floats, min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    @example([[1e300, 1e-300], [1e-300, 1e300]])
    @example([[1e300, 3e-300], [1e300, 3e-300]])
    @example([[1e-300, 0.0], [0.0, -1e-300]])
    def test_sign_of_the_exact_determinant(self, rows):
        """Far from 1 a float determinant over- or underflows; the exact
        one (``Fraction`` of each float) decides."""
        sign = _exact_sign(rows)
        if sign == 0:
            with pytest.raises(ValueError, match="singular"):
                zero_sign(np.array(rows))
        else:
            assert zero_sign(np.array(rows)) == sign


def test_every_public_name_has_a_caller_in_the_package():
    """Each name in ``vfc.exterior_engine.__all__`` is imported and used by
    another module of the package."""
    used: set = set()
    for path in pathlib.Path(vfc.__file__).parent.glob("*.py"):
        if path.name == "exterior_engine.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "exterior_engine"
            for alias in node.names
        }
        used |= {
            imported[node.id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in imported
        }
    assert sorted(set(exterior_engine.__all__) - used) == []
