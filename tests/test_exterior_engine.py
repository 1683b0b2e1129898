"""Oracle-first tests for exact rational matrices and zero signs."""

import ast
import pathlib
import random
import re
from fractions import Fraction

import pytest

import vfc
from vfc import exterior_engine
from vfc.exterior_engine import (
    ExteriorError,
    RationalMatrix,
    parse_rat,
    rat_str,
    zero_sign,
)

F = Fraction
I2 = RationalMatrix.identity(2)


def M(rows):
    return RationalMatrix.from_rows(rows)


def random_invertible(rng: random.Random, n: int) -> RationalMatrix:
    """A random invertible n x n matrix of small rationals."""
    while True:
        m = M(
            [
                [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if m.det() != 0:
            return m


class TestRationalMatrix:
    def test_rat_roundtrip(self):
        assert rat_str(F(5, 6)) == "5/6"
        assert rat_str(2) == "2/1"
        assert parse_rat("5/6") == F(5, 6)

    def test_det_oracle(self):
        assert M([[1, 2], [3, 4]]).det() == -2
        assert M([[2, 0], [0, 3]]).det() == 6
        assert RationalMatrix.identity(0).det() == 1

    def test_rref_tracks_det(self):
        rng = random.Random(7)
        for _ in range(25):
            A = random_invertible(rng, 3)
            red, pivots, t = A.rref()
            assert red == RationalMatrix.identity(3)
            assert t == 1 / A.det()


    def test_json_round_trip_of_every_shape(self):
        for rows in ([], [[], []], [[F(1, 2), F(-3)]], [[1, 2], [3, 4], [5, 6]]):
            m = M(rows)
            assert RationalMatrix.from_json(m.to_json()) == m

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
            RationalMatrix.from_json(data, "phi")


class TestZeroSign:
    def test_identity_plus(self):
        assert zero_sign(I2) == 1

    def test_reflection_minus(self):
        assert zero_sign(M([[1, 0], [0, -1]])) == -1

    def test_random_matches_det(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.choice([1, 2, 3])
            J = random_invertible(rng, n)
            assert zero_sign(J) == (1 if J.det() > 0 else -1)

    def test_singular_rejected(self):
        with pytest.raises(ExteriorError):
            zero_sign(M([[1, 1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ExteriorError):
            zero_sign(M([[1, 0, 0], [0, 1, 0]]))

    def test_block_multiplicative(self):
        rng = random.Random(43)
        for _ in range(20):
            A = random_invertible(rng, 2)
            B = random_invertible(rng, 1)
            rows = [
                [A.entries[0][0], A.entries[0][1], 0],
                [A.entries[1][0], A.entries[1][1], 0],
                [0, 0, B.entries[0][0]],
            ]
            assert zero_sign(M(rows)) == zero_sign(A) * zero_sign(B)


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
