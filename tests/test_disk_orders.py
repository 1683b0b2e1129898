"""The disks of the two-disk model, derived from one integer generator per
cyclic order, and the model over every pair of those orders.

By the crystallographic restriction a cyclic group acts exactly on a
rational plane only for the orders 1, 2, 3, 4 and 6.  Each disk reads its
generator from ``GENERATORS`` and derives its powers, its invariant form,
its frame, its obstruction grid and its norm rows; the checks here compute
what each must satisfy from the generator alone.  The model glues two
disks whose orders are coprime; its weighted zero count is then
1/p + 1/q (a zero at each disk centre, of weight 1/|Γ_i|), and with
E = 0 every point of the 3N ring footprints adds weight 1.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from vfc import examples_cli
from vfc.examples_cli import GENERATORS, ExampleDescriptor, _Pole, _two_disk_model, run_example

ORDERS = (1, 2, 3, 4, 6)
PAIRS = list(itertools.product(ORDERS, repeat=2))
COPRIME = [(p, q) for p, q in PAIRS if math.gcd(p, q) == 1]
SHARED = [(p, q) for p, q in PAIRS if math.gcd(p, q) != 1]


def _pole(n: int) -> _Pole:
    return _Pole(index=(1,), n=n, radius=lambda t: 1.0 + t, orient=1, centre="c",
                 centre_band=0, N=8)


def _points(rows) -> list:
    return [tuple(r) for r in np.asarray(rows).tolist()]


def test_the_table_holds_the_crystallographic_orders():
    assert sorted(GENERATORS) == list(ORDERS)
    assert len(COPRIME) == 13 and len(SHARED) == 12


@pytest.mark.parametrize("n", ORDERS)
def test_each_disk_is_derived_from_its_generator(n):
    pole = _pole(n)
    gen = np.array(GENERATORS[n])
    identity = np.eye(2, dtype=int)
    powers = [np.linalg.matrix_power(gen, s) for s in range(n)]
    # the generator has exact order n, and the disk acts by its powers
    assert (np.linalg.matrix_power(gen, n) == identity).all()
    assert not any((g == identity).all() for g in powers[1:])
    assert (pole.powers == np.array(powers)).all() and pole.group.order == n
    # Q is Γ-invariant, exactly
    Q = pole.Q
    assert all((g.T @ Q @ g == Q).all() for g in powers)
    # the grid: the origin and ±e₁, without repeats, Γ-stable
    grid = _points(pole.grid)
    assert len(set(grid)) == len(grid)
    assert {(0, 0), (1, 0), (-1, 0)} <= set(grid)
    assert all(set(_points(pole.grid @ g.T)) == set(grid) for g in powers)
    # the norm max_k |r_k·e| is Γ-invariant on the grid
    def norm(points):
        return np.abs(points @ pole.norm_rows.T).max(axis=1)
    assert all((norm(pole.grid @ g.T) == norm(pole.grid)).all() for g in powers)
    # the frame makes Q a multiple of the identity, and γ the turn by 2π/n
    P = np.array(pole.frame)
    assert np.abs(P.T @ Q @ P - Q[0, 0] * np.eye(2)).max() <= 1e-15
    c, s = math.cos(2 * math.pi / n), math.sin(2 * math.pi / n)
    assert np.abs(np.linalg.solve(P, gen @ P) - [[c, -s], [s, c]]).max() <= 1e-15


@pytest.mark.parametrize("euler", [True, False], ids=["euler", "bare"])
@pytest.mark.parametrize("p,q", COPRIME)
def test_every_coprime_pair_passes_with_the_oracle_total(monkeypatch, p, q, euler):
    N = 12
    built = _two_disk_model(p, q, N, euler=euler)
    monkeypatch.setattr(examples_cli, "build_example", lambda descriptor: built)
    report, code = run_example(ExampleDescriptor("two-disk"))
    assert code == 0, [st for st in report["stages"] if not st["ok"]]
    total = Fraction(1, p) + Fraction(1, q) + (0 if euler else 3 * N)
    assert Fraction(report["total"]) == total


@pytest.mark.parametrize("p,q", SHARED + [(5, 1), (1, 7)])
def test_other_pairs_raise_value_error_naming_the_orders(p, q):
    with pytest.raises(ValueError, match=rf"isotropy orders \({p}, {q}\)"):
        _two_disk_model(p, q, 12, euler=True)
