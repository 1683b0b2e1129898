"""One doctored model per group-touching clause: each test asserts that its
clause fires, with its witness.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses
from fractions import Fraction

from vfc.charts_atlas import (
    FiniteGroup,
    GroupQuotientModel,
    check_chart,
    check_coordinate_change,
    check_group_covering,
    check_group_quotient,
    cyclic_group,
)
from vfc.examples_cli import ExampleDescriptor, build_example, build_toy_atlas
from vfc.exterior_engine import RationalMatrix
from vfc.expressions import num, var

F = Fraction


# ---------------------------------------------------------------------------
# constructors of the doctored models
# ---------------------------------------------------------------------------


def _toy2():
    """Γ_1 = Z_2 on {a, b}, Γ_2 = Z_3 on {b, c}; chart (1, 2) is the six
    points {b} × Z_2 × Z_3."""
    cover = {1: {"a", "b"}, 2: {"b", "c"}}
    return build_toy_atlas(cover, ["a", "b", "c"], {1: 2, 2: 3})


def _with_chart(atlas, I, **changes):
    chart = atlas.charts[I]
    return dataclasses.replace(
        atlas, charts={**atlas.charts, I: dataclasses.replace(chart, **changes)}
    )


def _with_change(atlas, I, J, **changes):
    change = atlas.changes[(I, J)]
    return dataclasses.replace(
        atlas,
        changes={**atlas.changes, (I, J): dataclasses.replace(change, **changes)},
    )


def _z2_on_4_points(perms=None, membership=None):
    perms = perms or [(0, 1, 2, 3), (1, 0, 3, 2)]
    return GroupQuotientModel(
        points=tuple((F(k),) for k in range(4)),
        group=cyclic_group(2),
        perms=perms,
        membership=membership,
    )


def group_without_inverse():
    """Z_2's table with g1·g1 = g1: g1 has no inverse."""
    table = cyclic_group(2).table.copy()
    table[1, 1] = 1
    return GroupQuotientModel(
        points=((F(0),),),
        group=FiniteGroup(("e", "g1"), table, 0),
        perms=[(0,), (0,)],
    )


def identity_moves_points():
    return _z2_on_4_points(perms=[(1, 0, 3, 2), (1, 0, 3, 2)])


def g1_not_a_permutation():
    return _z2_on_4_points(perms=[(0, 1, 2, 3), (0, 0, 2, 3)])


def samples_outside_membership():
    """The domain {x <= 0} holds sample 0 only."""
    return _z2_on_4_points(membership=["<=", var(0), num(0)])


def _sign_chart(action, grid=((F(0),), (F(1),), (F(-1),))):
    """Chart (1,) of a one-chart atlas: Z_2 on two points, E = R with the
    obstruction action ``action(sign)`` and the grid ``grid``."""
    atlas = build_toy_atlas({1: {"p"}}, ["p"], {1: 2})
    return _with_chart(
        atlas,
        (1,),
        obstruction_dim=1,
        obstruction_action=[RationalMatrix.from_rows([[F(a)]]) for a in action],
        obstruction_points=grid,
        section_samples=((F(0),), (F(0),)),
    )


def identity_acts_by_minus_one():
    return _sign_chart((-1, -1))


def g1_acts_by_two():
    """g1·g1 acts by 4, not by the identity's 1."""
    return _sign_chart((1, 2), grid=((F(0),),))


def grid_without_minus_one():
    return _sign_chart((1, -1), grid=((F(0),), (F(1),)))


def tilde_of_one_point():
    """Ũ of (1,) -> (1, 2) is the single sample 0, not a Γ_{12}-orbit."""
    atlas = _toy2()
    return _with_change(atlas, (1,), (1, 2), tilde_indices=(0,))


def fiber_of_four():
    """ρ sends sample 1 of chart (1, 2) to the other point of chart (1,)."""
    atlas = _toy2()
    rho = dict(atlas.changes[((1,), (1, 2))].rho_idx)
    first, other = rho[0], next(x for x in rho.values() if x != rho[0])
    rho[next(y for y, x in rho.items() if x == first and y != 0)] = other
    return _with_change(atlas, (1,), (1, 2), rho_idx=rho), first


def fibers_swapped():
    """Two samples of chart (1, 2) trade their ρ-images: the fibers keep
    their size but are no kernel orbits."""
    atlas = _toy2()
    rho = dict(atlas.changes[((1,), (1, 2))].rho_idx)
    a = next(y for y in sorted(rho) if y != 0 and rho[y] == rho[0])
    b = next(y for y in sorted(rho) if rho[y] != rho[0])
    rho[a], rho[b] = rho[b], rho[a]
    return _with_change(atlas, (1,), (1, 2), rho_idx=rho), min(rho[a], rho[b])


def basic_chart_acting_trivially():
    """Γ_1 acts trivially on chart (1,), so its stabilizers are all of Z_2,
    while the stabilizers of chart (1, 2) are trivial."""
    atlas = _toy2()
    domain = atlas.charts[(1,)].domain
    ident = domain.perms[0]
    return _with_chart(
        atlas,
        (1,),
        domain=dataclasses.replace(domain, perms=[ident, ident]),
    )


def football_with_trivial_obstruction_action():
    """football-euler at density 8 with Γ_1 acting trivially on E_1: φ̂ of
    (1,) -> (1, 2) stops being equivariant at g1|e."""
    atlas = build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas
    ident = atlas.charts[(1,)].obstruction_action.fractions()[0]
    return _with_chart(atlas, (1,), obstruction_action=[ident, ident])


# ---------------------------------------------------------------------------
# the clauses
# ---------------------------------------------------------------------------


def _failure(rep, clause):
    found = [f for f in rep.failures if f["clause"] == clause]
    assert found, rep.failures
    return found[0]


def test_no_inverse():
    rep = check_group_quotient(group_without_inverse())
    assert _failure(rep, "no_inverse")["element"] == "g1"


def test_identity_not_trivial():
    rep = check_group_quotient(identity_moves_points())
    _failure(rep, "identity_not_trivial")


def test_not_a_permutation():
    rep = check_group_quotient(g1_not_a_permutation())
    assert _failure(rep, "not_a_permutation")["element"] == "g1"


def test_sample_outside_domain():
    rep = check_group_quotient(samples_outside_membership())
    assert _failure(rep, "sample_outside_domain")["point"] == 1


def test_obstruction_identity_action():
    rep = check_chart(identity_acts_by_minus_one(), (1,))
    _failure(rep, "obstruction_identity_action")


def test_obstruction_action_law():
    rep = check_chart(g1_acts_by_two(), (1,))
    assert _failure(rep, "obstruction_action_law")["pair"] == ("g1", "g1")


def test_obstruction_grid_not_stable():
    rep = check_chart(grid_without_minus_one(), (1,))
    failure = _failure(rep, "obstruction_grid_not_stable")
    assert failure["element"] == "g1"
    assert failure["vector"] == (F(1),)


def test_tilde_not_invariant():
    rep = check_group_covering(tilde_of_one_point(), (1,), (1, 2))
    assert _failure(rep, "tilde_not_invariant")["element"] == "e|g1"


def test_fiber_size():
    atlas, x = fiber_of_four()
    rep = check_group_covering(atlas, (1,), (1, 2))
    failure = _failure(rep, "fiber_size")
    assert (failure["source_point"], failure["size"]) == (x, 2)


def test_fiber_not_kernel_orbit():
    atlas, x = fibers_swapped()
    rep = check_group_covering(atlas, (1,), (1, 2))
    assert _failure(rep, "fiber_not_kernel_orbit")["source_point"] == x


def test_stabilizer_not_isomorphic():
    rep = check_group_covering(basic_chart_acting_trivially(), (1,), (1, 2))
    assert _failure(rep, "stabilizer_not_isomorphic")["point"] == 0


def test_rho_not_equivariant():
    rep = check_coordinate_change(basic_chart_acting_trivially(), (1,), (1, 2))
    failure = _failure(rep, "rho_not_equivariant")
    assert (failure["element"], failure["point"]) == ("g1|e", 0)


def test_phi_hat_not_equivariant():
    atlas = football_with_trivial_obstruction_action()
    rep = check_coordinate_change(atlas, (1,), (1, 2))
    assert _failure(rep, "phi_hat_not_equivariant")["element"] == "g1|e"
