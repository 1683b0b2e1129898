"""One doctored model per group-touching clause: each test asserts that its
clause fires, with its witness.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np

from vfc.charts_atlas import (
    CheckReport,
    FiniteGroup,
    GroupQuotientModel,
    check_chart,
    check_coordinate_change,
    check_group_covering,
    check_group_quotient,
    cyclic_group,
)
from vfc.examples_cli import ExampleDescriptor, build_example, build_toy_atlas, random_toy_atlas
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
        obstruction_action=[[[F(a)]] for a in action],
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


def sample_over_a():
    """ρ sends sample 0 of chart (1, 2), over b, to sample 0 of chart (1,),
    over a: the one class of chart (1, 2) meets two classes of chart (1,)."""
    atlas = _toy2()
    rho = {**atlas.changes[((1,), (1, 2))].rho_idx, 0: 0}
    return _with_change(atlas, (1,), (1, 2), rho_idx=rho)


def c_sent_over_b():
    """Chart (1, 2) over {b, c}: ρ sends each sample over c where it sends
    the sample over b with the same group element, so both classes of
    chart (1, 2) map to the class over b."""
    atlas = build_toy_atlas({1: {"a", "b", "c"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 2, 2: 3})
    rho = dict(atlas.changes[((1,), (1, 2))].rho_idx)
    rho.update({y + 6: rho[y] for y in range(6)})
    return _with_change(atlas, (1,), (1, 2), rho_idx=rho)


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


def test_quotient_map_not_well_defined():
    assert check_group_covering(sample_over_a(), (1,), (1, 2)).failures == [
        {"clause": "fiber_size", "source_point": 0, "size": 1},
        {"clause": "fiber_size", "source_point": 2, "size": 2},
        {"clause": "quotient_map_not_well_defined", "target_class": 0},
    ]


def test_quotient_map_not_injective():
    assert check_group_covering(c_sent_over_b(), (1,), (1, 2)).failures == [
        {"clause": "fiber_size", "source_point": 2, "size": 6},
        {"clause": "fiber_size", "source_point": 3, "size": 6},
        {"clause": "quotient_map_not_injective"},
    ]


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


# ---------------------------------------------------------------------------
# the covering check against a walk over Ũ_IJ
# ---------------------------------------------------------------------------


def _walked_covering(atlas, I, J):
    """``check_group_covering`` as a walk over the samples of Ũ_IJ, one
    stabilizer and one set per sample: the reference for its arrays."""
    src, tgt = atlas.charts[I], atlas.charts[J]
    rep = CheckReport(f"group_covering {I}->{J}")
    change = atlas.changes[(I, J)]
    tilde = list(change.tilde_indices)
    n_I, n_J = len(src.domain.points), len(tgt.domain.points)
    for y in tilde:
        if not (0 <= y < n_J and 0 <= change.rho_idx[y] < n_I):
            rep.fail("sample_outside_chart", pair=(I, J), point=y)
            return rep
    names, perms = tgt.group.elements, tgt.domain.perms
    moved_out = np.flatnonzero(~np.isin(perms[:, tilde], tilde).all(axis=1))
    if moved_out.size:
        rep.fail("tilde_not_invariant", element=names[moved_out[0]])
    kernel = atlas.kernel(I, J)
    rep.details["kernel_order"] = len(kernel)
    for g, fixed in zip(kernel.tolist(), perms[kernel][:, tilde] == tilde):
        if g != tgt.group.identity and fixed.any():
            rep.fail("kernel_action_not_free", element=names[g], point=tilde[fixed.argmax()])
    fibers: dict = {}
    for y in tilde:
        fibers.setdefault(change.rho_idx[y], set()).add(y)
    for x, fib in fibers.items():
        if len(fib) != len(kernel):
            rep.fail("fiber_size", source_point=x, size=len(fib))
        elif set(perms[kernel, next(iter(fib))].tolist()) != fib:
            rep.fail("fiber_not_kernel_orbit", source_point=x)
    cls_J, cls_I = tgt.domain.class_index_of(), src.domain.class_index_of()
    quot: dict = {}
    for y in tilde:
        quot.setdefault(cls_J[y], set()).add(cls_I[change.rho_idx[y]])
    images = []
    for cj, cis in quot.items():
        if len(cis) != 1:
            rep.fail("quotient_map_not_well_defined", target_class=cj)
        images.extend(cis)
    if len(images) != len(set(images)):
        rep.fail("quotient_map_not_injective")
    proj = atlas.projection[(I, J)]
    for y in tilde:
        x = change.rho_idx[y]
        mapped = proj[np.flatnonzero(perms[:, y] == y)].tolist()
        stab_I = np.flatnonzero(src.domain.perms[:, x] == x).tolist()
        if len(set(mapped)) != len(mapped) or set(mapped) != set(stab_I):
            rep.fail("stabilizer_not_isomorphic", point=y)
    return rep


def _doctored_covering(seed):
    """A random toy atlas and one of its changes I -> J, with ρ, Ũ_IJ and
    the actions of both charts doctored at random: some ρ values moved
    (rarely out of range), Ũ_IJ cut, shuffled or repeated, and a row of
    either action replaced by a random map."""
    rng = random.Random(seed)
    atlas = next(a for a in map(random_toy_atlas, range(seed % 40, 99)) if a.changes)
    (I, J), change = rng.choice(sorted(atlas.changes.items()))
    n_I, n_J = len(atlas.charts[I].domain.points), len(atlas.charts[J].domain.points)
    rho = dict(change.rho_idx)
    for y in rng.sample(sorted(rho), min(len(rho), rng.randint(0, 3))):
        rho[y] = rng.choice([rng.randrange(n_I)] * 9 + [-1, n_I])
    tilde = list(change.tilde_indices)
    if rng.random() < 0.5:
        tilde = rng.sample(tilde, rng.randint(0, len(tilde)))
    if rng.random() < 0.2:
        tilde += rng.sample(tilde, min(2, len(tilde)))
    atlas = _with_change(atlas, I, J, rho_idx=rho, tilde_indices=tuple(tilde))
    for K, n in ((I, n_I), (J, n_J)):
        domain = atlas.charts[K].domain
        if rng.random() < 0.3 and domain.group.order > 1:
            perms = domain.perms.copy()
            perms[rng.randrange(1, len(perms))] = [rng.randrange(n) for _ in range(n)]
            atlas = _with_chart(atlas, K, domain=dataclasses.replace(domain, perms=perms))
    return atlas, I, J


def _outcome(check, atlas, I, J):
    try:
        rep = check(atlas, I, J)
    except (KeyError, IndexError) as ex:
        return type(ex), ex.args
    return rep.failures, rep.details


def test_covering_arrays_report_what_the_walk_reports():
    clauses = set()
    for seed in range(400):
        atlas, I, J = _doctored_covering(seed)
        want = _outcome(_walked_covering, atlas, I, J)
        assert _outcome(check_group_covering, atlas, I, J) == want, seed
        if isinstance(want[0], list):
            clauses |= {f["clause"] for f in want[0]}
    assert {"fiber_size", "fiber_not_kernel_orbit", "quotient_map_not_well_defined",
            "quotient_map_not_injective", "stabilizer_not_isomorphic"} <= clauses


def _walked_equivariance(atlas, I, J):
    """The ``rho_not_equivariant`` failures of ``check_coordinate_change``
    as the double loop over Γ_J and Ũ_IJ, stopping at the first failing
    sample per element, after the covering walk: the reference for its
    array comparison."""
    covering = _walked_covering(atlas, I, J)  # raises where the covering check raises
    if any(f["clause"] == "sample_outside_chart" for f in covering.failures):
        return []  # the covering walk reports it, and nothing more is read
    src, tgt, change = atlas.charts[I], atlas.charts[J], atlas.changes[(I, J)]
    rho, failures = change.rho_idx, []
    pairs = zip(tgt.domain.perms.tolist(), src.domain.perms[atlas.projection[(I, J)]].tolist())
    for g, (perm, perm_I) in enumerate(pairs):
        for y in change.tilde_indices:
            if rho[perm[y]] != perm_I[rho[y]]:
                failures.append({"clause": "rho_not_equivariant",
                                 "element": tgt.group.elements[g], "point": y})
                break
    return failures


def test_rho_equivariance_array_reports_what_the_loop_reports():
    clauses = 0
    for seed in range(400):
        atlas, I, J = _doctored_covering(seed)
        try:
            want = _walked_equivariance(atlas, I, J)
        except (KeyError, IndexError) as ex:
            want = type(ex), ex.args
        try:
            rep = check_coordinate_change(atlas, I, J)
            got = [f for f in rep.failures if f["clause"] == "rho_not_equivariant"]
        except (KeyError, IndexError) as ex:
            got = type(ex), ex.args
        assert got == want, seed
        clauses += isinstance(want, list) and bool(want)
    assert clauses > 50
