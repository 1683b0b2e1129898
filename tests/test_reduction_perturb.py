import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from test_charts_atlas import build_toy_atlas, random_toy_atlas

from vfc.charts_atlas import (
    RationalArray,
    AtlasModel,
    ChartModel,
    CheckReport,
    CoordinateChangeModel,
    FiniteCategory,
    GroupQuotientModel,
    Labels,
    PairIndex,
    _flat,
    _ints,
    _runs,
    _where,
    check_category,
    cyclic_group,
    product_group,
    trivial_group,
)
from vfc.expressions import num, var
from vfc.reduction_perturb import (
    AdaptednessConstants,
    EquivariantNorms,
    Perturbation,
    Reduction,
    _Rows,
    _small,
    _sums,
    _tilde,
    build_pruned_category,
    check_adapted,
    check_perturbation,
    check_reduction,
    closure_of,
    compute_adaptedness_constants,
    epsilon_closure_radius,
    norms_from_json,
    norms_to_json,
    perturbation_from_json,
    perturbation_to_json,
    reduction_from_json,
    reduction_to_json,
    v_tilde,
)

F = Fraction


def clauses(report):
    return {f["clause"] for f in report.failures}


# ---------------------------------------------------------------------------
# reductions of toy atlases
# ---------------------------------------------------------------------------


def toy_reduction(atlas: AtlasModel) -> Reduction:
    """Canonical reduction: V_I = points over {x : index set of x == I}."""
    sets = {}
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        keep = set()
        for k, x in chart.footprint_map.items():
            idx = tuple(sorted(i for i, s in atlas.cover.items() if x in s))
            if idx == I:
                keep.add(k)
        sets[I] = frozenset(keep)
    return Reduction(sets=sets)


def full_reduction(atlas: AtlasModel) -> Reduction:
    return Reduction(
        sets={
            I: frozenset(range(len(atlas.charts[I].domain.points)))
            for I in atlas.index_sets()
        }
    )


@pytest.fixture
def toy3():
    cover = {1: {"a", "b", "c"}, 2: {"b", "c", "d"}, 3: {"c", "d", "e"}}
    return build_toy_atlas(cover, ["a", "b", "c", "d", "e"], {1: 2, 2: 3, 3: 1})


@pytest.fixture
def toy2():
    cover = {1: {"a", "b"}, 2: {"b", "c"}}
    return build_toy_atlas(cover, ["a", "b", "c"], {1: 2, 2: 3})


class TestCheckReduction:
    def test_toy_canonical_passes(self, toy3):
        assert check_reduction(toy3, toy_reduction(toy3)).ok

    def test_random_toys_pass(self):
        for seed in range(5):
            atlas = random_toy_atlas(seed)
            assert check_reduction(atlas, toy_reduction(atlas)).ok

    def test_missing_set(self, toy2):
        red = toy_reduction(toy2)
        del red.sets[(1,)]
        assert "missing_set" in clauses(check_reduction(toy2, red))

    def test_not_invariant(self, toy2):
        red = toy_reduction(toy2)
        # drop one point of a free Γ-orbit from V_(1,)
        broken = dict(red.sets)
        v = sorted(broken[(1,)])
        broken[(1,)] = frozenset(v[:-1])
        rep = check_reduction(toy2, Reduction(sets=broken))
        assert rep.failures == [{"clause": "not_invariant", "index": (1,), "element": "g1"}]

    def test_closure_overlap_not_nested(self, toy2):
        # put the shared label "b" into both basic reductions
        red = toy_reduction(toy2)
        sets = dict(red.sets)
        for I in [(1,), (2,)]:
            chart = toy2.charts[I]
            extra = {k for k, x in chart.footprint_map.items() if x == "b"}
            sets[I] = sets[I] | extra
        rep = check_reduction(toy2, Reduction(sets=sets))
        assert rep.failures == [{"clause": "closure_overlap_not_nested", "pair": ((1,), (2,))}]

    def test_zero_set_coverage_failure(self, toy2):
        red = toy_reduction(toy2)
        sets = dict(red.sets)
        sets[(1, 2)] = frozenset()  # "b" now uncovered
        rep = check_reduction(toy2, Reduction(sets=sets))
        assert "zero_set_not_covered" in clauses(rep)

    def test_predicate_mismatch(self, toy2):
        red = toy_reduction(toy2)
        red.preds[(1,)] = ["false"]
        assert "predicate_mismatch" in clauses(check_reduction(toy2, red))

    def test_partial_isotropy_not_free(self):
        atlas = _fixed_point_atlas()
        red = full_reduction(atlas)
        rep = check_reduction(atlas, red)
        assert rep.failures == [
            {"clause": "partial_isotropy_not_free", "pair": ((1,), (1, 2)), "element": "e|g1"},
            {"clause": "missing_change", "pair": ((2,), (1, 2))},
        ]


def _basic_chart(chart12: ChartModel, i: int) -> ChartModel:
    """Chart (i,) with Γ_i = Z_2, the factor of Γ_12 = 1 × Z_2, on the
    samples of ``chart12`` and with E_i = 0: the basic chart that the
    product group of chart (1, 2) is made of."""
    n = len(chart12.domain.points)
    return dataclasses.replace(
        chart12,
        index=(i,),
        domain=dataclasses.replace(chart12.domain, group=cyclic_group(2)),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),) * n,
    )


def _fixed_point_atlas() -> AtlasModel:
    """Γ_{(1,2)∖(1,)} = Z2 acting trivially: the kernel has a fixed point."""
    g1 = trivial_group()
    chart1 = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=((F(0),),), group=g1, perms=[(0,)]),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),),
        footprint_map={0: "a"},
    )
    g12 = product_group([trivial_group(), cyclic_group(2)])
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(
            points=((F(0),),),
            group=g12,
            perms=[(0,), (0,)],
        ),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),),
        footprint_map={0: "a"},
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=(0,),
        rho_idx={0: 0},
        phi_hat=(),
    )
    return AtlasModel(
        x_labels=("a",),
        cover={1: frozenset({"a"}), 2: frozenset({"a"})},
        charts={(1,): chart1, (2,): _basic_chart(chart12, 2), (1, 2): chart12},
        changes={((1,), (1, 2)): change},
    )


# ---------------------------------------------------------------------------
# derived sets: two computations of Ṽ, and the overlap identity
# ---------------------------------------------------------------------------


def v_tilde_via_projection(atlas: AtlasModel, red: Reduction, I: tuple, J: tuple) -> frozenset:
    """Ṽ_IJ computed as V_J ∩ π_K⁻¹(π_K(V_I)) via the realization."""
    if I == J:
        return frozenset(red.sets[I])
    inter = atlas.intermediate_classes()
    target_classes = set(inter[atlas.sample_rows(I)[sorted(red.sets[I])]].tolist())
    rows_J = atlas.sample_rows(J)
    return frozenset(y for y in red.sets[J] if inter[rows_J[y]] in target_classes)


def hij_identity_holds(atlas: AtlasModel, red: Reduction, F: tuple, I: tuple, J: tuple) -> bool:
    """V_J ∩ ρ_IJ⁻¹(Ṽ_FI) = Ṽ_IJ ∩ Ṽ_FJ for F ⊂ I ⊂ J."""
    change, vt_FI = atlas.changes[(I, J)], v_tilde(atlas, red, F, I)
    lhs = frozenset(
        y for y in change.tilde_indices if y in red.sets[J] and change.rho_idx[y] in vt_FI
    )
    return lhs == v_tilde(atlas, red, I, J) & v_tilde(atlas, red, F, J)


class TestDerivedSets:
    @pytest.mark.parametrize("builder", [toy_reduction, full_reduction])
    def test_v_tilde_two_ways(self, toy3, builder):
        red = builder(toy3)
        for (I, J) in toy3.changes:
            assert v_tilde(toy3, red, I, J) == v_tilde_via_projection(
                toy3, red, I, J
            )

    def test_v_tilde_two_ways_random(self):
        for seed in range(5):
            atlas = random_toy_atlas(100 + seed)
            for red in (toy_reduction(atlas), full_reduction(atlas)):
                for (I, J) in atlas.changes:
                    assert v_tilde(atlas, red, I, J) == v_tilde_via_projection(
                        atlas, red, I, J
                    )

    @pytest.mark.parametrize("builder", [toy_reduction, full_reduction])
    def test_overlap_identity(self, toy3, builder):
        red = builder(toy3)
        indices = toy3.index_sets()
        triples = [
            (Fi, Ii, Ji)
            for Fi in indices
            for Ii in indices
            for Ji in indices
            if set(Fi) < set(Ii) < set(Ji)
            and (Ii, Ji) in toy3.changes
            and (Fi, Ii) in toy3.changes
        ]
        assert triples
        for (Fi, Ii, Ji) in triples:
            assert hij_identity_holds(toy3, red, Fi, Ii, Ji)


# ---------------------------------------------------------------------------
# pruned category
# ---------------------------------------------------------------------------


def pruned_category_oracle(atlas: AtlasModel, red: Reduction):
    """The pruned category built as a ``FiniteCategory`` and its report
    (``composition_escapes``, then ``check_category``'s first failing axiom):
    the reference for ``build_pruned_category``, which checks the chain facts
    only.  Objects (I, x) and morphisms (I, J, y) are numbered by index
    order and then by sample; "(I, J, y) then (J, K, z)" is (I, K, z)."""
    rep = CheckReport("pruned_category")
    indices = atlas.index_sets()
    blocks = _ints([(i, j) for i, I in enumerate(indices) for j, J in enumerate(indices)
                    if set(I) <= set(J) and (I == J or (I, J) in atlas.changes)]).reshape(-1, 2)
    tildes = [_tilde(atlas, red, indices[i], indices[j]) for i, j in blocks.tolist()]
    (ys, start), (xs, _) = _flat(t[0] for t in tildes), _flat(t[1] for t in tildes)
    block, _ = _runs(np.diff(start))
    I, J = blocks[block].T
    place = np.full((len(blocks), int(ys.max(initial=-1)) + 1), -1)
    place[block, ys] = np.arange(len(ys))
    block_of = np.full((len(indices),) * 2, -1, dtype=np.int64)
    block_of[blocks[:, 0], blocks[:, 1]] = np.arange(len(blocks))
    identity = _where(I == J)
    number = np.full(len(ys) + 1, -1, dtype=np.int64)
    number[identity] = np.arange(len(identity))
    src, tgt = number[place[block_of[I, I], xs]], number[place[block_of[J, J], ys]]
    pairs = PairIndex.of(len(identity), src, tgt)
    f, g = pairs.f, pairs.g
    k = block_of[I[f], J[g]]
    comp = np.where(k >= 0, place[k, ys[g]], -1)
    morphisms = Labels(len(ys), lambda: zip(
        [indices[i] for i in I.tolist()], [indices[j] for j in J.tolist()], ys.tolist()))
    objects = Labels(len(identity), lambda: (
        (morphisms[m][0], morphisms[m][2]) for m in identity.tolist()))
    for p in _where(comp < 0).tolist():
        rep.fail("composition_escapes", pair=(morphisms[f[p]], morphisms[g[p]]),
                 result=(indices[I[f[p]]], indices[J[g[p]]], int(ys[g[p]])))
    cat = FiniteCategory(objects, morphisms, src, tgt, identity, pairs, comp)
    rep.merge(check_category(cat))
    return cat, rep


def doctored_pruned_case(seed: int):
    """A random toy atlas with Ũ_IJ entries dropped and ρ_IJ values moved,
    and a random reduction of it: each change drops a sample of Ũ_IJ with
    probability 1/3 and moves a ρ_IJ value with probability 1/2, and V_I
    keeps each sample with probability 3/4."""
    rng = random.Random(seed)
    atlas = random_toy_atlas(rng.randrange(1000))
    changes = {}
    for (I, J), change in atlas.changes.items():
        tilde, rho = list(change.tilde_indices), dict(change.rho_idx)
        if tilde and rng.random() < 1 / 3:
            tilde.remove(rng.choice(tilde))
        if tilde and rng.random() < 1 / 2:
            rho[rng.choice(tilde)] = rng.randrange(len(atlas.charts[I].domain.points))
        changes[(I, J)] = dataclasses.replace(change, tilde_indices=tuple(tilde), rho_idx=rho)
    atlas = dataclasses.replace(atlas, changes=changes)
    sets = {I: frozenset(x for x in range(len(atlas.charts[I].domain.points))
                         if rng.random() < 3 / 4)
            for I in atlas.index_sets()}
    return atlas, Reduction(sets=sets)


class TestPrunedCategory:
    """``build_pruned_category`` checks the chain facts; the sizes and
    laws of the category are read off the oracle, which builds it."""

    def test_canonical_reduction_is_discrete(self, toy3):
        red = toy_reduction(toy3)
        assert build_pruned_category(toy3, red).ok
        cat, report = pruned_category_oracle(toy3, red)
        assert report.ok
        # canonical toy reductions have no cross-chart overlaps
        assert len(cat.morphisms) == len(cat.objects)

    def test_full_reduction_counts(self, toy2):
        red = full_reduction(toy2)
        assert build_pruned_category(toy2, red).ok
        cat, report = pruned_category_oracle(toy2, red)
        assert report.ok
        expected_obj = sum(len(red.sets[I]) for I in toy2.index_sets())
        assert len(cat.objects) == expected_obj
        expected_mor = sum(
            len(v_tilde(toy2, red, I, J))
            for I in toy2.index_sets()
            for J in toy2.index_sets()
            if I == J or (I, J) in toy2.changes
        )
        assert len(cat.morphisms) == expected_mor

    def test_nonsingular(self, toy3):
        assert build_pruned_category(toy3, full_reduction(toy3)).ok
        cat, report = pruned_category_oracle(toy3, full_reduction(toy3))
        assert report.ok
        pairs = {(cat.source[m], cat.target[m]) for m in cat.morphisms}
        assert len(pairs) == len(cat.morphisms)

    def test_random_toys(self):
        for seed in range(5):
            atlas = random_toy_atlas(200 + seed)
            assert build_pruned_category(atlas, full_reduction(atlas)).ok

    def test_composition_escape_detected(self, toy3):
        # remove one point from the (1,) -> (1,2,3) overlap so that the
        # composite of a (1)->(12) and (12)->(123) morphism has nowhere to go
        key = ((1,), (1, 2, 3))
        change = toy3.changes[key]
        victim = change.tilde_indices[0]
        tampered = dataclasses.replace(
            change,
            tilde_indices=tuple(y for y in change.tilde_indices if y != victim),
        )
        changes = dict(toy3.changes)
        changes[key] = tampered
        atlas = dataclasses.replace(toy3, changes=changes)
        report = build_pruned_category(atlas, full_reduction(atlas))
        escaped = ((1,), (1, 2, 3), 0)
        assert report.failures == [
            {"clause": "composition_escapes",
             "pair": (((1,), (1, 2), 6), ((1, 2), (1, 2, 3), 0)), "result": escaped},
            {"clause": "composition_escapes",
             "pair": (((1,), (1, 3), 0), ((1, 3), (1, 2, 3), 0)), "result": escaped},
            {"clause": "composable_pair_undefined", "from": "category_axioms",
             "pair": (((1,), (1, 2), 6), ((1, 2), (1, 2, 3), 0))},
        ]

    def test_matches_the_oracle_on_doctored_atlases(self):
        """Random toy atlases with Ũ_IJ entries dropped and ρ_IJ values
        moved, under random reductions: the same failure lists as the
        oracle's, both category axioms among them."""
        begin, axioms = time.perf_counter(), set()
        for seed in range(240):
            atlas, red = doctored_pruned_case(seed)
            report = build_pruned_category(atlas, red)
            assert report.failures == pruned_category_oracle(atlas, red)[1].failures, seed
            axioms |= {f["clause"] for f in report.failures if "from" in f}
        assert axioms == {"compose_endpoints", "composable_pair_undefined"}
        assert time.perf_counter() - begin < 2

    def test_a_moved_rho_value_breaks_the_composite_endpoints(self, toy3):
        """ρ_IK(z) ≠ ρ_IJ(ρ_JK(z)) on the chain (1,) ⊊ (1, 2) ⊊ (1, 2, 3): the
        composite (I, K, z) starts elsewhere than the pair does."""
        key = ((1,), (1, 2, 3))
        change = toy3.changes[key]
        z = change.tilde_indices[0]
        rho = {**change.rho_idx, z: (change.rho_idx[z] + 1) % len(toy3.charts[(1,)].domain.points)}
        changes = {**toy3.changes, key: dataclasses.replace(change, rho_idx=rho)}
        atlas = dataclasses.replace(toy3, changes=changes)
        report = build_pruned_category(atlas, full_reduction(atlas))
        assert report.failures == pruned_category_oracle(atlas, full_reduction(atlas))[1].failures
        assert report.failures == [
            {"clause": "compose_endpoints", "from": "category_axioms",
             "pair": (((1,), (1, 2), 6), ((1, 2), (1, 2, 3), 0))},
        ]


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------


def _collar_atlas(m12: int, phi_entries, tangent: bool = False) -> AtlasModel:
    """One basic chart with E of dim 1 sitting inside a two-point sum chart."""
    g1 = trivial_group()
    chart1 = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=((F(0),),), group=g1, perms=[(0,)]),
        obstruction_dim=1,
        obstruction_action=[[[1]]],
        obstruction_points=((F(0),), (F(1),)),
        section_samples=((F(0),),),
        footprint_map={0: "a"},
    )
    g12 = product_group([trivial_group(), cyclic_group(2)])
    zero12 = tuple(F(0) for _ in range(m12))
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(
            points=((F(0),), (F(1),)),
            group=g12,
            perms=[(0, 1), (1, 0)],
        ),
        obstruction_dim=m12,
        obstruction_action=[
            np.eye(m12, dtype=int),
            np.eye(m12, dtype=int),
        ],
        obstruction_points=(zero12,),
        section_samples=(zero12, zero12),
        footprint_map={0: "a", 1: "a"},
        tangent_dims=(0,) if tangent else (),
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=(0, 1),
        rho_idx={0: 0, 1: 0},
        phi_hat=phi_entries,
    )
    return AtlasModel(
        x_labels=("a",),
        cover={1: frozenset({"a"}), 2: frozenset({"a"})},
        charts={(1,): chart1, (2,): _basic_chart(chart12, 2), (1, 2): chart12},
        changes={((1,), (1, 2)): change},
    )


class TestCheckPerturbation:
    def test_zero_perturbation_obstruction_free(self, toy3):
        red = full_reduction(toy3)
        assert check_perturbation(toy3, red, Perturbation()).ok

    def test_compatibility_passes(self):
        atlas = _collar_atlas(1, [[F(1)]])
        red = full_reduction(atlas)
        nu = Perturbation(
            samples={
                (1,): {0: (F(1, 4),)},
                (1, 2): {0: (F(1, 4),), 1: (F(1, 4),)},
            }
        )
        assert check_perturbation(atlas, red, nu).ok

    def test_compatibility_and_equivariance_fail(self):
        atlas = _collar_atlas(1, [[F(1)]])
        red = full_reduction(atlas)
        nu = Perturbation(
            samples={
                (1,): {0: (F(1, 4),)},
                (1, 2): {0: (F(1, 4),), 1: (F(1, 3),)},
            }
        )
        rep = check_perturbation(atlas, red, nu)
        assert "compatibility" in clauses(rep)
        assert "partial_equivariance" in clauses(rep)

    def test_nu_undefined(self):
        atlas = _collar_atlas(1, [[F(1)]])
        red = full_reduction(atlas)
        rep = check_perturbation(atlas, red, Perturbation())
        assert "nu_undefined" in clauses(rep)

    def test_admissibility_passes(self):
        atlas = _collar_atlas(2, [[F(1)], [F(0)]], tangent=True)
        red = full_reduction(atlas)
        nu = Perturbation(
            asts={(1, 2): (var(0), num(0))},
            samples={
                (1,): {0: (F(0),)},
                (1, 2): {0: (F(0), F(0)), 1: (F(0), F(0))},
            },
        )
        assert check_perturbation(atlas, red, nu).ok

    def test_admissibility_fails(self):
        atlas = _collar_atlas(2, [[F(1)], [F(0)]], tangent=True)
        red = full_reduction(atlas)
        nu = Perturbation(
            asts={(1, 2): (num(0), var(0))},
            samples={
                (1,): {0: (F(0),)},
                (1, 2): {0: (F(0), F(0)), 1: (F(0), F(0))},
            },
        )
        rep = check_perturbation(atlas, red, nu)
        assert "admissibility" in clauses(rep)


# ---------------------------------------------------------------------------
# metric line fixture: one chart on [0,1] with s(x) = x - 1/2
# ---------------------------------------------------------------------------


def _line_atlas(extra_chart_distance=None) -> AtlasModel:
    g = trivial_group()
    n = 9
    points = tuple((F(k, 8),) for k in range(n))
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=points, group=g, perms=[tuple(range(n))]
        ),
        obstruction_dim=1,
        obstruction_action=[[[1]]],
        obstruction_points=((F(0),), (F(1, 16),)),
        section_samples=tuple((F(k, 8) - F(1, 2),) for k in range(n)),
        footprint_map={4: "p"},
        section_asts=(["-", var(0), num("1/2")],),
        tangent_dims=(0,),
    )
    # keys ((1,), 0..8) then ((2,), 0), distances in sixteenths
    extra = extra_chart_distance is not None
    dist = np.zeros((n + extra, n + extra), dtype=np.int64)
    steps = np.arange(n)
    dist[:n, :n] = 2 * np.abs(steps[:, None] - steps[None, :])
    charts = {(1,): chart}
    x_labels = ["p"]
    cover = {1: frozenset({"p"})}
    if extra_chart_distance is not None:
        chart2 = ChartModel(
            index=(2,),
            domain=GroupQuotientModel(
                points=((F(0),),), group=g, perms=[(0,)]
            ),
            obstruction_dim=1,
            obstruction_action=[[[1]]],
            obstruction_points=((F(0),), (F(1),)),
            section_samples=((F(0),),),
            footprint_map={0: "q"},
        )
        charts[(2,)] = chart2
        x_labels.append("q")
        cover[2] = frozenset({"q"})
        dist[:n, n] = dist[n, :n] = int(16 * extra_chart_distance)
    return AtlasModel(
        x_labels=tuple(x_labels),
        cover=cover,
        charts=charts,
        changes={},
        metric=RationalArray.reduced(dist, 16),
    )


def _line_data(atlas):
    V = Reduction(sets={(1,): frozenset({3, 4, 5})})
    C = Reduction(
        sets={(1,): frozenset({4})},
        preds={
            (1,): [
                "and",
                ["<=", num("3/8"), var(0)],
                ["<=", var(0), num("5/8")],
            ]
        },
    )
    if (2,) in atlas.charts:
        V.sets[(2,)] = frozenset({0})
        C.sets[(2,)] = frozenset({0})
    norms = EquivariantNorms(
        maps={I[0]: [[1]] for I in atlas.charts if len(I) == 1}
    )
    return V, C, norms


class TestAdaptednessConstants:
    def test_single_chart_constants(self):
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        k = compute_adaptedness_constants(atlas, V, C, norms)
        assert k.delta_V == F(1, 4)
        assert k.delta == F(1, 8)
        assert k.v_k[((1,), F(0))] == frozenset({2, 3, 4, 5, 6})
        assert k.v_k[((1,), F(1))] == frozenset({3, 4, 5})
        assert k.c_tilde[(1,)] == frozenset({4})
        assert k.sigma == F(1, 8)
        assert k.sigma_witness == ((1,), 3)
        eta1 = float(k.eta[F(1)])
        assert eta1 == pytest.approx(
            2.0 ** (-0.5) * (1 - 2.0 ** (-0.25)) * 0.125
        )

    def test_enlargements_nested(self):
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        k = compute_adaptedness_constants(atlas, V, C, norms)
        ks = sorted({kk for (_, kk) in k.v_k})
        for lo, hi in zip(ks, ks[1:]):
            assert k.v_k[((1,), hi)] <= k.v_k[((1,), lo)]

    def test_delta_too_large_rejected(self):
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        with pytest.raises(ValueError):
            compute_adaptedness_constants(atlas, V, C, norms, delta=F(1, 4))

    def test_delta_v_separation(self):
        far = _line_atlas(extra_chart_distance=F(1))
        V, C, norms = _line_data(far)
        assert compute_adaptedness_constants(far, V, C, norms).delta_V == F(1, 4)
        close = _line_atlas(extra_chart_distance=F(1, 16))
        V, C, norms = _line_data(close)
        assert compute_adaptedness_constants(close, V, C, norms).delta_V == F(1, 64)

    def test_sigma_monotone_in_C(self):
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        base = compute_adaptedness_constants(atlas, V, C, norms).sigma
        C_empty = Reduction(sets={(1,): frozenset()})
        smaller = compute_adaptedness_constants(atlas, V, C_empty, norms).sigma
        assert smaller == F(0) <= base
        C_big = Reduction(sets={(1,): frozenset({3, 4, 5})})
        bigger = compute_adaptedness_constants(atlas, V, C_big, norms).sigma
        assert bigger is None  # empty complement: no constraint

    @pytest.mark.parametrize("outside", [9, -1])
    def test_closure_escaping_the_domain_is_skipped(self, outside):
        # check_reduction reports this closure as closure_escapes_domain
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        want = compute_adaptedness_constants(atlas, V, C, norms)
        V.closures[(1,)] = frozenset({3, 4, 5, outside})
        got = compute_adaptedness_constants(atlas, V, C, norms)
        assert got == want

    def test_closure_radius_default(self):
        atlas = _line_atlas()
        eps = epsilon_closure_radius(atlas)
        assert eps == F(1, 16)
        V, _, _ = _line_data(atlas)
        assert closure_of(atlas, V, (1,), eps) == frozenset({3, 4, 5})


class TestCheckAdapted:
    def _setup(self):
        atlas = _line_atlas()
        V, C, norms = _line_data(atlas)
        constants = compute_adaptedness_constants(atlas, V, C, norms)
        nu = Perturbation(
            asts={(1,): (num("1/16"),)},
            samples={(1,): {k: (F(1, 16),) for k in range(9)}},
        )
        zeros = [((1,), (F(7, 16),))]
        return atlas, V, C, norms, constants, nu, zeros

    def test_adapted_passes(self):
        atlas, V, C, norms, constants, nu, zeros = self._setup()
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 8), nu, zeros=zeros
        )
        assert rep.ok

    def test_adapted_implies_perturbation_clauses(self):
        atlas, V, C, norms, constants, nu, zeros = self._setup()
        assert check_adapted(
            atlas, C, norms, constants, F(1, 8), nu, zeros=zeros
        ).ok
        assert check_perturbation(atlas, V, nu, C=C, zeros=zeros).ok

    def test_smallness_fails(self):
        atlas, V, C, norms, constants, nu, zeros = self._setup()
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 16), nu, zeros=zeros
        )
        assert "e_not_small" in clauses(rep)

    def test_transversality_fails_for_cancelling_nu(self):
        atlas, V, C, norms, constants, _, _ = self._setup()
        bad = Perturbation(
            asts={(1,): (["-", num("1/2"), var(0)],)},
            samples={(1,): {k: (F(1, 2) - F(k, 8),) for k in range(9)}},
        )
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 8), bad,
            zeros=[((1,), (F(1, 2),))],
        )
        assert "b_transversality" in clauses(rep)

    def test_zero_escape_fails(self):
        atlas, V, C, norms, constants, nu, _ = self._setup()
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 8), nu,
            zeros=[((1,), (F(3, 4),))],
        )
        assert "d_zero_escapes_C" in clauses(rep)

    def test_zero_clauses_mirror_the_perturbation_check(self):
        # b) and d) are the perturbation check's zero clauses, renamed, with
        # the same witnesses in the same order (all b_ before any d_)
        atlas, V, C, norms, constants, _, _ = self._setup()
        bad = Perturbation(
            asts={(1,): (["-", num("1/2"), var(0)],)},
            samples={(1,): {k: (F(1, 2) - F(k, 8),) for k in range(9)}},
        )
        zeros = [((1,), (F(3, 4),)), ((1,), (F(1, 2),))]
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 8), bad, zeros=zeros
        )
        pert = check_perturbation(atlas, V, bad, C=C, zeros=zeros)
        assert pert.failures == [
            {"clause": "transversality", "index": (1,), "point": [F(3, 4)]},
            {"clause": "transversality", "index": (1,), "point": [F(1, 2)]},
            {"clause": "zero_escapes_C", "index": (1,), "point": [0.75]},
        ]
        assert [f for f in rep.failures if f["clause"][:2] in {"b_", "d_"}] == [
            {**f, "clause": {"transversality": "b_transversality",
                             "zero_escapes_C": "d_zero_escapes_C"}[f["clause"]]}
            for f in pert.failures
        ]
        # a zero without ν's expressions is the perturbation check's alone
        samples_only = Perturbation(samples=bad.samples)
        assert "transversality_data_missing" in clauses(
            check_perturbation(atlas, V, samples_only, C=C, zeros=zeros)
        )
        rep = check_adapted(
            atlas, C, norms, constants, F(1, 8), samples_only, zeros=zeros
        )
        assert not any("transversality" in c for c in clauses(rep))

    def test_sigma_zero_flagged(self):
        atlas, V, _, norms, _, nu, _ = self._setup()
        C_empty = Reduction(sets={(1,): frozenset()})
        constants = compute_adaptedness_constants(atlas, V, C_empty, norms)
        assert constants.sigma == F(0)
        rep = check_adapted(atlas, C_empty, norms, constants, F(1, 8), nu)
        assert "sigma_zero" in clauses(rep)


# ---------------------------------------------------------------------------
# equivariant norms
# ---------------------------------------------------------------------------


def _rotation_chart_atlas() -> AtlasModel:
    """Order-3 rational rotation on a dim-2 obstruction space."""
    g = cyclic_group(3)
    A = np.array([[F(0), F(-1)], [F(1), F(-1)]])
    A2 = A @ A
    grid = (
        (F(1), F(1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(-1)),
    )
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=((F(0),), (F(1),), (F(2),)),
            group=g,
            perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)],
        ),
        obstruction_dim=2,
        obstruction_action=[[[1, 0], [0, 1]], A, A2],
        obstruction_points=grid,
        section_samples=((F(0), F(0)),) * 3,
        footprint_map={0: "p", 1: "p", 2: "p"},
    )
    return AtlasModel(
        x_labels=("p",),
        cover={1: frozenset({"p"})},
        charts={(1,): chart},
        changes={},
    )


class TestEquivariantNorms:
    def test_invariant_norm_validates(self):
        atlas = _rotation_chart_atlas()
        T = [[F(1), F(0)], [F(0), F(-1)], [F(-1), F(1)]]
        norms = EquivariantNorms(maps={1: T})
        assert norms.validate(atlas).ok
        values = RationalArray.of([(F(1), F(1, 2)), (F(-1, 2), F(1, 2))], "values", (2, 2))
        assert norms.norms(atlas, (1,), values).fractions() == [F(1), F(1)]

    def test_plain_max_not_invariant_here(self):
        atlas = _rotation_chart_atlas()
        norms = EquivariantNorms(maps={1: [[1, 0], [0, 1]]})
        rep = norms.validate(atlas)
        assert "norm_not_invariant" in clauses(rep)

    def test_degenerate_norm(self):
        atlas = _rotation_chart_atlas()
        norms = EquivariantNorms(
            maps={1: [[F(1), F(0)]]}
        )
        assert "norm_degenerate" in clauses(norms.validate(atlas))

    def test_product_norm_is_blockwise_max(self):
        atlas = _collar_atlas(1, [[F(1)]])
        norms = EquivariantNorms(maps={1: [[1]]})
        # chart (1,2) has E = E_1 only in this model: max over one block
        values = RationalArray.of([(F(-3, 4),), (F(1, 2),)], "values", (2, 1))
        assert norms.norms(atlas, (1,), values).fractions()[0] == F(3, 4)
        assert norms.norms(atlas, (1, 2), values).fractions()[1] == F(1, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_reduction_round_trip(self, toy2):
        red = Reduction(
            sets={(1,): frozenset({0, 2}), (1, 2): frozenset({1})},
            preds={(1,): ["<=", var(0), num("1/2")]},
            closures={(1,): frozenset({0, 1, 2})},
        )
        data = reduction_to_json(red)
        again = reduction_from_json(json.loads(json.dumps(data, sort_keys=True)), toy2)
        assert again.sets == red.sets
        assert again.preds == red.preds
        assert again.closures == red.closures

    def test_perturbation_round_trip(self, toy2):
        nu = Perturbation(
            asts={(1,): (num("1/16"),)},
            samples={(1, 2): {0: (F(1, 4), F(0))}},
        )
        data = perturbation_to_json(nu)
        again = perturbation_from_json(json.loads(json.dumps(data, sort_keys=True)), toy2)
        assert again.asts == nu.asts
        index, rows = again.samples[(1, 2)]
        assert index.tolist() == [0] and rows.fractions() == [[F(1, 4), F(0)]]
        assert perturbation_to_json(again) == data

    def test_norms_round_trip(self):
        norms = EquivariantNorms(
            maps={1: [[F(1), F(0)], [F(-1), F(1)]]}
        )
        again = norms_from_json(json.loads(json.dumps(norms_to_json(norms))))
        assert again.maps[1].fractions() == norms.maps[1].fractions()


def test_admissibility_reports_the_first_point_of_each_pair():
    from vfc.examples_cli import ExampleDescriptor, build_example

    built = build_example(ExampleDescriptor("sphere-euler", {"density": 8}))
    atlas, red = built.atlas, built.V
    # dν = the identity: its image is all of E_J, not only im φ̂
    asts = {**built.nu.asts, (1, 2): tuple(var(k) for k in range(4))}
    rep = check_perturbation(atlas, red, Perturbation(asts=asts, samples=built.nu.samples))
    failures = [f for f in rep.failures if f["clause"] == "admissibility"]
    assert [(f["pair"], f["point"]) for f in failures] == [
        (pair, min(v_tilde(atlas, red, *pair))) for pair in [((1,), (1, 2)), ((2,), (1, 2))]
    ]


# ---------------------------------------------------------------------------
# clauses fired by doctored models, with their witnesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("outside", [9, -1])
def test_closure_escapes_domain(outside):
    # the declared closure of V = {3, 4, 5} names a sample the chart does not have
    red = Reduction(sets={(1,): frozenset({3, 4, 5})}, closures={(1,): frozenset({4, outside})})
    assert check_reduction(_line_atlas(), red).failures == [
        {"clause": "closure_escapes_domain", "index": (1,)}
    ]


def test_misses_zero_set():
    # V = {0, 8}, where s = ∓1/2: no zero of the chart, so none is covered
    red = Reduction(sets={(1,): frozenset({0, 8})})
    assert check_reduction(_line_atlas(), red).failures == [
        {"clause": "misses_zero_set", "index": (1,)},
        {"clause": "zero_set_not_covered", "missing": ["p"]},
    ]


@pytest.mark.parametrize("sample", [999, -1])
def test_a_reduction_sample_outside_its_chart(sample):
    """A reduction whose V_1 names a sample that chart (1,) lacks: the
    reduction stage names it and checks nothing else.  In a document it is
    a schema error, raised as the reduction is read."""
    from vfc.examples_cli import (
        ExampleDescriptor, build_example, check_atlas_data, example_to_json,
    )

    built = build_example(ExampleDescriptor("sphere-euler", {"density": 8}))
    sets = {**built.V.sets, (1,): built.V.sets[(1,)] | {sample}}
    assert check_reduction(built.atlas, Reduction(sets=sets)).failures == [
        {"clause": "sample_outside_chart", "index": (1,), "point": sample},
    ]
    doc = example_to_json(built)
    doc["reduction"]["sets"]["1"].append(sample)
    with pytest.raises(ValueError, match=rf"^chart \(1,\): reduction sets: {sample} is not a "
                                         "sample of the chart, which has 25$"):
        check_atlas_data(json.loads(json.dumps(doc)))


def test_norm_for_unknown_chart():
    atlas = _line_atlas()
    norms = EquivariantNorms(maps={1: [[1]], 7: [[1]]})
    assert norms.validate(atlas).failures == [{"clause": "norm_for_unknown_chart", "index": 7}]


def test_sigma_out_of_range():
    atlas = _line_atlas()
    V, C, norms = _line_data(atlas)
    constants = compute_adaptedness_constants(atlas, V, C, norms)
    nu = Perturbation(samples={(1,): {k: (F(0),) for k in range(9)}})
    for sigma in (F(1, 4), F(0)):
        rep = check_adapted(atlas, C, norms, constants, sigma, nu)
        assert {"clause": "sigma_out_of_range", "sigma": sigma, "computed": F(1, 8)} in rep.failures


@pytest.fixture(scope="module")
def sphere8():
    from vfc.examples_cli import ExampleDescriptor, build_example

    built = build_example(ExampleDescriptor("sphere-euler", {"density": 8}))
    constants = compute_adaptedness_constants(built.atlas, built.V, built.C, built.norms)
    return built, constants


def _adapted_failures(sphere8, edit, drop_asts=()):
    """check_adapted on sphere-euler N=8 with ν's declared samples edited
    in place by ``edit`` and the expressions of ``drop_asts`` removed."""
    built, constants = sphere8
    samples = {
        I: dict(zip(index.tolist(), map(tuple, rows.fractions())))
        for I, (index, rows) in built.nu.samples.items()
    }
    edit(samples)
    asts = {I: a for I, a in built.nu.asts.items() if I not in drop_asts}
    nu = Perturbation(asts=asts, samples=samples)
    return check_adapted(built.atlas, built.C, built.norms, constants, built.sigma, nu).failures


def test_a_compatibility(sphere8):
    def edit(samples):  # ρ(3) = 4 in chart (1,), and 3 lies in both enlargements
        v = samples[(1, 2)][3]
        samples[(1, 2)][3] = (v[0] + F(1, 64), *v[1:])

    assert _adapted_failures(sphere8, edit) == [
        {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 3, "level": 2}
    ]


def test_c_strong_admissibility(sphere8):
    def edit(samples):  # an E_2 component at 5: outside im φ̂ of (1,) -> (1, 2)
        v = samples[(1, 2)][5]
        samples[(1, 2)][5] = (v[0], v[1], F(1, 64), v[3])

    assert _adapted_failures(sphere8, edit) == [
        {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 5, "level": 2},
        {"clause": "c_strong_admissibility", "pair": ((1,), (1, 2)), "point": 5, "level": 2},
    ]


def test_nu_undefined_in_a_c_and_e(sphere8):
    def edit(samples):
        del samples[(1, 2)][2]

    assert _adapted_failures(sphere8, edit, drop_asts=[(1, 2)]) == [
        {"clause": "a_nu_undefined", "pair": ((1,), (1, 2)), "point": 2, "level": 2},
        {"clause": "c_nu_undefined", "pair": ((1,), (1, 2)), "point": 2, "level": 2},
        {"clause": "e_nu_undefined", "index": (1, 2), "point": 2, "level": 2},
    ]


def test_e_nu_undefined_on_a_basic_chart(sphere8):
    def edit(samples):
        del samples[(2,)][0]

    assert _adapted_failures(sphere8, edit, drop_asts=[(2,)]) == [
        {"clause": "e_nu_undefined", "index": (2,), "point": 0, "level": 1},
        {"clause": "e_nu_undefined", "index": (2,), "point": 0, "level": 2},
    ]


# ---------------------------------------------------------------------------
# ν from its expressions: no declared samples
# ---------------------------------------------------------------------------


def _pair_atlas() -> AtlasModel:
    """Charts (1,) and (2,), each with E of dim 1, inside chart (1, 2) with
    E_12 = E_1 ⊕ E_2.  Chart (1,) has the samples t = 0, 1; charts (2,)
    and (1, 2) have (t, s) for t = 0, 1 and s = ±1, where Z_2 flips s;
    ρ(t, s) = t, and φ̂ is the inclusion of E_1.  All distances are 0."""
    points = ((F(0), F(1)), (F(0), F(-1)), (F(1), F(1)), (F(1), F(-1)))
    flip = [(0, 1, 2, 3), (1, 0, 3, 2)]
    chart1 = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=((F(0),), (F(1),)), group=trivial_group(), perms=[(0, 1)]),
        obstruction_dim=1,
        obstruction_action=[[[1]]],
        obstruction_points=((F(0),),),
        section_samples=((F(0),),) * 2,
        footprint_map={0: "a", 1: "a"},
    )
    chart2 = ChartModel(
        index=(2,),
        domain=GroupQuotientModel(points=points, group=cyclic_group(2), perms=flip),
        obstruction_dim=1,
        obstruction_action=[[[1]], [[1]]],
        obstruction_points=((F(0),),),
        section_samples=((F(0),),) * 4,
        footprint_map=dict.fromkeys(range(4), "a"),
    )
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(
            points=points, group=product_group([trivial_group(), cyclic_group(2)]), perms=flip
        ),
        obstruction_dim=2,
        obstruction_action=[np.eye(2, dtype=int)] * 2,
        obstruction_points=((F(0), F(0)),),
        section_samples=((F(0), F(0)),) * 4,
        footprint_map=dict.fromkeys(range(4), "a"),
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=(0, 1, 2, 3),
        rho_idx={0: 0, 1: 0, 2: 1, 3: 1},
        phi_hat=[[1], [0]],
    )
    return AtlasModel(
        x_labels=("a",),
        cover={1: frozenset({"a"}), 2: frozenset({"a"})},
        charts={(1,): chart1, (2,): chart2, (1, 2): chart12},
        changes={((1,), (1, 2)): change},
        metric=RationalArray(np.zeros((6, 6), dtype=np.int64), 1),
    )


def _pair_constants(atlas: AtlasModel) -> AdaptednessConstants:
    """Every sample in every enlargement and collar, at levels 1 and 2."""
    levels = (F(1), F(2))
    every = {I: frozenset(range(len(c.domain.points))) for I, c in atlas.charts.items()}
    return AdaptednessConstants(
        delta_V=F(1, 4), delta=F(1, 8), eta=dict.fromkeys(levels, 0.0),
        v_k={(I, k): every[I] for I in atlas.charts for k in levels},
        n_k={((1, 2), (1,), k): every[(1, 2)] for k in levels},
        c_tilde={}, sigma=None, sigma_witness=None,
    )


T, S = var(0), var(1)
NU_1 = ["+", num(F(1, 3)), ["*", num(F(1, 5)), T]]  # ν_1 = 1/3 + t/5, exact
WAVE = ["*", num(F(1, 3)), ["cos2pi", ["*", num(F(1, 8)), T]]]  # cos(πt/4)/3, a float


def _pair_nu(nu_1, nu_12) -> Perturbation:
    """ν on the pair atlas by expressions only: ν_1 = (nu_1,), ν_2 = 0, ν_12 = nu_12."""
    return Perturbation(asts={(1,): (nu_1,), (2,): (num(0),), (1, 2): tuple(nu_12)})


def _pair_adapted(nu: Perturbation, sigma=F(1)) -> list:
    atlas = _pair_atlas()
    norms = EquivariantNorms(maps={1: [[1]], 2: [[1]]})
    constants = _pair_constants(atlas)
    return check_adapted(atlas, Reduction(sets={}), norms, constants, sigma, nu).failures


def _pair_checks(nu_1, nu_12, sigma=F(1)):
    """The failures of check_perturbation and check_adapted on the pair atlas."""
    atlas, nu = _pair_atlas(), _pair_nu(nu_1, nu_12)
    return check_perturbation(atlas, full_reduction(atlas), nu).failures, _pair_adapted(nu, sigma)


def _plus(ast, gap):
    return ["+", ast, gap]


def _small_by_fractions(norms, atlas, I, v, sigma):
    """Smallness with a ``Fraction`` comparison per row, as it was first
    written: the oracle of ``_small``."""
    keep = np.ones(v.rational.shape, dtype=bool)
    ok = np.ones(len(v.defined), dtype=bool)
    for i, lo, hi in norms._blocks(atlas, I):
        rational = v.rational[:, lo:hi].all(axis=1)
        keep[:, lo:hi] = rational[:, None]
        if rational.all():
            continue
        size = np.abs(_sums(v.all_floats()[:, lo:hi], norms.maps[i].floats()))
        size = np.fmax.reduce(np.where(np.isnan(size[:, :1]), 0.0, size), axis=1, initial=0.0)
        ok &= rational | np.array([s < sigma for s in size.tolist()], dtype=bool)
    exact = norms.norms(atlas, I, RationalArray(np.where(keep, v.exact.num, 0), v.exact.den))
    return ok & np.array([F(n, exact.den) < sigma for n in exact.num.tolist()], dtype=bool)


@pytest.mark.parametrize("sigma", [F(1, 3), F(1, 10), F(1, 4), F(2, 3), F(3, 7)])
def test_small_compares_like_a_fraction_per_row(sigma):
    """On chart (1, 2) of the pair atlas, E_1's component as a float s (or
    exact) and E_2's exact: s at float(σ), its neighbours, inf, NaN as the
    first sum; exact values at σ (m·q = p·den), just below and above."""
    atlas, norms = _pair_atlas(), EquivariantNorms(maps={1: [[1]], 2: [[1]]})
    f = float(sigma)
    floats = [f, math.nextafter(f, 0), math.nextafter(f, math.inf), math.inf, math.nan, 0.0]
    exacts = [sigma, sigma - F(1, 10**9), sigma + F(1, 10**9), F(0)]
    rows = [(s, e) for s in floats for e in exacts]
    rational = [[False, True]] * len(rows) + [[True, True]] * len(exacts) ** 2
    exact = [[0, e] for _, e in rows] + [[a, b] for a in exacts for b in exacts]
    v = _Rows(
        exact=RationalArray.of(exact, "rows", (-1, 2)),
        floats=np.array([[s, 0.0] for s, _ in rows] + [[0.0, 0.0]] * len(exacts) ** 2),
        rational=np.array(rational),
        defined=np.ones(len(exact), dtype=bool),
        errors={},
    )
    got = _small(norms, atlas, (1, 2), v, sigma)
    assert got.tolist() == _small_by_fractions(norms, atlas, (1, 2), v, sigma).tolist()
    # float(σ) is below σ exactly where it is less than σ; inf never is;
    # a NaN first sum is passed over; σ itself is not below σ
    by_float, by_exact = got[:len(rows)].reshape(len(floats), -1), got[len(rows):].reshape(4, 4)
    assert by_float[0, 3] == (F(f) < sigma)
    assert not by_float[3, 3] and by_float[4, 3]
    assert not by_exact[0, 3] and by_exact[1, 3] and not by_exact[2, 3]


class TestUndeclaredNu:
    def test_polynomial_nu_passes(self):
        assert _pair_checks(NU_1, [NU_1, num(0)]) == ([], [])

    def test_exact_rows_compare_exactly(self):
        # a gap of 2^-40 in t: within TAU_EQ, but not 0
        gap = ["*", num(F(1, 2**40)), T]
        pert, adapted = _pair_checks(NU_1, [_plus(NU_1, gap), num(0)])
        assert pert == [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 2}]
        assert adapted == [
            {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 2, "level": 2}
        ]
        # the same gap in s: one failure per sample, at the flip
        gap = ["*", num(F(1, 2**40)), S]
        pert, _ = _pair_checks(NU_1, [_plus(NU_1, gap), num(0)])
        assert pert == [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 0}] + [
            {"clause": "partial_equivariance", "pair": ((1,), (1, 2)), "point": y,
             "element": "e|g1"}
            for y in range(4)
        ]
        # ... and in E_2, outside im φ̂
        pert, adapted = _pair_checks(NU_1, [NU_1, ["*", num(F(1, 2**40)), T]])
        assert pert == [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 2}]
        assert adapted == [
            {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 2, "level": 2},
            {"clause": "c_strong_admissibility", "pair": ((1,), (1, 2)), "point": 2, "level": 2},
        ]

    def test_float_rows_compare_within_tau_eq(self):
        # a float row never lies in im φ̂ for c); a) and e) pass
        c_fails = [
            {"clause": "c_strong_admissibility", "pair": ((1,), (1, 2)), "point": 0, "level": 2}
        ]
        assert _pair_checks(WAVE, [WAVE, num(0)]) == ([], c_fails)
        for direction, pert in [(T, []), (S, [])]:
            near = _plus(WAVE, ["*", num(F(1, 10**12)), direction])
            assert _pair_checks(WAVE, [near, num(0)]) == (pert, c_fails)
        far = _plus(WAVE, ["*", num(F(1, 10**8)), T])
        assert _pair_checks(WAVE, [far, num(0)]) == (
            [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 2}],
            [{"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 2, "level": 2}]
            + c_fails,
        )
        far = _plus(WAVE, ["*", num(F(1, 10**8)), S])
        pert, _ = _pair_checks(WAVE, [far, num(0)])
        assert pert == [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 0}] + [
            {"clause": "partial_equivariance", "pair": ((1,), (1, 2)), "point": y,
             "element": "e|g1"}
            for y in range(4)
        ]

    def test_smallness_compares_each_block_in_its_own_arithmetic(self):
        third = ["*", num(F(1, 3)), ["cos2pi", ["*", num(0), T]]]  # float(1/3) < 1/3
        def e_failures(nu_12):
            _, adapted = _pair_checks(num(F(1, 4)), nu_12, sigma=F(1, 3))
            return [f for f in adapted if f["clause"].startswith("e_")]

        assert e_failures([num(F(1, 4)), third]) == []
        assert e_failures([num(F(1, 3)), ["*", num(0), third]]) == [
            {"clause": "e_not_small", "index": (1, 2), "point": 0, "level": 2}
        ]

    def test_a_raise_after_a_failure_is_not_reached(self):
        pole = ["/", num(0), ["-", T, num(1)]]  # raises at t = 1, sample 1 of chart (1,)
        # ν_12 ≠ φ̂ν_1ρ at y = 0: the loop stops before it reads ν_1 at ρ(2) = 1
        pert, adapted = _pair_checks(_plus(NU_1, pole), [_plus(NU_1, num(F(1, 6))), num(0)],
                                     sigma=F(1, 4))
        assert pert == [{"clause": "compatibility", "pair": ((1,), (1, 2)), "point": 0}]
        assert adapted == [
            {"clause": "e_not_small", "index": (1,), "point": 0, "level": 1},
            {"clause": "e_not_small", "index": (1,), "point": 0, "level": 2},
            {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 0, "level": 2},
            {"clause": "e_not_small", "index": (1, 2), "point": 0, "level": 2},
        ]
        # at (1, -1), behind the failures of a), c) and e) at y = 0
        pole = ["/", num(0), ["+", T, S]]
        assert _pair_adapted(_pair_nu(NU_1, [NU_1, _plus(num(1), pole)])) == [
            {"clause": "a_compatibility", "pair": ((1,), (1, 2)), "point": 0, "level": 2},
            {"clause": "c_strong_admissibility", "pair": ((1,), (1, 2)), "point": 0, "level": 2},
            {"clause": "e_not_small", "index": (1, 2), "point": 0, "level": 2},
        ]

    def test_a_raise_before_a_failure_is_raised(self):
        pole = ["/", num(0), ["-", T, num(1)]]
        late = [_plus(NU_1, ["*", num(F(1, 6)), T]), num(0)]  # wrong only at t = 1
        with pytest.raises(ZeroDivisionError):
            _pair_checks(_plus(NU_1, pole), late)
        with pytest.raises(ZeroDivisionError):  # e) on chart (1,) reads t = 1 at level 1
            _pair_adapted(_pair_nu(_plus(NU_1, pole), late))
        # partial equivariance reads every sample of Ṽ
        with pytest.raises(ZeroDivisionError):
            _pair_checks(NU_1, [_plus(NU_1, ["/", num(0), ["+", T, S]]), num(0)])


def test_admissibility_solves_one_least_squares_per_pair(monkeypatch):
    """The Jacobians of all Ṽ_IJ samples of a pair are one right-hand side
    of one ``lstsq``; a failing sample's residual is then the one it gets
    alone, as a loop over the samples reports it."""
    from vfc.examples_cli import ExampleDescriptor, build_example

    calls = []
    lstsq = np.linalg.lstsq

    def counting(a, b, **kwargs):
        calls.append(b.shape)
        return lstsq(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    pairs = [((1,), (1, 2)), ((2,), (1, 2))]
    built = build_example(ExampleDescriptor("sphere-euler", {"density": 48}))
    assert check_perturbation(built.atlas, built.V, built.nu).ok
    ys = [len(v_tilde(built.atlas, built.V, *pair)) for pair in pairs]
    assert ys == [48, 48] and calls == [(4, 4 * y) for y in ys]  # 4 × 4 Jacobians
    # dν = the identity on sphere-euler N=8 fails at the first sample of each pair
    calls.clear()
    built = build_example(ExampleDescriptor("sphere-euler", {"density": 8}))
    atlas, red = built.atlas, built.V
    asts = {**built.nu.asts, (1, 2): tuple(var(k) for k in range(4))}
    rep = check_perturbation(atlas, red, Perturbation(asts=asts, samples=built.nu.samples))
    assert len(calls) == 4  # per pair the batch, then the failing sample alone
    for failure, pair in zip([f for f in rep.failures if f["clause"] == "admissibility"], pairs):
        phi = atlas.changes[pair].phi_hat.floats()
        jac = atlas.compiled(asts[(1, 2)], atlas.charts[(1, 2)].tangent_dims)(
            atlas.charts[(1, 2)].domain.coordinates[[failure["point"]]])[1][0]
        alone = float(np.abs(phi @ lstsq(phi, jac, rcond=None)[0] - jac).max())
        assert failure["residual"] == alone > 0.5
