import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from test_charts_atlas import build_toy_atlas, random_toy_atlas

from vfc.charts_atlas import (
    RationalArray,
    AtlasModel,
    ChartModel,
    CoordinateChangeModel,
    GroupQuotientModel,
    cyclic_group,
    product_group,
    trivial_group,
)
from vfc.expressions import num, var
from vfc.exterior_engine import RationalMatrix
from vfc.reduction_perturb import (
    AdaptednessConstants,
    EquivariantNorms,
    Perturbation,
    Reduction,
    build_pruned_category,
    check_adapted,
    check_perturbation,
    check_reduction,
    closure_of,
    compute_adaptedness_constants,
    epsilon_closure_radius,
    hij_identity_holds,
    norms_from_json,
    norms_to_json,
    perturbation_from_json,
    perturbation_to_json,
    reduction_from_json,
    reduction_to_json,
    v_tilde,
    v_tilde_via_projection,
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
        assert "not_invariant" in clauses(rep)

    def test_closure_overlap_not_nested(self, toy2):
        # put the shared label "b" into both basic reductions
        red = toy_reduction(toy2)
        sets = dict(red.sets)
        for I in [(1,), (2,)]:
            chart = toy2.charts[I]
            extra = {k for k, x in chart.footprint_map.items() if x == "b"}
            sets[I] = sets[I] | extra
        rep = check_reduction(toy2, Reduction(sets=sets))
        assert "closure_overlap_not_nested" in clauses(rep)

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
        assert "partial_isotropy_not_free" in clauses(rep)


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
        phi_hat=RationalMatrix.zero(0, 0),
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


class TestPrunedCategory:
    def test_canonical_reduction_is_discrete(self, toy3):
        red = toy_reduction(toy3)
        result = build_pruned_category(toy3, red)
        assert result.report.ok
        cat = result.category
        # canonical toy reductions have no cross-chart overlaps
        assert len(cat.morphisms) == len(cat.objects)

    def test_full_reduction_counts(self, toy2):
        red = full_reduction(toy2)
        result = build_pruned_category(toy2, red)
        assert result.report.ok
        cat = result.category
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
        result = build_pruned_category(toy3, full_reduction(toy3))
        assert result.report.ok
        cat = result.category
        pairs = {(cat.source[m], cat.target[m]) for m in cat.morphisms}
        assert len(pairs) == len(cat.morphisms)

    def test_random_toys(self):
        for seed in range(5):
            atlas = random_toy_atlas(200 + seed)
            assert build_pruned_category(atlas, full_reduction(atlas)).report.ok

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
        result = build_pruned_category(atlas, full_reduction(atlas))
        assert "composition_escapes" in clauses(result.report)


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
        obstruction_action=[RationalMatrix.identity(1)],
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
            RationalMatrix.identity(m12),
            RationalMatrix.identity(m12),
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
        phi_hat=RationalMatrix.from_rows(phi_entries),
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
        obstruction_action=[RationalMatrix.identity(1)],
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
            obstruction_action=[RationalMatrix.identity(1)],
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
        maps={I[0]: RationalMatrix.identity(1) for I in atlas.charts if len(I) == 1}
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
    A = RationalMatrix.from_rows([[F(0), F(-1)], [F(1), F(-1)]])
    A2 = A.mul(A)
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
        obstruction_action=[RationalMatrix.identity(2), A, A2],
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
        T = RationalMatrix.from_rows(
            [[F(1), F(0)], [F(0), F(-1)], [F(-1), F(1)]]
        )
        norms = EquivariantNorms(maps={1: T})
        assert norms.validate(atlas).ok
        assert norms.norm(atlas, (1,), (F(1), F(1, 2))) == F(1)
        assert norms.norm(atlas, (1,), (F(-1, 2), F(1, 2))) == F(1)

    def test_plain_max_not_invariant_here(self):
        atlas = _rotation_chart_atlas()
        norms = EquivariantNorms(maps={1: RationalMatrix.identity(2)})
        rep = norms.validate(atlas)
        assert "norm_not_invariant" in clauses(rep)

    def test_degenerate_norm(self):
        atlas = _rotation_chart_atlas()
        norms = EquivariantNorms(
            maps={1: RationalMatrix.from_rows([[F(1), F(0)]])}
        )
        assert "norm_degenerate" in clauses(norms.validate(atlas))

    def test_product_norm_is_blockwise_max(self):
        atlas = _collar_atlas(1, [[F(1)]])
        norms = EquivariantNorms(maps={1: RationalMatrix.identity(1)})
        # chart (1,2) has E = E_1 only in this model: max over one block
        assert norms.norm(atlas, (1,), (F(-3, 4),)) == F(3, 4)
        assert norms.norm(atlas, (1, 2), (F(1, 2),)) == F(1, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_reduction_round_trip(self):
        red = Reduction(
            sets={(1,): frozenset({0, 2}), (1, 2): frozenset({1})},
            preds={(1,): ["<=", var(0), num("1/2")]},
            closures={(1,): frozenset({0, 1, 2})},
        )
        data = reduction_to_json(red)
        again = reduction_from_json(json.loads(json.dumps(data, sort_keys=True)))
        assert again.sets == red.sets
        assert again.preds == red.preds
        assert again.closures == red.closures

    def test_perturbation_round_trip(self):
        nu = Perturbation(
            asts={(1,): (num("1/16"),)},
            samples={(1, 2): {0: (F(1, 4), F(0))}},
        )
        data = perturbation_to_json(nu)
        again = perturbation_from_json(json.loads(json.dumps(data, sort_keys=True)))
        assert again.asts == nu.asts
        assert again.samples == nu.samples

    def test_norms_round_trip(self):
        norms = EquivariantNorms(
            maps={1: RationalMatrix.from_rows([[F(1), F(0)], [F(-1), F(1)]])}
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
