"""Acceptance suite: the eight headline guarantees of the toolkit.

1. Sphere Euler class: two weight-one positive zeros, total 2.
2. Football Euler class: weights 1/2 and 1/3, total 5/6.
3. Single-chart orbifold weights: Λ ≡ 1/|Γ|.
4. Branched interval cobordism: Λ table and the boundary identity.
5. Category/groupoid laws on the football atlas and 50 random toy atlases.
6. Zero signs: the exact sign agrees with the float determinant.
7. Λ well-definedness: both weight formulas agree across charts.
8. Realization identifications: |K| ↔ |K̲| and zero classes ↔ X samples.

Plus negative tests: every validator fails on a purpose-built broken model.
"""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from vfc.charts_atlas import (
    atlas_to_json,
    build_categories,
    check_atlas_model,
    check_category,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_realizations,
    check_tame_and_filtration,
)
from vfc.cli import main
from vfc.exterior_engine import zero_sign
from vfc.examples_cli import (
    ExampleDescriptor,
    build_example,
    build_toy_atlas,
    random_toy_atlas,
    run_example,
)
from vfc.reduction_perturb import Reduction, build_pruned_category, check_reduction
from vfc.zeroset_branched import (
    branched_interval_model,
    complete_groupoid,
    hausdorff_complete,
    weight_function,
)

from test_charts_atlas import category_from_labels

F = Fraction

MULTI_CHART_EXAMPLES = ("sphere-euler", "football-euler", "football-atlas")
ALL_ATLAS_EXAMPLES = MULTI_CHART_EXAMPLES + ("football-fclass",)


def _run(name, **params):
    report, code = run_example(ExampleDescriptor(name, params))
    return report, code


def _zero_classes(built, zsets):
    """Completed + Hausdorff zero classes with their per-chart fibers."""
    completed = complete_groupoid(built.atlas, built.V, zsets, build_categories(built.atlas))
    assert completed.report.ok, completed.report.failures
    hausdorff = hausdorff_complete(completed)
    assert hausdorff.report.ok, hausdorff.report.failures
    weights = weight_function(built.atlas, hausdorff)
    assert weights.report.ok, weights.report.failures
    return hausdorff, weights.weights


def _all_zero_zsets(built):
    return {
        I: frozenset(
            set(built.V.sets[I])
            & set(built.atlas.charts[I].zero_sample_indices())
        )
        for I in built.atlas.index_sets()
    }


# ---------------------------------------------------------------------------
# 1 + 2: Euler classes of the sphere and the football
# ---------------------------------------------------------------------------


class TestEulerClasses:
    def test_sphere_euler(self):
        start = time.monotonic()
        report, code = _run("sphere-euler", density=12)
        elapsed = time.monotonic() - start
        assert code == 0
        assert report["total"] == "2/1"
        zeros = report["zero_set"]["zeros"]
        assert len(zeros) == 2
        assert sorted(tuple(z["chart"]) for z in zeros) == [(1,), (2,)]
        for z in zeros:
            assert z["weight"] == "1/1"
            assert z["sign"] == 1
            assert z["residual"] < 1e-10
        assert elapsed < 10.0

    def test_football_euler(self):
        start = time.monotonic()
        report, code = _run("football-euler", density=12)
        elapsed = time.monotonic() - start
        assert code == 0
        assert report["total"] == "5/6"
        weights = sorted(z["weight"] for z in report["zero_set"]["zeros"])
        assert weights == ["1/2", "1/3"]
        assert all(z["sign"] == 1 for z in report["zero_set"]["zeros"])
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3: single-chart orbifold weights
# ---------------------------------------------------------------------------


class TestOrbifoldWeights:
    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_constant_reciprocal_weight(self, order):
        built = build_example(
            ExampleDescriptor("single-orbifold-chart", {"order": order})
        )
        _, weights = _zero_classes(built, _all_zero_zsets(built))
        assert weights
        assert all(w == F(1, order) for w in weights.values())


# ---------------------------------------------------------------------------
# 4: branched interval cobordism
# ---------------------------------------------------------------------------


class TestBranchedInterval:
    def test_twenty_random_rational_weights(self):
        rng = random.Random(2026)
        for _ in range(20):
            m = F(rng.randint(1, 30), rng.randint(1, 12))
            mp = F(rng.randint(1, 30), rng.randint(1, 12))
            model = branched_interval_model(m, mp)
            # Λ table: m + m' on the glued half, m and m' on the branches
            low = model.class_of[("I", F(1, 4))]
            assert model.class_of[("Ip", F(1, 4))] == low
            assert model.weights[low] == m + mp
            hi_i = model.class_of[("I", F(3, 4))]
            hi_ip = model.class_of[("Ip", F(3, 4))]
            assert hi_i != hi_ip
            assert model.weights[hi_i] == m
            assert model.weights[hi_ip] == mp
            # the branch locus is closed: glued at 1/2, split above it
            assert model.class_of[("I", F(1, 2))] == model.class_of[("Ip", F(1, 2))]
            assert model.class_of[("I", F(5, 8))] != model.class_of[("Ip", F(5, 8))]
            # ∂[Z] = [∂¹Z] − [∂⁰Z] as weighted signed 0-classes
            assert model.boundary_identity == 0
            assert model.boundary_in.total == m + mp
            assert model.boundary_out.total == m + mp


# ---------------------------------------------------------------------------
# 5: category and groupoid laws
# ---------------------------------------------------------------------------


def _toy_reduction(atlas):
    """A genuine reduction for a toy atlas: each footprint label x goes to
    the chart indexed by its full intersection pattern D(x), plus the
    single basic chart min D(x) — so closures of non-nested V's stay
    disjoint while nested overlaps survive."""
    label_pattern = {
        x: tuple(sorted(i for i, s in atlas.cover.items() if x in s))
        for x in atlas.x_labels
    }
    sets = {}
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        keep = set()
        for idx, lab in chart.footprint_map.items():
            D = label_pattern[lab]
            if D == I or (len(D) > 1 and I == (min(D),)):
                keep.add(idx)
        sets[I] = frozenset(keep)
    return Reduction(sets=sets)


def _category_laws(atlas, V=None):
    cats = build_categories(atlas)
    assert cats.report.ok, cats.report.failures
    if V is None:
        V = _toy_reduction(atlas)
        rep = check_reduction(atlas, V)
        assert rep.ok, rep.failures
    pruned = build_pruned_category(atlas, V)
    assert pruned.ok, pruned.failures
    zsets = {
        I: frozenset(
            set(V.sets[I]) & set(atlas.charts[I].zero_sample_indices())
        )
        for I in atlas.index_sets()
    }
    completed = complete_groupoid(atlas, V, zsets, build_categories(atlas))
    assert completed.report.ok, completed.report.failures


class TestCategoryLaws:
    def test_football_atlas_laws(self):
        built = build_example(ExampleDescriptor("football-atlas", {"density": 12}))
        _category_laws(built.atlas, built.V)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_toy_atlas_laws(self, seed):
        _category_laws(random_toy_atlas(seed))


# ---------------------------------------------------------------------------
# 6: zero signs against the float determinant
# ---------------------------------------------------------------------------


def _random_invertible(rng: random.Random, n: int) -> np.ndarray:
    """A random invertible n x n float matrix of small dyadic rationals."""
    while True:
        mat = np.array(
            [[rng.randint(-4, 4) / rng.choice([1, 1, 2, 4]) for _ in range(n)] for _ in range(n)]
        )
        if abs(np.linalg.det(mat)) > 1e-9:  # a nonzero det is a multiple of 4**-n
            return mat


class TestOrientationEngine:
    def test_zero_sign_matches_determinant(self):
        rng = random.Random(113)
        for _ in range(50):
            mat = _random_invertible(rng, rng.randint(1, 4))
            assert zero_sign(mat) == (1 if np.linalg.det(mat) > 0 else -1)


# ---------------------------------------------------------------------------
# 7: Λ well-definedness across charts and formulas
# ---------------------------------------------------------------------------


class TestWeightWellDefined:
    @pytest.mark.parametrize("name", MULTI_CHART_EXAMPLES)
    def test_both_formulas_agree_per_class(self, name):
        built = build_example(ExampleDescriptor(name, {"density": 8}))
        if built.kind == "euler":
            # perturbed zero set: the orbit closures of the two disk centers
            zsets = {
                I: frozenset()
                for I in built.atlas.index_sets()
            }
            zsets[(1,)] = frozenset(built.atlas.charts[(1,)].domain.orbit(0))
            zsets[(2,)] = frozenset(built.atlas.charts[(2,)].domain.orbit(0))
        else:
            zsets = _all_zero_zsets(built)
        hausdorff, weights = _zero_classes(built, zsets)
        by_class: dict = {}
        for (I, idx) in hausdorff.objects:
            by_class.setdefault(hausdorff.class_of[(I, idx)], {}).setdefault(
                I, set()
            ).add(idx)
        basic_order = {
            i: built.atlas.charts[(i,)].group.order
            for i in built.atlas.basic_indices()
        }
        for p, fibers in by_class.items():
            fp = hausdorff.minimal_footprint[p]
            vals = set()
            for I, idxs in fibers.items():
                gi = built.atlas.charts[I].group.order
                # formula 1: fiber count over the footprint / |Γ_I|
                vals.add(F(len(idxs), gi))
                # formula 2: |Γ_{I∖F_p}| / |Γ_I|
                kernel = math.prod(basic_order[i] for i in I if i not in fp)
                vals.add(F(kernel, gi))
            assert vals == {weights[p]}, (p, fp, fibers, vals, weights[p])


# ---------------------------------------------------------------------------
# 8: realization identifications
# ---------------------------------------------------------------------------


class TestRealizations:
    @pytest.mark.parametrize("name", ALL_ATLAS_EXAMPLES)
    def test_full_vs_intermediate_bijection(self, name):
        built = build_example(ExampleDescriptor(name, {"density": 8}))
        cats = build_categories(built.atlas)
        assert cats.report.ok
        rep = check_realizations(built.atlas, cats.domain_category)
        assert rep.ok, rep.failures
        assert rep.details["full_classes"] == rep.details["intermediate_classes"]
        inter = built.atlas.intermediate_classes()
        # the footprint-carrying part of |K̲| recovers X: exactly one
        # class per footprint label (obstruction samples carry none)
        class_labels: dict = {}
        for I in built.atlas.index_sets():
            rows = built.atlas.sample_rows(I)
            for idx, lab in built.atlas.charts[I].footprint_map.items():
                class_labels.setdefault(int(inter[rows[idx]]), set()).add(lab)
        assert all(len(labs) == 1 for labs in class_labels.values())
        assert len(class_labels) == len(built.atlas.x_labels)

    @pytest.mark.parametrize("name", ("sphere-euler", "football-euler"))
    def test_zero_classes_biject_with_x_samples(self, name):
        report, code = _run(name, density=8)
        assert code == 0
        footprints = [
            tuple(z["minimal_footprint"]) for z in report["zero_set"]["zeros"]
        ]
        # one zero class per zero footprint sample, and they are distinct
        labels = {
            (tuple(z["chart"]), tuple(z["coordinates"]))
            for z in report["zero_set"]["zeros"]
        }
        assert len(labels) == len(report["zero_set"]["zeros"])
        assert sorted(footprints) == [(1,), (2,)]
        assert len(report["classes"]) == len(report["zero_set"]["zeros"])


# ---------------------------------------------------------------------------
# negative tests: every validator rejects a purpose-built broken model
# ---------------------------------------------------------------------------


class TestNegative:
    @pytest.fixture()
    def built(self):
        return build_example(ExampleDescriptor("football-atlas", {"density": 8}))

    def test_atlas_model_rejects_missing_overlap_chart(self, built):
        atlas = built.atlas
        charts = {I: c for I, c in atlas.charts.items() if I != (1, 2)}
        broken = type(atlas)(
            x_labels=atlas.x_labels,
            cover=atlas.cover,
            charts=charts,
            changes={},
            metric=atlas.metric,
        )
        assert not check_atlas_model(broken).ok

    def test_chart_rejects_broken_perm(self, built):
        atlas = built.atlas
        chart = atlas.charts[(2,)]
        perms = chart.domain.perms.copy()
        perms[1] = perms[chart.group.identity]  # g1 no longer acts freely
        domain = type(chart.domain)(
            points=chart.domain.points, group=chart.domain.group, perms=perms
        )
        broken_chart = type(chart)(
            index=chart.index,
            domain=domain,
            obstruction_dim=chart.obstruction_dim,
            obstruction_action=chart.obstruction_action,
            obstruction_points=chart.obstruction_points,
            section_samples=chart.section_samples,
            footprint_map=chart.footprint_map,
        )
        charts = dict(atlas.charts)
        charts[(2,)] = broken_chart
        broken = type(atlas)(
            x_labels=atlas.x_labels,
            cover=atlas.cover,
            charts=charts,
            changes=atlas.changes,
            metric=atlas.metric,
        )
        assert not check_chart(broken, (2,)).ok

    def test_coordinate_change_rejects_bad_rho(self, built):
        atlas = built.atlas
        change = atlas.changes[((1,), (1, 2))]
        rho = dict(change.rho_idx)
        y0 = change.tilde_indices[0]
        y1 = change.tilde_indices[1]
        rho[y0], rho[y1] = rho[y1], rho[y0]
        broken_change = type(change)(
            source_index=change.source_index,
            target_index=change.target_index,
            tilde_indices=change.tilde_indices,
            rho_idx=rho,
            phi_hat=change.phi_hat,
            rho_asts=change.rho_asts,
            tilde_tangent_dims=change.tilde_tangent_dims,
        )
        changes = dict(atlas.changes)
        changes[((1,), (1, 2))] = broken_change
        broken = type(atlas)(
            x_labels=atlas.x_labels,
            cover=atlas.cover,
            charts=atlas.charts,
            changes=changes,
            metric=atlas.metric,
        )
        assert not check_coordinate_change(broken, (1,), (1, 2)).ok

    def test_tame_rejects_truncated_tilde(self, built):
        atlas = built.atlas
        change = atlas.changes[((1,), (1, 2))]
        # drop a whole Γ-orbit so an intermediate class leaves the overlap
        gone = set(atlas.charts[(1, 2)].domain.orbit(0))
        keep = tuple(y for y in change.tilde_indices if y not in gone)
        broken_change = type(change)(
            source_index=change.source_index,
            target_index=change.target_index,
            tilde_indices=keep,
            rho_idx={y: change.rho_idx[y] for y in keep},
            phi_hat=change.phi_hat,
            rho_asts=change.rho_asts,
            tilde_tangent_dims=change.tilde_tangent_dims,
        )
        changes = dict(atlas.changes)
        changes[((1,), (1, 2))] = broken_change
        broken = type(atlas)(
            x_labels=atlas.x_labels,
            cover=atlas.cover,
            charts=atlas.charts,
            changes=changes,
            metric=atlas.metric,
        )
        assert not check_tame_and_filtration(broken).ok

    def test_cocycle_strong_requires_all_changes(self):
        atlas = build_toy_cocycle_gap()
        assert not check_cocycle(atlas, "strong").ok

    def test_missing_change_is_a_failed_clause(self):
        atlas = build_toy_cocycle_gap()
        gap = ((1,), (1, 2, 3))
        assert gap not in atlas.changes
        rep = check_tame_and_filtration(atlas)
        assert rep.failures == [{"clause": "missing_change", "pair": gap}]
        everything = {
            I: frozenset(range(len(atlas.charts[I].domain.points)))
            for I in atlas.index_sets()
        }
        rep = check_reduction(atlas, Reduction(sets=everything))
        assert {"clause": "missing_change", "pair": gap} in rep.failures

    def test_cli_check_missing_change_exits_one(self, tmp_path):
        doc = tmp_path / "gap.json"
        doc.write_text(json.dumps(atlas_to_json(build_toy_cocycle_gap())))
        out = tmp_path / "report.json"
        res = CliRunner().invoke(main, ["check", str(doc), "--json", str(out)])
        assert res.exit_code == 1, res.output
        assert "schema error" not in res.output
        failed = {
            st["name"]: [f["clause"] for f in st["failures"]]
            for st in json.loads(out.read_text())["stages"]
            if not st["ok"]
        }
        assert failed == {
            "cocycle[strong]": ["missing_change", "missing_change"],
            "tame_and_filtration": ["missing_change"],
        }

    def test_reduction_rejects_non_invariant_set(self, built):
        sets = dict(built.V.sets)
        orbit_rep = min(built.atlas.charts[(1, 2)].domain.orbit(0))
        sets[(1, 2)] = frozenset(set(sets[(1, 2)]) - {orbit_rep})
        broken = Reduction(sets=sets)
        assert not check_reduction(built.atlas, broken).ok

    def test_categories_reject_missing_composite(self):
        # (1) → (1,2) → (1,2,3) compose to a morphism (1) → (1,2,3), but
        # that coordinate change is gone: neither B_K nor E_K is closed
        out = build_categories(build_toy_cocycle_gap())
        b12, b13 = ((1,), (1, 2), 0, "e"), ((1,), (1, 3), 0, "e")
        c12, c13 = ((1, 2), (1, 2, 3), 0, "e|e"), ((1, 3), (1, 2, 3), 0, "e|e")
        e12 = ((1,), (1, 2), 0, 0, "e")
        d12 = ((1, 2), (1, 2, 3), 0, 0, "e|e")
        assert out.report.failures == [
            {"clause": "composability_violated", "pair": (b12, c12),
             "result": ((1,), (1, 2, 3), 0, "e")},
            {"clause": "composability_violated", "pair": (b13, c13),
             "result": ((1,), (1, 2, 3), 0, "e")},
            {"clause": "composable_pair_undefined", "pair": (b12, c12),
             "from": "category_axioms"},
        ]
        # E_K lies over B_K and misses the same composites
        assert check_category(out.obstruction_category).failures == [
            {"clause": "composable_pair_undefined", "pair": (e12, d12)},
        ]

    def test_completed_groupoid_rejects_missing_composite(self):
        atlas = build_toy_cocycle_gap()
        everything = {
            I: frozenset(range(len(atlas.charts[I].domain.points)))
            for I in atlas.index_sets()
        }
        zsets = {
            I: frozenset(atlas.charts[I].zero_sample_indices())
            for I in atlas.index_sets()
        }
        red = Reduction(sets=everything)
        rep = complete_groupoid(atlas, red, zsets, build_categories(atlas)).report
        assert rep.failures == [
            {"clause": "not_closed_under_composition",
             "pair": (((1,), J, 0, "e"), (J, (1, 2, 3), 0, "e|e")),
             "result": ((1,), (1, 2, 3), 0, "e")}
            for J in ((1, 2), (1, 3))
        ]

    def test_realization_rejects_category_without_changes(self):
        atlas = random_toy_atlas(3)
        B = build_categories(atlas).domain_category
        local = tuple(m for m in B.morphisms if m[0] == m[1])
        # |K| without the coordinate changes splits classes that |K̲| joins
        doctored = category_from_labels(
            objects=B.objects,
            morphisms=local,
            source=B.source,
            target=B.target,
            compose={},
            identity_of=B.identity_of,
        )
        rep = check_realizations(atlas, doctored)
        assert rep.failures == [
            {"clause": "realization_not_bijective", "full": 9, "intermediate": 5},
            {"clause": "zero_classes_not_bijective_with_footprint", "classes": 9, "footprint": 5},
        ]

    def test_realization_rejects_projection_across_classes(self):
        atlas = build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas
        B = build_categories(atlas).domain_category
        # one extra morphism joins two samples of chart (1, 2) whose
        # classes in |K̲| differ; off the zero set, so no footprint clause
        a, b = ((1, 2), 144), ((1, 2), 167)
        extra = ("extra",)
        doctored = category_from_labels(
            objects=B.objects,
            morphisms=B.morphisms + (extra,),
            source={**B.source, extra: a},
            target={**B.target, extra: b},
            compose={},
            identity_of=B.identity_of,
        )
        rep = check_realizations(atlas, doctored)
        # the merged class is the 26th of |K| in label order
        assert rep.failures == [
            {"clause": "projection_not_well_defined", "full_class": 25},
            {"clause": "realization_not_bijective", "full": 29, "intermediate": 30},
        ]

    def test_realization_rejects_split_zero_classes(self):
        atlas = build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas
        B = build_categories(atlas).domain_category
        zeros = {(I, x) for I in atlas.index_sets() for x in atlas.charts[I].zero_sample_indices()}
        # drop the coordinate-change morphisms between zero samples
        kept = tuple(
            m for m in B.morphisms
            if m[0] == m[1] or B.source[m] not in zeros or B.target[m] not in zeros
        )
        doctored = category_from_labels(
            objects=B.objects,
            morphisms=kept,
            source=B.source,
            target=B.target,
            compose={},
            identity_of=B.identity_of,
        )
        rep = check_realizations(atlas, doctored)
        assert rep.failures == [
            {"clause": "realization_not_bijective", "full": 78, "intermediate": 30},
            {"clause": "zero_classes_not_bijective_with_footprint", "classes": 74, "footprint": 26},
        ]

    def test_realization_rejects_mixed_zero_footprints(self):
        atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 2, 2: 1})
        chart = atlas.charts[(1, 2)]
        # relabel one zero sample of the overlap chart: the morphism from
        # chart 1 now joins a "b" sample to an "a" sample
        footprint = dict(chart.footprint_map)
        footprint[min(footprint)] = "a"
        charts = dict(atlas.charts)
        charts[(1, 2)] = dataclasses.replace(chart, footprint_map=footprint)
        doctored = dataclasses.replace(atlas, charts=charts)
        B = build_categories(doctored).domain_category
        rep = check_realizations(doctored, B)
        assert rep.failures == [
            {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 2)},
            {"clause": "zero_classes_not_bijective_with_footprint", "classes": 3, "footprint": 3},
        ]

    def test_mixed_zero_classes_come_in_representative_order(self):
        atlas = build_example(ExampleDescriptor("sphere-euler", {"density": 8})).atlas
        B = build_categories(atlas).domain_category
        # three extra morphisms, each joining two zero samples of chart (2,)
        # with distinct footprint labels
        pairs = [(((2,), 5), ((2,), 6)), (((2,), 7), ((2,), 8)), (((2,), 1), ((2,), 0))]
        extra = [("extra", k) for k in range(len(pairs))]
        doctored = category_from_labels(
            objects=B.objects,
            morphisms=B.morphisms + tuple(extra),
            source={**B.source, **{m: a for m, (a, _) in zip(extra, pairs)}},
            target={**B.target, **{m: b for m, (_, b) in zip(extra, pairs)}},
            compose={},
            identity_of=B.identity_of,
        )
        rep = check_realizations(atlas, doctored)
        assert rep.failures == [
            {"clause": "projection_not_well_defined", "full_class": 1},
            {"clause": "projection_not_well_defined", "full_class": 2},
            {"clause": "projection_not_well_defined", "full_class": 3},
            {"clause": "realization_not_bijective", "full": 27, "intermediate": 30},
            {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 1)},
            {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 2)},
            {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 4)},
        ]


def build_toy_cocycle_gap():
    """A three-chart toy atlas with one coordinate change deleted."""
    atlas = build_toy_atlas(
        {1: {"a", "b"}, 2: {"b", "c"}, 3: {"b"}},
        ["a", "b", "c"],
        {1: 1, 2: 1, 3: 1},
    )
    changes = dict(atlas.changes)
    removed = next(k for k in changes if len(k[1]) == 3 and len(k[0]) == 1)
    del changes[removed]
    return type(atlas)(
        x_labels=atlas.x_labels,
        cover=atlas.cover,
        charts=atlas.charts,
        changes=changes,
        metric=atlas.metric,
    )
