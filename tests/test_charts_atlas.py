import ast
import dataclasses
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vfc import charts_atlas
from vfc.charts_atlas import (
    AtlasModel,
    ChartModel,
    CoordinateChangeModel,
    FiniteCategory,
    FiniteGroup,
    GroupQuotientModel,
    PairIndex,
    atlas_from_json,
    atlas_to_json,
    build_categories,
    check_atlas_model,
    check_category,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_group_covering,
    check_group_quotient,
    check_realizations,
    check_tame_and_filtration,
    cyclic_group,
    product_group,
    quotient,
    trivial_group,
)
from vfc.examples_cli import build_toy_atlas, random_toy_atlas
from vfc.expressions import num, var

import test_category_proof
from test_category_proof import first_non_associative

F = Fraction


@pytest.fixture
def toy3():
    cover = {1: {"a", "b", "c"}, 2: {"b", "c", "d"}, 3: {"c", "d", "e"}}
    return build_toy_atlas(cover, ["a", "b", "c", "d", "e"], {1: 2, 2: 3, 3: 1})


@pytest.fixture
def toy2():
    cover = {1: {"a", "b"}, 2: {"b", "c"}}
    return build_toy_atlas(cover, ["a", "b", "c"], {1: 2, 2: 3})


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


class TestFiniteGroup:
    def test_cyclic_valid(self):
        assert cyclic_group(4).validate().ok

    def test_broken_table(self):
        g = cyclic_group(2)
        table = g.table.copy()
        table[1, 1] = 1  # idempotent non-identity breaks inverses
        bad = FiniteGroup(g.elements, table, 0)
        assert not bad.validate().ok

    def test_product_and_projection(self, toy2):
        p = product_group([cyclic_group(2), cyclic_group(3)])
        assert p.order == 6
        name = p.elements
        assert name[p.mul(name.index("g1|g1"), name.index("g1|g2"))] == "e|e"
        g1g2 = toy2.charts[(1, 2)].group.elements.index("g1|g2")
        for I, want in (((2,), "g2"), ((1,), "g1")):
            got = toy2.projection[(I, (1, 2))][g1g2]
            assert toy2.charts[I].group.elements[got] == want

    def test_kernel_labels(self, toy2):
        names = toy2.charts[(1, 2)].group.elements
        ker = toy2.kernel((1,), (1, 2))
        assert sorted(names[g] for g in ker) == ["e|e", "e|g1", "e|g2"]


# ---------------------------------------------------------------------------
# group quotients
# ---------------------------------------------------------------------------


def _z2_on_4_points():
    g = cyclic_group(2)
    pts = tuple((F(k),) for k in range(4))
    perms = [(0, 1, 2, 3), (1, 0, 3, 2)]
    return GroupQuotientModel(points=pts, group=g, perms=perms)


class TestGroupQuotient:
    def test_trivial_group(self):
        m = GroupQuotientModel(
            points=((F(0),), (F(1),)),
            group=trivial_group(),
            perms=[(0, 1)],
        )
        rep = check_group_quotient(m)
        assert rep.ok
        assert rep.details["num_classes"] == 2

    def test_z2_free(self):
        m = _z2_on_4_points()
        rep = check_group_quotient(m)
        assert rep.ok
        assert rep.details["num_classes"] == 2
        assert rep.details["stabilizer_orders"] == [1, 1]

    def test_action_law_violation(self):
        g = cyclic_group(2)
        m = GroupQuotientModel(
            points=((F(0),), (F(1),), (F(2),)),
            group=g,
            perms=[(0, 1, 2), (1, 2, 0)],  # order 3 ≠ order of g1
        )
        rep = check_group_quotient(m)
        assert any(f["clause"] == "action_law" for f in rep.failures)

    def test_affine_mismatch(self):
        # e: x ↦ −x sends 1 to −1; g: x ↦ 1 − x swaps 0 and 1 but sends 2 to −1
        m = dataclasses.replace(_z2_on_4_points(), affine=[[[-1, 0]], [[-1, 1]]])
        rep = check_group_quotient(m)
        e, g = m.group.elements
        assert rep.failures == [
            {"clause": "affine_vs_permutation", "element": e, "point": 1},
            {"clause": "affine_vs_permutation", "element": g, "point": 2},
        ]
        assert check_group_quotient(
            dataclasses.replace(m, affine=[[[1, 0]], [[-1, 1]]])
        ).failures == [{"clause": "affine_vs_permutation", "element": g, "point": 2}]


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


class TestChart:
    def test_toy_charts_pass(self, toy3):
        for I in toy3.index_sets():
            assert check_chart(toy3, I).ok

    def test_footprint_not_bijective(self, toy2):
        chart = toy2.charts[(1,)]
        broken = dict(chart.footprint_map)
        first = next(iter(broken))
        broken[first] = "zzz"
        chart2 = ChartModel(
            index=chart.index,
            domain=chart.domain,
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=chart.obstruction_points,
            section_samples=chart.section_samples,
            footprint_map=broken,
        )
        shadow = AtlasModel(
            x_labels=toy2.x_labels,
            cover=toy2.cover,
            charts={**toy2.charts, (1,): chart2},
            changes=toy2.changes,
        )
        rep = check_chart(shadow, (1,))
        assert rep.failures == [
            {"clause": "footprint_not_class_constant", "point": 1},
            {"clause": "footprint_not_bijective", "footprint": ["a", "b"], "mapped": ["b", "zzz"]},
        ]

    def test_section_equivariance_violation(self):
        # dim-1 obstruction with a sign action; constant nonzero section
        g = cyclic_group(2)
        pts = ((F(0),), (F(1),))
        domain = GroupQuotientModel(points=pts, group=g, perms=[(0, 1), (1, 0)])
        chart = ChartModel(
            index=(1,),
            domain=domain,
            obstruction_dim=1,
            obstruction_action=[[[1]], [[-1]]],
            obstruction_points=((F(0),), (F(1),), (F(-1),)),
            section_samples=((F(1),), (F(1),)),  # should flip sign, doesn't
            footprint_map={},
        )
        atlas = AtlasModel(
            x_labels=(), cover={1: frozenset()}, charts={(1,): chart}, changes={}
        )
        rep = check_chart(atlas, (1,))
        assert any(f["clause"] == "section_not_equivariant" for f in rep.failures)


def _z3_in_basis_p(samples):
    """Z_3 acting on E = R² by B = P·[[0, −1], [1, −1]]·P⁻¹ = [[0, −1/2],
    [2, −1]] with P = diag(1, 2), freely on three points; its grid is the
    orbit of ±(1, 0), 0 and the orbit of :func:`_orbit_in_basis_p`, and
    ``samples`` are the section values."""
    B = np.array([[F(0), F(-1, 2)], [F(2), F(-1)]])
    g = cyclic_group(3)
    domain = GroupQuotientModel(
        points=((F(0),), (F(1),), (F(2),)), group=g, perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    )
    grid = [(F(0), F(0))] + [
        (s * a, s * b) for a, b in ((1, 0), (0, 2), (-1, -2)) for s in (1, -1)
    ] + _orbit_in_basis_p()
    chart = ChartModel(
        index=(1,),
        domain=domain,
        obstruction_dim=2,
        obstruction_action=[[[1, 0], [0, 1]], B, B @ B],
        obstruction_points=grid,
        section_samples=samples,
        footprint_map={},
    )
    return AtlasModel(x_labels=(), cover={1: frozenset()}, charts={(1,): chart}, changes={})


def _orbit_in_basis_p():
    """s(x_k) = B^k·w for w = (1/3, 1/2): an equivariant section."""
    return [(F(1, 3), F(1, 2)), (F(-1, 4), F(1, 6)), (F(-1, 12), F(-2, 3))]


class TestNonIntegralAction:
    def test_chart_passes_in_basis_p(self):
        atlas = _z3_in_basis_p(_orbit_in_basis_p())
        assert atlas.charts[(1,)].obstruction_action.den == 2
        assert check_chart(atlas, (1,)).ok

    def test_moved_sample_not_equivariant(self):
        samples = _orbit_in_basis_p()
        samples[1] = (F(-1, 4), F(1, 5))
        rep = check_chart(_z3_in_basis_p(samples), (1,))
        assert rep.failures[0] == {
            "clause": "section_not_equivariant", "element": "g1", "point": 0
        }


# ---------------------------------------------------------------------------
# coverings and coordinate changes
# ---------------------------------------------------------------------------


class TestGroupCovering:
    def test_identity_covering(self, toy2):
        rep = check_group_covering(toy2, (1,), (1,))
        assert rep.ok

    def test_toy_covering(self, toy2):
        rep = check_group_covering(toy2, (1,), (1, 2))
        assert rep.ok
        assert rep.details["kernel_order"] == 3  # Γ_2 = Z_3

    def test_kernel_fixed_point(self, toy2):
        chart = toy2.charts[(1, 2)]
        perms = chart.domain.perms.copy()
        perms[toy2.kernel((1,), (1, 2))] = perms[chart.group.identity]
        domain = GroupQuotientModel(
            points=chart.domain.points, group=chart.group, perms=perms
        )
        chart2 = ChartModel(
            index=chart.index,
            domain=domain,
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=chart.obstruction_points,
            section_samples=chart.section_samples,
            footprint_map=chart.footprint_map,
        )
        shadow = AtlasModel(
            x_labels=toy2.x_labels,
            cover=toy2.cover,
            charts={**toy2.charts, (1, 2): chart2},
            changes=toy2.changes,
        )
        rep = check_group_covering(shadow, (1,), (1, 2))
        assert any(f["clause"] == "kernel_action_not_free" for f in rep.failures)


def _tbc_fixture(phi_entries, section_asts):
    """Minimal I ⊊ J pair with 1- and 2-dim obstruction for tbc tests."""
    gI = trivial_group()
    chart_I = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=((F(0),),), group=gI, perms=[(0,)]
        ),
        obstruction_dim=1,
        obstruction_action=[[[1]]],
        obstruction_points=((F(0),), (F(1),), (F(-1),)),
        section_samples=((F(0),),),
        footprint_map={0: "p"},
        section_asts=(["num", "0/1"],),
        tangent_dims=(0,),
    )
    gJ = product_group([trivial_group(), trivial_group()])
    chart_J = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(
            points=((F(0), F(0)),), group=gJ, perms=[(0,)]
        ),
        obstruction_dim=2,
        obstruction_action=[[[1, 0], [0, 1]]],
        obstruction_points=(
            (F(0), F(0)),
            (F(1), F(0)),
            (F(-1), F(0)),
            (F(0), F(1)),
            (F(0), F(-1)),
            (F(1), F(2)),
            (F(-1), F(-2)),
        ),
        section_samples=((F(0), F(0)),),
        footprint_map={0: "p"},
        section_asts=section_asts,
        tangent_dims=(0, 1),
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=(0,),
        rho_idx={0: 0},
        phi_hat=phi_entries,
        tilde_tangent_dims=(1,),
    )
    return AtlasModel(
        x_labels=("p",),
        cover={1: frozenset({"p"}), 2: frozenset({"p"})},
        charts={
            (1,): chart_I,
            (2,): dataclasses.replace(chart_I, index=(2,)),
            (1, 2): chart_J,
        },
        changes={((1,), (1, 2)): change},
    )


class TestCoordinateChange:
    def test_toy_changes_pass(self, toy3):
        for (I, J) in toy3.changes:
            assert check_coordinate_change(toy3, I, J).ok

    def test_tbc_passes(self):
        # s_J(a, t) = (a, 2a): complement column (1, 2), φ̂ = (1, 0)ᵀ
        atlas = _tbc_fixture(
            [[F(1)], [F(0)]],
            (["var", 0], ["*", ["num", "2/1"], ["var", 0]]),
        )
        assert check_coordinate_change(atlas, (1,), (1, 2)).ok

    def test_tbc_fails_when_degenerate(self):
        # s_J(a, t) = (a, 0): block [[1,1],[0,0]] singular
        atlas = _tbc_fixture(
            [[F(1)], [F(0)]],
            (["var", 0], ["num", "0/1"]),
        )
        rep = check_coordinate_change(atlas, (1,), (1, 2))
        assert any(
            f["clause"] == "tangent_bundle_condition" for f in rep.failures
        )

    def test_noninjective_phi_hat(self):
        atlas = _tbc_fixture(
            [[F(0)], [F(0)]],
            (["var", 0], ["*", ["num", "2/1"], ["var", 0]]),
        )
        rep = check_coordinate_change(atlas, (1,), (1, 2))
        assert any(f["clause"] == "cokernel" for f in rep.failures)

    def test_index_condition_violation(self):
        atlas = _tbc_fixture(
            [[F(1)], [F(0)]],
            (["var", 0], ["*", ["num", "2/1"], ["var", 0]]),
        )
        chart = atlas.charts[(1,)]
        chart.tangent_dims = ()  # now n_J - n_I = 2 ≠ m_J - m_I = 1
        rep = check_coordinate_change(atlas, (1,), (1, 2))
        assert any(f["clause"] == "index_condition" for f in rep.failures)


class TestCocycle:
    def test_two_charts_vacuous(self, toy2):
        rep = check_cocycle(toy2, "strong")
        assert rep.ok
        assert rep.details["triples"] == 0

    def test_toy3_strong(self, toy3):
        for strength in ("weak", "cocycle", "strong"):
            assert check_cocycle(toy3, strength).ok

    def test_shrunk_domain_breaks_strong_only(self, toy3):
        cIK = toy3.changes[((1,), (1, 2, 3))]
        chart_K = toy3.charts[(1, 2, 3)]
        cls = chart_K.domain.class_index_of()
        drop_class = cls[cIK.tilde_indices[0]]
        kept = tuple(y for y in cIK.tilde_indices if cls[y] != drop_class)
        shrunk = CoordinateChangeModel(
            source_index=cIK.source_index,
            target_index=cIK.target_index,
            tilde_indices=kept,
            rho_idx={y: cIK.rho_idx[y] for y in kept},
            phi_hat=cIK.phi_hat,
        )
        shadow = AtlasModel(
            x_labels=toy3.x_labels,
            cover=toy3.cover,
            charts=toy3.charts,
            changes={**toy3.changes, ((1,), (1, 2, 3)): shrunk},
        )
        assert check_cocycle(shadow, "weak").ok
        assert not check_cocycle(shadow, "strong").ok


class TestTameAndFiltration:
    def test_toy_atlases_tame(self, toy2, toy3):
        for atlas in (toy2, toy3):
            rep = check_tame_and_filtration(atlas)
            assert rep.ok
            # tameness implies the strong cocycle condition
            assert check_cocycle(atlas, "strong").ok

    def test_deleted_sample_reported(self, toy3):
        cIJ = toy3.changes[((1,), (1, 2))]
        chart_J = toy3.charts[(1, 2)]
        cls = chart_J.domain.class_index_of()
        # delete a class that also lies in the triple overlap
        triple_labels = toy3.footprint((1, 2, 3))
        drop = None
        for y in cIJ.tilde_indices:
            lab = chart_J.footprint_map[y]
            if lab in triple_labels:
                drop = cls[y]
                break
        kept = tuple(y for y in cIJ.tilde_indices if cls[y] != drop)
        shrunk = CoordinateChangeModel(
            source_index=cIJ.source_index,
            target_index=cIJ.target_index,
            tilde_indices=kept,
            rho_idx={y: cIJ.rho_idx[y] for y in kept},
            phi_hat=cIJ.phi_hat,
        )
        shadow = AtlasModel(
            x_labels=toy3.x_labels,
            cover=toy3.cover,
            charts=toy3.charts,
            changes={**toy3.changes, ((1,), (1, 2)): shrunk},
        )
        rep = check_tame_and_filtration(shadow)
        assert not rep.ok


class TestImageAnnihilator:
    @pytest.mark.parametrize("phi, rank, inside, outside", [
        ([[F(1), F(0)], [F(0), F(1)], [F(0), F(0)], [F(0), F(0)]], 2,
         (F(1, 2), F(-3), F(0), F(0)), (F(0), F(0), F(1, 7), F(0))),
        ([[F(1)], [F(2)]], 1, (F(-1, 3), F(-2, 3)), (F(1), F(1))),
        ([[], []], 0, (F(0), F(0)), (F(0), F(1, 2))),
    ])
    def test_kernel_is_the_image(self, phi, rank, inside, outside):
        change = CoordinateChangeModel((1,), (1, 2), (), {}, phi)
        N = change.image_annihilator
        assert N.dtype == np.int64
        assert len(N) == len(phi) - rank
        assert not (N @ change.phi_hat.num).any()
        assert not any(sum(a * c for a, c in zip(row, inside)) for row in N.tolist())
        assert any(sum(a * c for a, c in zip(row, outside)) for row in N.tolist())


class TestAtlasModel:
    def test_toy_additivity(self, toy3):
        assert check_atlas_model(toy3).ok

    def test_missing_transition_chart(self, toy2):
        charts = dict(toy2.charts)
        del charts[(1, 2)]
        changes = {
            k: v for k, v in toy2.changes.items() if k[1] in charts
        }
        shadow = AtlasModel(
            x_labels=toy2.x_labels,
            cover=toy2.cover,
            charts=charts,
            changes=changes,
        )
        rep = check_atlas_model(shadow)
        assert any(f["clause"] == "index_set_mismatch" for f in rep.failures)

    def test_non_additive_group(self, toy2):
        chart = toy2.charts[(1, 2)]
        # claim trivial isotropy on the transition chart
        n = len(chart.domain.points)
        chart2 = ChartModel(
            index=chart.index,
            domain=GroupQuotientModel(
                points=chart.domain.points,
                group=trivial_group(),
                perms=[tuple(range(n))],
            ),
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=((),),
            section_samples=chart.section_samples,
            footprint_map=chart.footprint_map,
        )
        shadow = AtlasModel(
            x_labels=toy2.x_labels,
            cover=toy2.cover,
            charts={**toy2.charts, (1, 2): chart2},
            changes=toy2.changes,
        )
        rep = check_atlas_model(shadow)
        assert any(f["clause"] == "group_not_additive" for f in rep.failures)


# ---------------------------------------------------------------------------
# categories and realizations
# ---------------------------------------------------------------------------


class TestCategories:
    def test_single_chart_action_groupoid(self):
        cover = {1: {"a", "b"}}
        atlas = build_toy_atlas(cover, ["a", "b"], {1: 2})
        out = build_categories(atlas)
        assert out.report.ok
        B = out.domain_category
        assert len(B.objects) == 4  # 2 labels × |Z2|
        assert len(B.morphisms) == 8  # |U|·|Γ|

    def test_toy2_morphism_count(self, toy2):
        out = build_categories(toy2)
        assert out.report.ok
        B = out.domain_category
        # Σ_{I⊆J} |Ũ_IJ|·|Γ_I|
        expected = 0
        for I in toy2.index_sets():
            nI = len(toy2.charts[I].domain.points)
            expected += nI * toy2.charts[I].group.order
        for (I, J), c in toy2.changes.items():
            expected += len(c.tilde_indices) * toy2.charts[I].group.order
        assert len(B.morphisms) == expected

    def test_toy3_axioms_and_functors(self, toy3):
        out = build_categories(toy3)
        assert out.report.ok
        assert check_category(out.domain_category).ok
        assert check_category(out.obstruction_category).ok

    def test_random_toys_axioms(self):
        for seed in range(10):
            atlas = random_toy_atlas(seed)
            assert check_atlas_model(atlas).ok, seed
            assert check_tame_and_filtration(atlas).ok, seed
            out = build_categories(atlas)
            assert out.report.ok, seed


def category_from_labels(objects, morphisms, source: dict, target: dict, compose: dict,
                         identity_of: dict) -> FiniteCategory:
    """The ``FiniteCategory`` of label data; ``compose[(f, g)]`` is "f then g".

    An endpoint that is not an object and a composable pair missing from
    ``compose`` are kept in the arrays; so is a composite or an identity
    that names no morphism, as the index ``len(morphisms)``.  The arrays
    have no place for a ``compose`` entry of a pair that is not composable,
    which is left out.
    """
    objects, morphisms = tuple(objects), tuple(morphisms)
    obj_idx = {o: i for i, o in enumerate(objects)}
    mor_idx = {m: i for i, m in enumerate(morphisms)}
    src_l = [obj_idx.get(source.get(m), -1) for m in morphisms]
    tgt_l = [obj_idx.get(target.get(m), -1) for m in morphisms]
    src, tgt = np.array(src_l, dtype=np.int64), np.array(tgt_l, dtype=np.int64)
    pairs = PairIndex.of(len(objects), src, tgt)
    pair_start, rank = pairs.pair_start.tolist(), pairs.rank.tolist()
    comp = np.full(len(pairs.f), -1, dtype=np.int64)
    for (f, g), h in compose.items():
        fi, gi = mor_idx[f], mor_idx[g]
        if tgt_l[fi] == src_l[gi] >= 0:
            comp[pair_start[fi] + rank[gi]] = mor_idx.get(h, len(morphisms))
    identity = np.full(len(objects), -1, dtype=np.int64)
    for o, m in identity_of.items():
        identity[obj_idx[o]] = mor_idx.get(m, len(morphisms))
    return FiniteCategory(objects, morphisms, src, tgt, identity, pairs, comp)


def _arrow(**changes):
    """The arrow category a --f--> b, with any field replaced."""
    data = {
        "objects": ("a", "b"),
        "morphisms": ("ia", "ib", "f"),
        "source": {"ia": "a", "ib": "b", "f": "a"},
        "target": {"ia": "a", "ib": "b", "f": "b"},
        "compose": {
            ("ia", "ia"): "ia", ("ia", "f"): "f", ("ib", "ib"): "ib", ("f", "ib"): "f",
        },
        "identity_of": {"a": "ia", "b": "ib"},
    }
    data.update(changes)
    return category_from_labels(**data)


def _one_object(table, identity="e"):
    """One object ``o`` whose morphisms are the letters of ``table``, a dict
    ``(f, g) -> "f then g"`` in the order of its keys."""
    morphisms = tuple(dict.fromkeys(f for f, _ in table))
    return category_from_labels(
        ("o",), morphisms, {m: "o" for m in morphisms}, {m: "o" for m in morphisms},
        dict(table), {"o": identity},
    )


def _cyclic_category(n):
    """Z_n as a category with one object; ``e`` is the identity."""
    g = cyclic_group(n)
    name = g.elements
    return _one_object({
        (name[a], name[b]): name[g.mul(a, b)] for a in range(n) for b in range(n)
    })


class TestCategoryClauses:
    """Each clause of ``check_category`` fires on a small doctored
    category, with its witness; the associativity scan, which proofs
    replace where a category is built, is the test-side oracle
    ``first_non_associative``."""

    def test_arrow_category_passes(self):
        rep = check_category(_arrow())
        assert rep.ok
        assert rep.details["objects"] == 2
        assert rep.details["morphisms"] == 3
        assert rep.details["composable_pairs"] == 4

    @pytest.mark.parametrize(
        "changes, failure",
        [
            (
                {"source": {"ia": "a", "ib": "b", "f": "z"}},
                {"clause": "endpoint_outside_objects", "morphism": "f"},
            ),
            (
                {"compose": {("ia", "ia"): "ia", ("ia", "f"): "h", ("ib", "ib"): "ib",
                             ("f", "ib"): "f"}},
                {"clause": "compose_outside_morphisms", "pair": ("ia", "f")},
            ),
            (
                {"compose": {("ia", "ia"): "ia", ("ia", "f"): "ia", ("ib", "ib"): "ib",
                             ("f", "ib"): "f"}},
                {"clause": "compose_endpoints", "pair": ("ia", "f")},
            ),
            (
                {"compose": {("ia", "ia"): "ia", ("ia", "f"): "f", ("ib", "ib"): "ib"}},
                {"clause": "composable_pair_undefined", "pair": ("f", "ib")},
            ),
            (
                {"identity_of": {"a": "ia", "b": "nope"}},
                {"clause": "identity_missing", "object": "b"},
            ),
            (
                {"identity_of": {"a": "ia"}},
                {"clause": "object_without_identity", "object": "b"},
            ),
        ],
    )
    def test_arrow_clause(self, changes, failure):
        assert check_category(_arrow(**changes)).failures == [failure]

    def test_identity_law(self):
        # Z_2 = {e, g1} with g1 declared the identity: g1 then e is g1, not e
        cat = _cyclic_category(2)
        doctored = _one_object(dict(cat.compose), identity="g1")
        assert check_category(cat).ok
        assert check_category(doctored).failures == [
            {"clause": "identity_law", "morphism": "e"}
        ]

    @pytest.mark.parametrize("zero", ["left", "right"])
    def test_one_sided_identity_law(self, zero):
        # "f then g" = g makes e a left identity only, "f then g" = f a
        # right identity only; either way the law fails at a
        table = {(f, g): g if zero == "left" else f for f in "ea" for g in "ea"}
        assert check_category(_one_object(table)).failures == [
            {"clause": "identity_law", "morphism": "a"}
        ]

    def test_associativity(self):
        # a unital magma: x x = x, x y = y x = y y = e; (x x) y = e, x (x y) = x
        table = {
            (a, b): "x" if (a, b) == ("x", "x") else "e" for a in "exy" for b in "exy"
        }
        table.update({("e", m): m for m in "exy"})
        table.update({(m, "e"): m for m in "exy"})
        assert first_non_associative(_one_object(table)) == ("x", "x", "y")
        # ``check_category`` leaves associativity to the proof where a category is built
        assert check_category(_one_object(table)).ok

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 1 << 14])
    def test_associativity_across_chunks(self, chunk, monkeypatch):
        """The first non-associative triple of random unital magmas, as the
        loops over pairs in CSR order and then h find it, in every chunking."""
        monkeypatch.setattr(test_category_proof, "TRIPLE_CHUNK", chunk)
        letters = "eabc"
        for seed in range(30):
            rng = random.Random(seed)
            table = {(f, g): f if g == "e" else g if f == "e" else rng.choice(letters)
                     for f in letters for g in letters}
            want = next(
                (
                    (f, g, h)
                    for f in letters for g in letters for h in letters
                    if table[(table[(f, g)], h)] != table[(f, table[(g, h)])]
                ),
                None,
            )
            assert first_non_associative(_one_object(table)) == want, seed
        assert first_non_associative(_cyclic_category(3)) is None

    def test_int_composite_outside_morphisms(self):
        cat = _arrow()
        comp = cat.comp.copy()
        comp[1] = len(cat.morphisms)  # the pair (ia, f), in CSR order
        assert check_category(dataclasses.replace(cat, comp=comp)).failures == [
            {"clause": "compose_outside_morphisms", "pair": ("ia", "f")}
        ]

    def test_int_identity_outside_morphisms(self):
        cat = _arrow()
        identity = cat.identity.copy()
        identity[1] = len(cat.morphisms)
        assert check_category(dataclasses.replace(cat, identity=identity)).failures == [
            {"clause": "identity_missing", "object": "b"}
        ]


def _apply(matrix, e):
    """The rational matrix ``matrix`` (a list of rows) applied to ``e``."""
    return tuple(sum((a * c for a, c in zip(row, e)), F(0)) for row in matrix)


def _label_obstruction_category(atlas):
    """E_K built on labels by the composition law (I, J, y, e, γ) then
    (J, K, z, e', δ) = (I, K, z, ρ^Γ_{JI}(δ)·e, ρ^Γ_{JI}(δ)·γ), the
    reference for the E_K that ``build_categories`` builds.  ρ^Γ_{JI} is
    read off the element names: δ's components at the places of I in J."""
    indices = atlas.index_sets()
    points = {
        I: [tuple(e) for e in atlas.charts[I].obstruction_points.fractions()] for I in indices
    }
    grid = {I: {e: k for k, e in enumerate(points[I])} for I in indices}
    eact = {
        I: {
            name: tuple(grid[I][_apply(matrix, e)] for e in points[I])
            for name, matrix in zip(
                atlas.charts[I].group.elements,
                atlas.charts[I].obstruction_action.fractions(),
            )
        }
        for I in indices
    }

    def project(label, J, I):
        parts = label.split("|")
        return "|".join(parts[J.index(i)] for i in I)

    def mul(I, a, b):
        name = atlas.charts[I].group.elements
        return name[atlas.charts[I].group.mul(name.index(a), name.index(b))]
    objects = [
        (I, x, e)
        for I in indices
        for x in range(len(atlas.charts[I].domain.points))
        for e in range(len(points[I]))
    ]
    morphisms, source, target = [], {}, {}
    for I in indices:
        for J in indices:
            if not set(I) <= set(J) or (I != J and (I, J) not in atlas.changes):
                continue
            chart = atlas.charts[I]
            group = chart.group
            if I == J:
                m = chart.obstruction_dim
                phi = [[F(int(r == c)) for c in range(m)] for r in range(m)]
                tilde = range(len(chart.domain.points))
                rho = {y: y for y in tilde}
            else:
                change = atlas.changes[(I, J)]
                phi = change.phi_hat.fractions()
                tilde, rho = change.tilde_indices, change.rho_idx
            pmap = [grid[J][_apply(phi, e)] for e in points[I]]
            for y in tilde:
                for c, gamma in enumerate(group.elements):
                    inv = group.inv(c)
                    x = chart.domain.act(inv, rho[y])
                    for e in range(len(points[I])):
                        m = (I, J, y, e, gamma)
                        morphisms.append(m)
                        source[m] = (I, x, eact[I][group.elements[inv]][e])
                        target[m] = (J, y, pmap[e])

    def law(f, g):
        I, J, _, e, gamma = f
        _, K, z, _, delta = g
        proj = project(delta, J, I)
        return (I, K, z, eact[I][proj][e], mul(I, proj, gamma))

    compose = composition_table(morphisms, source, target, law)
    identity_of = {
        (I, x, e): (I, I, x, e, atlas.charts[I].group.elements[atlas.charts[I].group.identity])
        for (I, x, e) in objects
    }
    return objects, morphisms, source, target, compose, identity_of


def composition_table(morphisms, source: dict, target: dict, law) -> dict:
    """``{(f, g): law(f, g)}`` over every composable pair "f then g" whose
    composite is a morphism (a key of ``source``)."""
    by_source: dict = {}
    for m in morphisms:
        by_source.setdefault(source[m], []).append(m)
    table: dict = {}
    for f in morphisms:
        for g in by_source.get(target[f], ()):
            h = law(f, g)
            if h in source:
                table[(f, g)] = h
    return table


def _football_atlas_n8():
    from vfc.examples_cli import ExampleDescriptor, build_example

    return build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas


class TestObstructionCategoryOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_toys(self, seed):
        self._assert_equal(random_toy_atlas(seed))

    def test_football_density_8(self):
        self._assert_equal(_football_atlas_n8())

    def test_small_chunks_find_no_triple(self, monkeypatch):
        out = build_categories(random_toy_atlas(4))
        assert out.report.ok
        # build_categories proves E_K's axioms without a scan: scan them here
        monkeypatch.setattr(test_category_proof, "TRIPLE_CHUNK", 7)
        assert check_category(out.obstruction_category).ok
        assert first_non_associative(out.obstruction_category) is None

    @staticmethod
    def _assert_equal(atlas):
        out = build_categories(atlas)
        assert out.report.ok
        E = out.obstruction_category
        objects, morphisms, source, target, compose, identity_of = (
            _label_obstruction_category(atlas)
        )
        assert tuple(E.objects) == tuple(objects)
        assert tuple(E.morphisms) == tuple(morphisms)
        assert E.source == source
        assert E.target == target
        # same composites, in the same order
        assert list(E.compose.items()) == list(compose.items())
        assert E.identity_of == identity_of


class TestObstructionCategoryInClosedForm:
    """A passing ``build_categories`` takes E_K's axioms from B_K's and from
    the chart, change and cocycle stages, and derives E_K's sizes in
    closed form."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_toys_sizes(self, seed):
        self._assert_sizes(random_toy_atlas(seed))

    @pytest.mark.parametrize("name", ["football-euler", "sphere-euler"])
    def test_euler_density_8_sizes(self, name):
        from vfc.examples_cli import ExampleDescriptor, build_example

        self._assert_sizes(build_example(ExampleDescriptor(name, {"density": 8})).atlas)

    @staticmethod
    def _assert_sizes(atlas):
        out = build_categories(atlas)
        assert out.report.ok
        scan = check_category(out.obstruction_category)
        assert scan.ok
        assert out.report.details["category_axioms_E"] == scan.details

    @pytest.fixture
    def counted(self, monkeypatch):
        """The calls of ``_block_category`` and the ``Labels`` made."""
        calls = {"_block_category": 0, "Labels": 0}
        block, labels = charts_atlas._block_category, charts_atlas.Labels.__init__

        def count(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(charts_atlas, "_block_category", count("_block_category", block))
        monkeypatch.setattr(charts_atlas.Labels, "__init__", count("Labels", labels))
        return calls

    def test_football_density_12_builds_no_obstruction_category(self, counted):
        """A passing run builds B_K only, in a small fraction of the memory
        that E_K takes, and E_K is built once, when first read."""
        import tracemalloc

        from vfc.examples_cli import ExampleDescriptor, build_example

        atlas = build_example(ExampleDescriptor("football-euler", {"density": 12})).atlas
        tracemalloc.start()
        try:
            out = build_categories(atlas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.report.ok
        assert counted == {"_block_category": 1, "Labels": 0}
        assert peak < 10 * 2**20
        assert out.report.details["category_axioms_E"] == {
            "objects": 9528,
            "morphisms": 60115,
            "composable_pairs": 368831,
            "composable_triples": 2236009,
        }
        E = out.obstruction_category
        assert out.obstruction_category is E
        assert counted == {"_block_category": 2, "Labels": 2}
        assert (len(E.objects), len(E.morphisms)) == (9528, 60115)
        # ``len`` of E_K's labels builds none of them
        assert not {"_items"} & (set(vars(E.objects)) | set(vars(E.morphisms)))

    def test_a_failed_law_builds_no_obstruction_category(self, counted):
        """Where φ̂ does not compose, ``check_cocycle`` reports it, and a
        direct call does not build E_K; E_K is built once when read, and its
        check finds the broken law."""
        from test_obstruction_clauses import phi_hats_not_composing_on_the_grid

        atlas = phi_hats_not_composing_on_the_grid()
        assert "phi_hat_composition" in {f["clause"] for f in check_cocycle(atlas).failures}
        out = build_categories(atlas)
        assert counted == {"_block_category": 1, "Labels": 0}
        assert not check_category(out.obstruction_category).ok
        assert counted["_block_category"] == 2


def _vfc_check(tmp_path, atlas) -> int:
    """The exit code of ``vfc check`` on the document of ``atlas``."""
    from click.testing import CliRunner

    from vfc.cli import main

    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(atlas_to_json(atlas)))
    return CliRunner().invoke(main, ["check", str(path)]).exit_code


def test_footprint_functor_not_constant_is_reported(tmp_path):
    """Chart (1, 2) of sphere-euler N=8 with the footprint labels of its
    samples 0 and 1 swapped: each chart is still a bijection onto its
    footprint, but B_K's morphism from (1,) into sample 0 of (1, 2) joins
    two labels, so the footprint functor is not constant on a zero class.
    The realization reports it, and ``vfc check`` fails."""
    from vfc.examples_cli import ExampleDescriptor, build_example

    atlas = build_example(ExampleDescriptor("sphere-euler", {"density": 8})).atlas
    J = (1, 2)
    chart = atlas.charts[J]
    footprint_map = dict(chart.footprint_map)
    footprint_map[0], footprint_map[1] = footprint_map[1], footprint_map[0]
    charts = dict(atlas.charts)
    charts[J] = dataclasses.replace(chart, footprint_map=footprint_map)
    doctored = dataclasses.replace(atlas, charts=charts)
    assert check_chart(doctored, J).ok
    out = build_categories(doctored)
    assert out.report.ok
    assert check_realizations(doctored, out.domain_category).failures == [
        {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 1)},
        {"clause": "zero_class_with_mixed_footprints", "representative": ((1,), 2)},
        {"clause": "zero_classes_not_bijective_with_footprint", "classes": 26, "footprint": 26},
    ]
    assert _vfc_check(tmp_path, doctored) == 1


def test_obstruction_grid_not_phi_closed_is_reported():
    """φ̂ scaled off the obstruction grid: ``check_coordinate_change`` names
    the first grid point φ̂ maps off the target grid, and a direct
    ``build_categories`` call, which takes the fact as given, raises."""
    from vfc.examples_cli import ExampleDescriptor, build_example

    atlas = build_example(ExampleDescriptor("sphere-euler", {"density": 8})).atlas
    changes = dict(atlas.changes)
    key = min(changes)
    scaled = [[3 * x for x in row] for row in changes[key].phi_hat.fractions()]
    changes[key] = dataclasses.replace(changes[key], phi_hat=scaled)
    doctored = dataclasses.replace(atlas, changes=changes)
    assert check_coordinate_change(doctored, *key).failures == [{
        "clause": "obstruction_grid_not_phi_closed", "vector": (Fraction(1, 2), Fraction(0)),
    }]
    with pytest.raises(ValueError, match=r"coordinate change \(1,\)->\(1, 2\): φ̂ maps a grid"):
        build_categories(doctored)


def test_zero_sample_without_footprint_is_reported(tmp_path):
    """A zero sample whose footprint label is missing is a clause of the
    chart and of the realization check, not a ``KeyError``."""
    from vfc.examples_cli import ExampleDescriptor, build_example

    atlas = build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas
    I = next(I for I in atlas.index_sets() if atlas.charts[I].zero_sample_indices())
    chart = atlas.charts[I]
    x = chart.zero_sample_indices()[0]
    footprint_map = {k: v for k, v in chart.footprint_map.items() if k != x}
    charts = dict(atlas.charts)
    charts[I] = dataclasses.replace(chart, footprint_map=footprint_map)
    doctored = dataclasses.replace(atlas, charts=charts)
    assert {"clause": "zero_sample_without_footprint", "point": x} in (
        check_chart(doctored, I).failures)
    out = build_categories(doctored)
    assert out.report.ok
    assert check_realizations(doctored, out.domain_category).failures == [
        {"clause": "zero_sample_without_footprint", "index": I, "point": x},
        {"clause": "zero_classes_not_bijective_with_footprint", "classes": 25, "footprint": 26},
    ]
    assert _vfc_check(tmp_path, doctored) == 1


class TestRealization:
    def test_single_free_z2_chart(self):
        cover = {1: {"a", "b"}}
        atlas = build_toy_atlas(cover, ["a", "b"], {1: 2})
        out = build_categories(atlas)
        rep = check_realizations(atlas, out.domain_category)
        assert rep.details["full_classes"] == 2

    def test_toy_realizations(self, toy2, toy3):
        for atlas in (toy2, toy3):
            out = build_categories(atlas)
            rep = check_realizations(atlas, out.domain_category)
            assert rep.ok
            assert rep.details["zero_classes"] == len(atlas.x_labels)

    def test_full_vs_intermediate_counts(self, toy3):
        out = build_categories(toy3)
        rep = check_realizations(toy3, out.domain_category)
        assert rep.details["full_classes"] == rep.details["intermediate_classes"]
        # realization classes are exactly the footprint samples here
        assert rep.details["full_classes"] == len(toy3.x_labels)

    def test_football_density_12_reads_no_label_view(self):
        """B_K's labels are read only at the boundary: a passing realization
        check builds none of its label views."""
        from vfc.examples_cli import ExampleDescriptor, build_example

        atlas = build_example(ExampleDescriptor("football-euler", {"density": 12})).atlas
        B = build_categories(atlas).domain_category
        assert check_realizations(atlas, B).ok
        assert not {"source", "target", "compose", "identity_of"} & set(vars(B))


def _reference_quotient(n, pairs):
    """Union-find on a dict, joined in any order: per item the smallest
    member of its class."""
    parent = {x: x for x in range(n)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    members: dict = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    return [min(members[find(x)]) for x in range(n)]


@st.composite
def _items_and_pairs(draw):
    n = draw(st.integers(0, 40))
    item = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(item, item), max_size=60)) if n else []
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(_items_and_pairs())
@example((0, []))
@example((5, []))
@example((4, [(2, 2), (3, 3)]))
@example((6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))
def test_quotient_matches_a_union_find(case):
    n, pairs = case
    a, b = [p for p, _ in pairs], [q for _, q in pairs]
    assert quotient(n, a, b).tolist() == _reference_quotient(n, pairs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_round_trip(self, toy3):
        blob = atlas_to_json(toy3)
        text = json.dumps(blob, sort_keys=True)
        again = atlas_from_json(json.loads(text))
        assert again.x_labels == toy3.x_labels
        assert again.index_sets() == toy3.index_sets()
        for I in toy3.index_sets():
            assert (again.charts[I].domain.points.fractions()
                    == toy3.charts[I].domain.points.fractions())
            assert np.array_equal(again.charts[I].domain.perms, toy3.charts[I].domain.perms)
        assert set(again.changes) == set(toy3.changes)
        # deterministic bytes
        assert json.dumps(atlas_to_json(again), sort_keys=True) == text

    def test_affine_round_trip(self):
        """Z₂ and Z₃ act on the pole charts of the football by rotations."""
        from vfc.examples_cli import ExampleDescriptor, build_example

        atlas = build_example(ExampleDescriptor("football-euler", {"density": 8})).atlas
        text = json.dumps(atlas_to_json(atlas), sort_keys=True)
        again = atlas_from_json(json.loads(text))
        for I in ((1,), (2,)):
            affine = again.charts[I].domain.affine
            assert affine.fractions() == atlas.charts[I].domain.affine.fractions()
            assert affine.num.shape == (atlas.charts[I].group.order, 2, 3)
        assert json.dumps(atlas_to_json(again), sort_keys=True) == text

    def test_schema_rejected(self):
        with pytest.raises(ValueError):
            atlas_from_json({"schema": "other/9"})


def test_no_module_but_exterior_engine_names_rational_matrix():
    """Exact matrices are ``RationalArray`` s and their elimination is
    ``eliminate``: no module of the package other than ``exterior_engine``
    names ``RationalMatrix``."""
    naming = []
    for path in sorted(pathlib.Path(charts_atlas.__file__).parent.glob("*.py")):
        if path.name != "exterior_engine.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = (getattr(node, key, None) for key in ("id", "attr", "name"))
                if "RationalMatrix" in names:
                    naming.append((path.name, node.lineno))
    assert naming == []


# ---------------------------------------------------------------------------
# float-side checks: all points in one evaluation, the first failure reported
# ---------------------------------------------------------------------------


def _sphere_n8():
    from vfc.examples_cli import ExampleDescriptor, build_example

    return build_example(ExampleDescriptor("sphere-euler", {"density": 8})).atlas


def _with_chart(atlas, I, **fields):
    charts = {**atlas.charts, I: dataclasses.replace(atlas.charts[I], **fields)}
    return dataclasses.replace(atlas, charts=charts)


def _failures(rep, clause):
    return [f for f in rep.failures if f["clause"] == clause]


class TestFloatChecksStopAtFirstFailure:
    I, J = (1,), (1, 2)

    def test_section_consistency(self):
        atlas = _sphere_n8()
        shifted = tuple(["+", s, num(1)] for s in atlas.charts[self.J].section_asts)
        rep = check_chart(_with_chart(atlas, self.J, section_asts=shifted), self.J)
        assert _failures(rep, "section_ast_inconsistent") == [
            {"clause": "section_ast_inconsistent", "point": 0, "error": 1.0}
        ]

    def test_section_consistency_raises_only_if_no_failure_comes_first(self):
        atlas = _sphere_n8()
        s = atlas.charts[self.J].section_asts
        points = atlas.charts[self.J].domain.points.fractions()
        assert [points[k][3] for k in (0, 1)] == [0, F(1, 8)]
        # a pole at sample 1 behind a failure at sample 0 is not reached
        pole_at_1 = (["/", num(1), ["-", var(3), num("1/8")]], *s[1:])
        rep = check_chart(_with_chart(atlas, self.J, section_asts=pole_at_1), self.J)
        assert [f["point"] for f in _failures(rep, "section_ast_inconsistent")] == [0]
        # a pole at sample 0 is
        pole_at_0 = (["/", num(1), var(3)], *s[1:])
        with pytest.raises(ZeroDivisionError):
            check_chart(_with_chart(atlas, self.J, section_asts=pole_at_0), self.J)

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_a_nan_beside_a_failing_component_does_not_hide_it(self, nan_first):
        atlas = _sphere_n8()
        s = atlas.charts[self.J].section_asts
        huge = ["*", ["+", var(0), num(10**200)], num(10**200)]  # inf as a float
        nan, shifted = ["-", huge, huge], ["+", s[int(nan_first)], num(1)]
        # (s₀ + 1, NaN, s₂, ...) or (NaN, s₁ + 1, s₂, ...)
        section = (nan, shifted, *s[2:]) if nan_first else (shifted, nan, *s[2:])
        rep = check_chart(_with_chart(atlas, self.J, section_asts=section), self.J)
        assert _failures(rep, "section_ast_inconsistent") == [
            {"clause": "section_ast_inconsistent", "point": 0, "error": 1.0}
        ]

    def test_tangent_bundle_condition(self):
        atlas = _sphere_n8()
        flat = tuple(num(0) for _ in atlas.charts[self.J].section_asts)
        rep = check_coordinate_change(_with_chart(atlas, self.J, section_asts=flat), self.I, self.J)
        tilde = atlas.changes[(self.I, self.J)].tilde_indices
        (failure,) = _failures(rep, "tangent_bundle_condition")
        assert failure["point"] == tilde[0] and failure["sigma_min"] == 0.0

    @pytest.mark.parametrize("nan", [False, True])
    def test_tangent_bundle_condition_fails_where_the_jacobian_is_not_finite(self, nan):
        atlas = _sphere_n8()
        s = atlas.charts[self.J].section_asts
        huge = ["*", var(0), num(10**200), num(10**200)]  # ∂/∂a is ∞ as a float
        section = (["-", huge, huge] if nan else huge, *s[1:])  # ∞ − ∞ = NaN
        doctored = _with_chart(atlas, self.J, section_asts=section)
        rep = check_coordinate_change(doctored, self.I, self.J)
        tilde = atlas.changes[(self.I, self.J)].tilde_indices
        assert _failures(rep, "tangent_bundle_condition") == [
            {"clause": "tangent_bundle_condition", "point": tilde[0], "sigma_min": None}
        ]
        json.dumps(rep.to_json(), allow_nan=False)

    def test_rho_consistency(self):
        atlas = _sphere_n8()
        change = atlas.changes[(self.I, self.J)]
        shifted = tuple(["+", r, num(1)] for r in change.rho_asts)
        changes = {**atlas.changes, (self.I, self.J): dataclasses.replace(change, rho_asts=shifted)}
        rep = check_coordinate_change(dataclasses.replace(atlas, changes=changes), self.I, self.J)
        (failure,) = _failures(rep, "rho_ast_inconsistent")
        assert failure["point"] == change.tilde_indices[0]
        assert failure["error"] == pytest.approx(1.0)
