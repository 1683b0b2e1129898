"""One doctored model per obstruction-space clause: each test asserts that
its clause fires, with its witness.

The E_K models each break one law of E_K, decided by an earlier stage
(see the docstring of ``build_categories``, which takes those stages as
given), on an additive obstruction bundle; the failures of every atlas
stage are asserted, so that the law's clause, with its first witness, is
the model's only fault, or names the clauses its edit forces as well.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from vfc.charts_atlas import (
    build_categories,
    check_atlas_model,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_realizations,
    check_tame_and_filtration,
)
from vfc.examples_cli import ExampleDescriptor, _atlas_stages, build_example, build_toy_atlas
from vfc.reduction_perturb import EquivariantNorms

F = Fraction


# ---------------------------------------------------------------------------
# constructors of the doctored models
# ---------------------------------------------------------------------------


def _football():
    return build_example(ExampleDescriptor("football-euler", {"density": 8}))


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


def _with_sample(atlas, I, y, value):
    samples = atlas.charts[I].section_samples.fractions()
    samples[y] = value
    return _with_chart(atlas, I, section_samples=tuple(samples))


def sample_in_tilde_moved():
    """Sample 0 of chart (1, 2) lies in Ũ of (1,) -> (1, 2), where s_{12}
    is 0 = φ̂(s_1(ρ(0))); it is moved to (1/2, 0, 0, 0)."""
    atlas = _football().atlas
    return _with_sample(atlas, (1, 2), 0, (F(1, 2), F(0), F(0), F(0)))


def phi_hat_of_wrong_shape():
    """φ̂ of (1,) -> (1, 2) is 2 × 2, not 4 × 2."""
    atlas = _football().atlas
    return _with_change(atlas, (1,), (1, 2), phi_hat=[[1, 0], [0, 1]])


def phi_hat_into_the_other_block():
    """φ̂ of (1,) -> (1, 2) is that of (2,) -> (1, 2): E_1 lands in the E_2
    block of E_{12}."""
    atlas = _football().atlas
    other = atlas.changes[((2,), (1, 2))].phi_hat
    return _with_change(atlas, (1,), (1, 2), phi_hat=other)


def phi_hats_not_composing():
    """Three charts over one point; φ̂ is [1] on every change but [2] on
    (1,) -> (1, 2, 3)."""
    atlas = build_toy_atlas({1: {"p"}, 2: {"p"}, 3: {"p"}}, ["p"], {})
    for I, J in list(atlas.changes):
        phi = [[F(2 if (I, J) == ((1,), (1, 2, 3)) else 1)]]
        atlas = _with_change(atlas, I, J, phi_hat=phi)
    return atlas


def sample_outside_tilde_into_image():
    """The first non-zero sample y of chart (1, 2), the least of its orbit
    and outside Ũ of (1,) -> (1, 2), is moved to (1/2, 0, 0, 0) ∈ im φ̂_1:
    its class joins s̲⁻¹(im φ̂_1) but not φ̲(Ū)."""
    atlas = _football().atlas
    samples = atlas.charts[(1, 2)].section_samples.fractions()
    y = next(i for i, v in enumerate(samples) if any(v))
    return _with_sample(atlas, (1, 2), y, (F(1, 2), F(0), F(0), F(0)))


def grid_without_e1():
    """The grid of chart (1, 2) loses φ̂_1(1/2, 0) = (1/2, 0, 0, 0)."""
    atlas = _football().atlas
    grid = atlas.charts[(1, 2)].obstruction_points.fractions()
    kept = [e for e in grid if e != [F(1, 2), F(0), F(0), F(0)]]
    return _with_chart(atlas, (1, 2), obstruction_points=kept)


def sample_off_the_grid():
    """Sample 0 of chart (1, 2) is (1/3, 0, 0, 0), which is no grid point."""
    atlas = _football().atlas
    return _with_sample(atlas, (1, 2), 0, (F(1, 3), F(0), F(0), F(0)))


def grid_point_repeated():
    """The grid of chart (1, 2) lists its point 3 again, at the end."""
    atlas = _football().atlas
    grid = atlas.charts[(1, 2)].obstruction_points.fractions()
    return _with_chart(atlas, (1, 2), obstruction_points=[*grid, grid[3]])


def chart_without_grid():
    """Chart (1,) of a two-chart toy atlas has an empty obstruction grid,
    so the zero vector of E_1 = 0 is no grid point."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {1: 2})
    return _with_chart(atlas, (1,), obstruction_points=())


def on_a_line(atlas, action=None, phi=None, section=None):
    """``atlas`` with E_I = Q^|I| and the grid {-1, 0, 1}^|I| on every
    chart, so that E is additive, and |I| − 1 tangent coordinates, so that
    every change meets the index condition: Γ_I acts by the scalars
    ``action[I]`` (one per element; 1 by default), φ̂ of I -> J is
    ``phi[(I, J)]`` (1 by default) times the block inclusion that sends the
    coordinate of label i ∈ I to that of i ∈ J, and the section is 0 but at
    the samples ``section[(I, x)]``."""
    action, phi, section = action or {}, phi or {}, section or {}
    charts = {
        I: dataclasses.replace(
            chart,
            obstruction_dim=len(I),
            obstruction_action=[
                [[a * (r == c) for c in range(len(I))] for r in range(len(I))]
                for a in action.get(I, [1] * chart.group.order)
            ],
            obstruction_points=list(itertools.product((-1, 0, 1), repeat=len(I))),
            section_samples=[
                section.get((I, x), (0,) * len(I)) for x in range(len(chart.domain.points))
            ],
            tangent_dims=tuple(range(len(I) - 1)),
        )
        for I, chart in atlas.charts.items()
    }
    changes = {
        (I, J): dataclasses.replace(
            change, phi_hat=[[phi.get((I, J), 1) * (j == i) for i in I] for j in J],
            tilde_tangent_dims=tuple(range(len(I) - 1)),
        )
        for (I, J), change in atlas.changes.items()
    }
    return dataclasses.replace(atlas, charts=charts, changes=changes)


def grid_action_not_a_law():
    """Γ_1 = Z_3 acts on E_1 by g1, g2 ↦ −1: g1·g1 = g2 acts by −1, not 1."""
    return on_a_line(build_toy_atlas({1: {"a"}}, ["a"], {1: 3}), action={(1,): [1, -1, -1]})


def grid_action_identity_not_trivial():
    """Γ_1 = Z_2 acts on E_1 by 0: the law holds, but e moves the grid."""
    return on_a_line(build_toy_atlas({1: {"a"}}, ["a"], {1: 2}), action={(1,): [0, 0]})


def phi_hat_not_equivariant_on_the_grid():
    """Γ_1 = Z_2 acts on E_1 by −1 and Γ_{12} = Z_2 × 1 on E_{12} by 1, but
    φ̂ of (1,) -> (1, 2) is [1]: it maps the grid into the grid but does
    not commute with g1|e."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {1: 2})
    return on_a_line(atlas, action={(1,): [1, -1]})


def phi_hats_not_composing_on_the_grid():
    """Three charts over one point with trivial isotropy; φ̂ is the block
    inclusion on every change but −1 times it on (1, 2) -> (1, 2, 3), which
    maps the grid into itself."""
    atlas = build_toy_atlas({1: {"p"}, 2: {"p"}, 3: {"p"}}, ["p"], {})
    return on_a_line(atlas, phi={((1, 2), (1, 2, 3)): -1})


def section_not_phi_compatible_on_the_grid():
    """Trivial isotropy; sample 0 of chart (1, 2), in Ũ of (1,) -> (1, 2),
    has section value (1, 0), a grid point, where φ̂(s_1(ρ(0))) is 0."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {})
    return on_a_line(atlas, section={((1, 2), 0): (F(1), F(0))})


def section_not_equivariant_on_the_grid():
    """Γ_1 = Z_2 acts on E_1 by −1, and the section is 1 at both samples
    (a, e) and (a, g1) of the orbit over a: s(g1·x) is not g1·s(x)."""
    atlas = build_toy_atlas({1: {"a", "b"}}, ["a", "b"], {1: 2})
    return on_a_line(
        atlas, action={(1,): [1, -1]}, section={((1,), 0): (F(1),), ((1,), 1): (F(1),)}
    )


def norm_of_wrong_width():
    """The norm of chart 1 reads one coordinate of E_1 = R²."""
    built = _football()
    maps = {**built.norms.maps, 1: [[1]]}
    return built.atlas, EquivariantNorms(maps=maps)


# ---------------------------------------------------------------------------
# the clauses
# ---------------------------------------------------------------------------


def _failure(rep, clause):
    found = [f for f in rep.failures if f["clause"] == clause]
    assert found, rep.failures
    return found[0]


def test_section_compatibility():
    rep = check_coordinate_change(sample_in_tilde_moved(), (1,), (1, 2))
    assert _failure(rep, "section_compatibility")["point"] == 0


def test_phi_hat_shape():
    rep = check_coordinate_change(phi_hat_of_wrong_shape(), (1,), (1, 2))
    assert _failure(rep, "phi_hat_shape") == {"clause": "phi_hat_shape"}


def test_phi_hat_not_canonical():
    rep = check_atlas_model(phi_hat_into_the_other_block())
    assert _failure(rep, "phi_hat_not_canonical")["pair"] == ((1,), (1, 2))


def test_phi_hat_composition():
    rep = check_cocycle(phi_hats_not_composing(), "weak")
    assert _failure(rep, "phi_hat_composition")["triple"] == ((1,), (1, 2), (1, 2, 3))


def test_pushforward_identity():
    rep = check_tame_and_filtration(sample_outside_tilde_into_image())
    assert _failure(rep, "pushforward_identity")["indices"] == ((1,), (1, 2), (1, 2))


def test_filtration_intersection():
    rep = check_tame_and_filtration(grid_without_e1())
    assert _failure(rep, "filtration_intersection")["indices"] == ((1,), (1, 2), (1, 2))


def test_section_value_outside_grid():
    atlas = sample_off_the_grid()
    assert _failure(check_chart(atlas, (1, 2)), "section_value_outside_grid") == {
        "clause": "section_value_outside_grid", "point": 0, "value": (F(1, 3), F(0), F(0), F(0)),
    }
    # a direct call takes the chart axiom as given
    with pytest.raises(ValueError, match=r"chart \(1, 2\): a section value is no grid point"):
        build_categories(atlas)


def test_obstruction_grid_repeated():
    atlas = grid_point_repeated()
    last = len(atlas.charts[(1, 2)].obstruction_points) - 1
    assert check_chart(atlas, (1, 2)).failures == [
        {"clause": "obstruction_grid_repeated", "points": (3, last)},
    ]


def test_zero_vector_outside_grid():
    atlas = chart_without_grid()
    assert check_chart(atlas, (1,)).failures == [
        {"clause": "section_value_outside_grid", "point": 0, "value": ()},
        {"clause": "zero_vector_outside_grid"},
    ]
    with pytest.raises(ValueError, match=r"chart \(1,\): a section value is no grid point"):
        build_categories(atlas)


def test_norm_shape():
    atlas, norms = norm_of_wrong_width()
    assert _failure(norms.validate(atlas), "norm_shape")["index"] == 1


# ---------------------------------------------------------------------------
# E_K: each broken law, failed by the earlier stage that decides it
# ---------------------------------------------------------------------------


def test_grid_action_not_a_law():
    assert _failing_atlas_stages(grid_action_not_a_law()) == ({"chart (1,)": [
        {"clause": "obstruction_action_law", "pair": ("g1", "g1")},
        {"clause": "obstruction_action_law", "pair": ("g2", "g2")},
    ]}, False)


def test_grid_action_identity_not_trivial():
    assert _failing_atlas_stages(grid_action_identity_not_trivial()) == ({"chart (1,)": [
        {"clause": "obstruction_identity_action"},
    ]}, False)


def test_phi_hat_not_equivariant_on_the_grid():
    assert _failing_atlas_stages(phi_hat_not_equivariant_on_the_grid()) == ({
        "coordinate_change (1,)->(1, 2)": [
            {"clause": "phi_hat_not_equivariant", "element": "g1|e"},
        ],
    }, False)


def test_phi_hats_not_composing_on_the_grid():
    assert _failing_atlas_stages(phi_hats_not_composing_on_the_grid()) == ({"cocycle[strong]": [
        {"clause": "phi_hat_composition", "triple": ((1,), (1, 2), (1, 2, 3))},
        {"clause": "phi_hat_composition", "triple": ((2,), (1, 2), (1, 2, 3))},
    ]}, False)


def test_section_not_phi_compatible_on_the_grid():
    """Sample 0 is the only sample of chart (1, 2) and lies in Ũ of both
    changes, so the edit also breaks compatibility with (2,) -> (1, 2),
    leaves b without a zero, and puts the sample in im φ̂_1 but not in
    im φ̂_2."""
    assert _failing_atlas_stages(section_not_phi_compatible_on_the_grid()) == ({
        "chart (1, 2)": [{"clause": "footprint_not_bijective", "footprint": ["b"], "mapped": []}],
        "coordinate_change (1,)->(1, 2)": [{"clause": "section_compatibility", "point": 0}],
        "coordinate_change (2,)->(1, 2)": [{"clause": "section_compatibility", "point": 0}],
        "tame_and_filtration": [
            {"clause": "pushforward_identity", "indices": ((2,), (1, 2), (1, 2))},
        ],
    }, False)


def test_section_not_equivariant_on_the_grid():
    """The section is 0 only over b, so the zero classes miss a as well."""
    atlas = section_not_equivariant_on_the_grid()
    assert _failing_atlas_stages(atlas) == ({"chart (1,)": [
        {"clause": "section_not_equivariant", "element": "g1", "point": 0},
        {"clause": "footprint_not_bijective", "footprint": ["a", "b"], "mapped": ["b"]},
    ]}, False)
    out = build_categories(atlas)
    assert check_realizations(atlas, out.domain_category).failures == [
        {"clause": "zero_classes_not_bijective_with_footprint", "classes": 1, "footprint": 2},
    ]


def rho_off_the_source_chart():
    """Trivial isotropy; ρ of (1,) -> (1, 2) sends sample 0 to sample 2 of
    chart (1,), which has two samples."""
    atlas = on_a_line(build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {}))
    key = ((1,), (1, 2))
    changes = {**atlas.changes, key: dataclasses.replace(atlas.changes[key], rho_idx={0: 2})}
    return dataclasses.replace(atlas, changes=changes)


def test_perm_off_its_chart():
    """g1 of Γ_1 = Z_2 sends sample 0 of chart (1,) to sample 4, past its
    four samples: the fact names the element, and B_K, whose arrays would
    read past the chart, is not built."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {1: 2})
    domain = atlas.charts[(1,)].domain
    perms = domain.perms.copy()
    perms[1, 0] = 4
    atlas = _with_chart(atlas, (1,), domain=dataclasses.replace(domain, perms=perms))
    result = build_categories(atlas)
    assert result.report.failures == [
        {"clause": "sample_outside_chart", "index": (1,), "element": "g1"},
    ]
    assert result.domain_category is None


def test_rho_off_the_source_chart():
    """A sample index outside its chart is no fact B_K's and E_K's laws can
    rest on: it is reported, and no other fact is read."""
    assert build_categories(rho_off_the_source_chart()).report.failures == [
        {"clause": "sample_outside_chart", "pair": ((1,), (1, 2)), "point": 0},
    ]


def tilde_past_the_target_chart():
    """Football-euler N=8 with the first sample of Ũ_IJ of (1,) -> (1, 2)
    moved to 999, past the target chart."""
    atlas = _football().atlas
    key = ((1,), (1, 2))
    change = atlas.changes[key]
    y = change.tilde_indices[0]
    moved = dataclasses.replace(
        change,
        tilde_indices=(999, *change.tilde_indices[1:]),
        rho_idx={999 if z == y else z: x for z, x in change.rho_idx.items()},
    )
    return dataclasses.replace(atlas, changes={**atlas.changes, key: moved})


def test_a_change_past_its_target_chart_is_reported_not_read():
    """The fact is the whole report, and no array indexes the chart with it."""
    key = ((1,), (1, 2))
    result = build_categories(tilde_past_the_target_chart())
    assert result.report.failures == [
        {"clause": "sample_outside_chart", "pair": key, "point": 999},
    ]
    assert result.report.details == {"category_axioms_E": {}}
    assert result.domain_category is None and result.obstruction_category is None


def _failing_atlas_stages(atlas):
    """The failures of each failing stage of ``vfc run``'s atlas stages, by
    name, and whether the categories were built."""
    stages = list(_atlas_stages(atlas))
    failing = {rep.name: rep.failures for rep, _ in stages if not rep.ok}
    return failing, any(cats is not None for _, cats in stages)


def test_a_change_past_its_charts_fails_its_own_stage():
    """A sample of Ũ_IJ past chart J, or with ρ_IJ past chart I, is the
    coordinate change's one failure, at its first sample; no stage reads
    past the chart, and the categories are not built."""
    covering = {"clause": "sample_outside_chart", "pair": ((1,), (1, 2)),
                "from": "group_covering (1,)->(1, 2)"}
    failing, built = _failing_atlas_stages(tilde_past_the_target_chart())
    assert failing == {"coordinate_change (1,)->(1, 2)": [{**covering, "point": 999}]}
    assert not built
    failing, built = _failing_atlas_stages(rho_off_the_source_chart())
    assert failing["coordinate_change (1,)->(1, 2)"] == [{**covering, "point": 0}]
    assert not built
