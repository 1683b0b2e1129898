"""One doctored model per obstruction-space clause: each test asserts that
its clause fires, with its witness.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses
from fractions import Fraction

from vfc.charts_atlas import (
    build_categories,
    check_atlas_model,
    check_cocycle,
    check_coordinate_change,
    check_tame_and_filtration,
)
from vfc.examples_cli import ExampleDescriptor, build_example, build_toy_atlas
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


def chart_without_grid():
    """Chart (1,) of a two-chart toy atlas has an empty obstruction grid,
    so the zero vector of E_1 = 0 is no grid point."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b"}}, ["a", "b"], {1: 2})
    return _with_chart(atlas, (1,), obstruction_points=())


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
    failure = _failure(build_categories(sample_off_the_grid()).report,
                       "section_value_outside_grid")
    assert failure["index"] == (1, 2)
    assert failure["value"] == (F(1, 3), F(0), F(0), F(0))


def test_zero_vector_outside_grid():
    rep = build_categories(chart_without_grid()).report
    assert _failure(rep, "zero_vector_outside_grid") == {"clause": "zero_vector_outside_grid"}


def test_norm_shape():
    atlas, norms = norm_of_wrong_width()
    assert _failure(norms.validate(atlas), "norm_shape")["index"] == 1
