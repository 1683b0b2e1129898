"""One doctored model per clause of ``check_atlas_model``, ``check_chart``,
``check_coordinate_change``, ``check_cocycle`` and
``check_tame_and_filtration`` that no other test names: each test asserts
that its clause fires, with its witnesses.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses

from vfc.charts_atlas import (
    check_atlas_model,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_tame_and_filtration,
)
from vfc.examples_cli import build_toy_atlas

# ---------------------------------------------------------------------------
# constructors of the doctored models
# ---------------------------------------------------------------------------


def _two_charts(orders=None):
    return build_toy_atlas({1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], orders or {})


def _three_charts_over(labels, orders=None):
    return build_toy_atlas({i: set(labels) for i in (1, 2, 3)}, list(labels), orders or {})


def _with_change(atlas, key, change):
    return dataclasses.replace(atlas, changes={**atlas.changes, key: change})


def _with_chart(atlas, I, **fields):
    chart = dataclasses.replace(atlas.charts[I], **fields)
    return dataclasses.replace(atlas, charts={**atlas.charts, I: chart})


def _with_line(atlas, I, grid=((0,),)):
    """Chart I with E_I = R, on which Γ_I acts trivially, the grid ``grid``
    and the zero section."""
    chart = atlas.charts[I]
    return _with_chart(
        atlas, I,
        obstruction_dim=1,
        obstruction_action=[[[1]]] * chart.group.order,
        obstruction_points=grid,
        section_samples=[[0]] * len(chart.domain.points),
    )


def chart_index_unsorted():
    """Chart (1, 2) of a two-chart toy atlas is filed under (2, 1)."""
    atlas = _two_charts({1: 2, 2: 3})
    charts = {(2, 1) if I == (1, 2) else I: c for I, c in atlas.charts.items()}
    return dataclasses.replace(atlas, charts=charts)


def change_from_larger_to_smaller():
    """The change (1,) -> (1, 2) is also filed as (1, 2) -> (1,)."""
    atlas = _two_charts()
    return _with_change(atlas, ((1, 2), (1,)), atlas.changes[((1,), (1, 2))])


def change_into_no_chart():
    """The change (1,) -> (1, 2) is also filed as (1,) -> (1, 3), and there
    is no chart (1, 3)."""
    atlas = _two_charts()
    return _with_change(atlas, ((1,), (1, 3)), atlas.changes[((1,), (1, 2))])


def rho_swapped_on_a_fiber():
    """Three charts over one point, Γ_1 = Z_2: ρ of (1,) -> (1, 2, 3) sends
    each sample to the other sample of its fiber, so it no longer agrees
    with ρ of (1,) -> J -> (1, 2, 3) for J = (1, 2), (1, 3)."""
    atlas = _three_charts_over(["p"], {1: 2})
    key = ((1,), (1, 2, 3))
    rho = atlas.changes[key].rho_idx
    change = dataclasses.replace(atlas.changes[key], rho_idx={0: rho[1], 1: rho[0]})
    return _with_change(atlas, key, change)


def tilde_without_b():
    """Three charts over {a, b} with trivial isotropy; Ũ of
    (1,) -> (1, 2, 3) loses its sample over b, so Ū_{1,123} = {a} while
    Ū_{1,12} ∩ φ̲⁻¹(Ū_{12,123}) = {a, b}."""
    atlas = _three_charts_over(["a", "b"])
    key = ((1,), (1, 2, 3))
    change = atlas.changes[key]
    assert change.tilde_indices == (0, 1)
    doctored = dataclasses.replace(change, tilde_indices=(0,), rho_idx={0: change.rho_idx[0]})
    return _with_change(atlas, key, doctored)


def tilde_of_12_without_b():
    """Three charts over {a, b} with trivial isotropy; Ũ of (1,) -> (1, 2)
    loses its sample over b, so φ̲_{1,12} is not defined on the class over
    b in Ū_{1,123}."""
    atlas = _three_charts_over(["a", "b"])
    key = ((1,), (1, 2))
    change = atlas.changes[key]
    assert change.tilde_indices == (0, 1)
    doctored = dataclasses.replace(change, tilde_indices=(0,), rho_idx={0: change.rho_idx[0]})
    return _with_change(atlas, key, doctored)


def no_chart_2_under_a_line():
    """Three charts over one point without chart (2,) and its changes, and
    E = R on chart (1, 2, 3): the filtration of E_123 meets (1, 2) and
    (2, 3) in the undeclared (2,)."""
    atlas = _three_charts_over(["p"])
    charts = {I: c for I, c in atlas.charts.items() if I != (2,)}
    changes = {key: c for key, c in atlas.changes.items() if key[0] != (2,)}
    atlas = dataclasses.replace(atlas, charts=charts, changes=changes)
    for key in [key for key in changes if key[1] == (1, 2, 3)]:
        atlas = _with_change(atlas, key, dataclasses.replace(changes[key], phi_hat=[[]]))
    return _with_line(atlas, (1, 2, 3))


def footprint_b_on_a_sample_over_a():
    """Chart (1,) of Z_2 over {a, b}: the second sample over a is labelled
    b, so the class over a carries both labels."""
    atlas = _two_charts({1: 2})
    chart = atlas.charts[(1,)]
    assert chart.footprint_map[1] == "a"
    return _with_chart(atlas, (1,), footprint_map={**chart.footprint_map, 1: "b"})


def line_on_chart_12_only():
    """E = R on chart (1, 2) while E_1 = E_2 = 0."""
    return _with_line(_two_charts(), (1, 2))


def tangent_line_on_chart_12_only():
    """Chart (1, 2) has a section formula and one tangent coordinate, which
    Ũ of (1,) -> (1, 2) does not span, while E_12 = E_1 = 0: the tangent
    bundle condition would need a 0 x 0 φ̂ beside one ds column."""
    atlas = _two_charts()
    return _with_chart(atlas, (1, 2), tangent_dims=(0,), section_asts=())


def tangent_line_lost_by_tilde():
    """Charts (1,) and (1, 2) each have one tangent coordinate, but Ũ of
    (1,) -> (1, 2) is given none."""
    atlas = _with_chart(_two_charts(), (1,), tangent_dims=(0,))
    return _with_chart(atlas, (1, 2), tangent_dims=(0,))


# ---------------------------------------------------------------------------
# the clauses
# ---------------------------------------------------------------------------


def _failures(rep, clause):
    return [f for f in rep.failures if f["clause"] == clause]


def test_index_not_sorted():
    rep = check_atlas_model(chart_index_unsorted())
    assert _failures(rep, "index_not_sorted") == [
        {"clause": "index_not_sorted", "index": (2, 1)}
    ]


def test_change_index_not_nested():
    assert check_atlas_model(change_from_larger_to_smaller()).failures == [
        {"clause": "change_index_not_nested", "pair": ((1, 2), (1,))}
    ]


def test_change_without_chart():
    assert check_atlas_model(change_into_no_chart()).failures == [
        {"clause": "change_without_chart", "pair": ((1,), (1, 3))}
    ]


def test_weak_overlap():
    assert check_cocycle(rho_swapped_on_a_fiber(), "weak").failures == [
        {"clause": "weak_overlap", "triple": ((1,), J, (1, 2, 3)), "point": z}
        for J in ((1, 2), (1, 3))
        for z in (0, 1)
    ]


def test_domain_inclusion():
    assert check_cocycle(tilde_without_b(), "cocycle").failures == [
        {"clause": "domain_inclusion", "triple": ((1,), J, (1, 2, 3))}
        for J in ((1, 2), (1, 3))
    ]


def test_domain_equality():
    assert check_cocycle(tilde_without_b(), "strong").failures == [
        {"clause": "domain_equality", "triple": ((1,), J, (1, 2, 3))}
        for J in ((1, 2), (1, 3))
    ]


def test_domain_intersection():
    rep = check_tame_and_filtration(tilde_without_b())
    assert _failures(rep, "domain_intersection") == [
        {"clause": "domain_intersection", "indices": ((1,), (1, 2), (1, 3))},
        {"clause": "domain_intersection", "indices": ((1,), (1, 3), (1, 2))},
    ]


def test_domain_not_in_phibar():
    assert check_tame_and_filtration(tilde_of_12_without_b()).failures == [
        {"clause": "domain_intersection", "indices": ((1,), (1, 2), (1, 3))},
        {"clause": "domain_intersection", "indices": ((1,), (1, 2), (1, 2, 3))},
        {"clause": "domain_intersection", "indices": ((1,), (1, 3), (1, 2))},
        {"clause": "domain_intersection", "indices": ((1,), (1, 2, 3), (1, 2))},
        {"clause": "pushforward_identity", "indices": ((1,), (1, 2), (1, 2))},
        {"clause": "domain_not_in_phibar", "indices": ((1,), (1, 2), (1, 2, 3))},
    ]


def test_filtration_index_missing():
    assert check_tame_and_filtration(no_chart_2_under_a_line()).failures == [
        {"clause": "filtration_index_missing", "indices": ((1, 2), (2, 3), (1, 2, 3))},
        {"clause": "filtration_index_missing", "indices": ((2, 3), (1, 2), (1, 2, 3))},
    ]


def test_footprint_not_class_constant():
    assert check_chart(footprint_b_on_a_sample_over_a(), (1,)).failures == [
        {"clause": "footprint_not_class_constant", "point": 1}
    ]


def test_obstruction_not_additive():
    assert check_atlas_model(line_on_chart_12_only()).failures == [
        {"clause": "obstruction_not_additive", "index": (1, 2)}
    ]


def test_tbc_shape():
    rep = check_coordinate_change(tangent_line_on_chart_12_only(), (1,), (1, 2))
    assert rep.failures == [
        {"clause": "index_condition", "dims": (0, 1, 0, 0)},
        {"clause": "tbc_shape"},
    ]


def test_tilde_tangent_dimension():
    rep = check_coordinate_change(tangent_line_lost_by_tilde(), (1,), (1, 2))
    assert rep.failures == [{"clause": "tilde_tangent_dimension", "expected": 1}]
