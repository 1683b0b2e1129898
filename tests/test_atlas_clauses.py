"""One doctored model per atlas-level clause of ``check_atlas_model``,
``check_cocycle`` and ``check_tame_and_filtration`` that no other test
names: each test asserts that its clause fires, with its witnesses.

The constructors at the top build the doctored models; the tests below
only run a validator and read its failures.
"""

import dataclasses

from vfc.charts_atlas import check_atlas_model, check_cocycle, check_tame_and_filtration
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
