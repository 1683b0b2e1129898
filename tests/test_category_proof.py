"""B_K's associativity from the group laws, and the per-atlas arrays the
checks read.

B_K is associative because ρ^Γ, the projection of product groups whose
tables ``check_atlas_model`` checks, is a homomorphism and composes;
``build_categories`` never scans its composable triples.  The scan lives
here, as the oracle of that proof: on passing atlases it finds no triple
on B_K or E_K, and on the doctored models it finds the triple that the
broken law predicts.  Those models act
trivially on chart (1,) and send each sample of chart (1, 2) to the point
of its fiber, so that every composite keeps its endpoints and the failure
surfaces at the associativity law itself.
"""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from vfc import charts_atlas
from vfc.charts_atlas import (
    CheckReport,
    FiniteGroup,
    RationalArray,
    atlas_from_json,
    atlas_to_json,
    check_category,
)
from vfc.examples_cli import ExampleDescriptor, build_example, build_toy_atlas, random_toy_atlas

EULER = [("sphere-euler", 12), ("football-euler", 12)]
SEEDS = range(30)


def _euler(name, density):
    return build_example(ExampleDescriptor(name, {"density": density})).atlas


def _atlases():
    yield from (_euler(name, n) for name, n in EULER)
    yield from map(random_toy_atlas, SEEDS)


#: composable triples per step of the scan; this bounds the memory of its
#: index arrays, which would otherwise grow with the triples
TRIPLE_CHUNK = 1 << 14


def first_non_associative(cat):
    """The labels of the first composable triple (f, g, h), in CSR pair
    order and then h in morphism order, with ``(f then g) then h != f then
    (g then h)``, or ``None``: a scan over every composable triple,
    ``TRIPLE_CHUNK`` at a time.

    Needs every composite defined and with the right endpoints (what
    ``check_category`` checks): (f g, h) and (g, h) then sit at rank k of h
    in the rows of f g and g."""
    pairs, comp = cat.pairs, cat.comp
    counts = pairs.triple_counts()
    ends = np.cumsum(counts)
    starts = ends - counts
    a = 0
    while a < len(counts):
        base = int(starts[a])
        b = max(int(np.searchsorted(ends, base + TRIPLE_CHUNK, side="right")), a + 1)
        p = np.repeat(np.arange(a, b), counts[a:b])
        k = np.arange(len(p)) + base - starts[p]
        left = comp[pairs.pair_start[comp[p]] + k]
        gh = comp[pairs.pair_start[pairs.g[p]] + k]
        right = comp[pairs.at(pairs.f[p], gh)]
        bad = np.flatnonzero(left != right)
        if bad.size:
            q, i = p[bad[0]], k[bad[0]]
            h = pairs.by_source[pairs.out_start[cat.tgt[pairs.g[q]]] + i]
            return tuple(cat.morphisms[m] for m in (pairs.f[q], pairs.g[q], h))
        a = b
    return None


@pytest.fixture
def block_calls(monkeypatch):
    """The calls of ``_block_category``, counted."""
    calls = []
    block = charts_atlas._block_category

    def counted(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(charts_atlas, "_block_category", counted)
    return calls


# ---------------------------------------------------------------------------
# the proof on passing atlases
# ---------------------------------------------------------------------------


def test_the_scan_agrees_with_the_proof(block_calls):
    for atlas in _atlases():
        result = charts_atlas.build_categories(atlas)
        assert result.report.ok, result.report.failures
        assert len(block_calls) == 1
        B, E = result.domain_category, result.obstruction_category
        assert first_non_associative(B) is None
        assert check_category(E).ok
        assert first_non_associative(E) is None
        block_calls.clear()


# ---------------------------------------------------------------------------
# a failing fact: doctored models
# ---------------------------------------------------------------------------


def _trivial_on_1_with_rho_to_fiber_points(atlas, order):
    """Γ_1 acts trivially on chart (1,), and ρ of (1,) -> (1, 2) sends each
    sample (x, g) of chart (1, 2) to the sample (x, e) of chart (1,)."""
    chart = atlas.charts[(1,)]
    every = np.arange(len(chart.domain.points))
    domain = dataclasses.replace(chart.domain, perms=np.tile(every, (chart.group.order, 1)))
    key = ((1,), (1, 2))
    change = atlas.changes[key]
    rho = {y: x - x % order for y, x in change.rho_idx.items()}
    return dataclasses.replace(
        atlas,
        charts={**atlas.charts, (1,): dataclasses.replace(chart, domain=domain)},
        changes={**atlas.changes, key: dataclasses.replace(change, rho_idx=rho)},
    )


def projection_not_a_homomorphism():
    """Γ_1 = Z_2, Γ_2 = Z_3; ρ^Γ of (1,) -> (1, 2) sends e|g1 and g1|g2 to
    g1 and the rest to e, which keeps the identity but is no homomorphism."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 2, 2: 3})
    atlas = _trivial_on_1_with_rho_to_fiber_points(atlas, 2)
    projection = dict(atlas.projection)
    assert atlas.charts[(1, 2)].group.elements == ("e|e", "e|g1", "e|g2", "g1|e", "g1|g1", "g1|g2")
    projection[((1,), (1, 2))] = np.array([0, 1, 0, 0, 0, 1])
    atlas.__dict__["projection"] = projection  # the cached ρ^Γ, doctored
    return atlas


#: a loop of order 5 (a Latin square with identity 0) that is not associative
LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def table_not_associative():
    """Γ_1 of order 5 multiplies by ``LOOP``."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 5})
    atlas = _trivial_on_1_with_rho_to_fiber_points(atlas, 5)
    chart = atlas.charts[(1,)]
    group = FiniteGroup(chart.group.elements, np.array(LOOP), 0)
    assert [f["clause"] for f in group.validate().failures] == ["associativity"]
    chart = dataclasses.replace(chart, domain=dataclasses.replace(chart.domain, group=group))
    return dataclasses.replace(atlas, charts={**atlas.charts, (1,): chart})


def table_not_the_product():
    """Γ_1 = Z_2, Γ_2 = Z_3; chart (1, 2) keeps the product's element names
    but multiplies as if e|g2 and g1|e traded places: a group, though not
    the product, so ρ^Γ of (1,) -> (1, 2), read from the names, is no
    homomorphism of it."""
    atlas = build_toy_atlas({1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 2, 2: 3})
    chart = atlas.charts[(1, 2)]
    swap = np.array([0, 1, 3, 2, 4, 5])
    group = dataclasses.replace(chart.group, table=swap[chart.group.table[np.ix_(swap, swap)]])
    assert group.validate().ok
    chart = dataclasses.replace(chart, domain=dataclasses.replace(chart.domain, group=group))
    return dataclasses.replace(atlas, charts={**atlas.charts, (1, 2): chart})


def test_a_projection_that_is_no_homomorphism_fails_group_not_additive():
    atlas = table_not_the_product()
    rho, mul = atlas.projection[((1,), (1, 2))], atlas.charts[(1, 2)].group.table
    # e|g1 · e|g1 is now g1|e, which ρ^Γ sends to g1, not to e · e
    assert (rho[mul[1, 1]], rho[1]) == (1, 0)
    assert charts_atlas.check_atlas_model(atlas).failures == [
        {"clause": "group_not_additive", "index": (1, 2)},
    ]


def test_the_scan_finds_the_triple_of_a_doctored_projection(block_calls):
    """B_K's associativity rests on ρ^Γ being a homomorphism: with the
    cached ρ^Γ doctored, which no document can do, B_K passes its own check
    and the scan finds the non-associative triple."""
    result = charts_atlas.build_categories(projection_not_a_homomorphism())
    assert len(block_calls) == 1
    B = result.domain_category
    assert check_category(B).ok
    assert first_non_associative(B) == (
        ((1,), (1, 2), 0, "e"), ((1, 2), (1, 2), 1, "e|g1"), ((1, 2), (1, 2), 0, "e|g2"))


def test_projections_are_homomorphisms_and_compose():
    for atlas in _atlases():
        rho = atlas.projection
        for (I, J), down in rho.items():
            mul_I, mul_J = atlas.charts[I].group.table, atlas.charts[J].group.table
            assert (down[mul_J] == mul_I[np.ix_(down, down)]).all()
            for K in atlas.charts:
                if set(J) <= set(K):
                    assert (down[rho[(J, K)]] == rho[(I, K)]).all()


def test_a_table_that_is_no_group_is_not_read(block_calls, monkeypatch):
    atlas = table_not_associative()
    result = charts_atlas.build_categories(atlas)
    assert result.report.failures == [{"clause": "group_not_valid", "index": (1,)}]
    assert result.report.details["category_axioms_E"] == {}
    assert result.domain_category is None and result.obstruction_category is None
    assert not block_calls
    # forced past the fact, B_K has the non-associative triple it predicts
    monkeypatch.setattr(FiniteGroup, "validate", lambda group: CheckReport("finite_group"))
    B = charts_atlas.build_categories(atlas).domain_category
    assert check_category(B).ok
    assert first_non_associative(B) == (
        ((1,), (1,), 0, "g1"), ((1,), (1,), 0, "g1"), ((1,), (1,), 0, "g2"))


def test_projections_not_composing():
    """Three charts over one point, Γ_1 = Z_2; ρ^Γ of (1,) -> (1, 2, 3) is
    doctored to the trivial homomorphism, which is not ρ^Γ of (1,) -> (1, 2)
    after that of (1, 2) -> (1, 2, 3).  No document can do this (the
    program's ρ^Γ composes, see above); B_K's own check sees the
    composite's endpoints move."""
    atlas = build_toy_atlas({1: {"p"}, 2: {"p"}, 3: {"p"}}, ["p"], {1: 2})
    projection = dict(atlas.projection)
    projection[((1,), (1, 2, 3))] = np.zeros(2, dtype=np.int64)
    atlas.__dict__["projection"] = projection  # the cached ρ^Γ, doctored
    result = charts_atlas.build_categories(atlas)
    assert result.report.failures == [
        {"clause": "compose_endpoints", "from": "category_axioms", "pair": (
            ((1,), (1, 2, 3), 0, "e"), ((1, 2, 3), (1, 2, 3), 1, "g1|e|e"))},
    ]


def test_a_section_value_moved_onto_the_grid_fails_the_chart_and_change(block_calls):
    """Football-euler N=12 with the section value of sample 0 of chart
    (1, 2) moved to the grid point (1/2, 0, 0, 0): ``check_chart`` and
    ``check_coordinate_change`` fail, and a direct ``build_categories``
    neither builds nor scans E_K, 2,236,009 composable triples."""
    atlas = _euler("football-euler", 12)
    chart = atlas.charts[(1, 2)]
    samples = chart.section_samples.fractions()
    samples[0] = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    charts = {**atlas.charts, (1, 2): dataclasses.replace(chart, section_samples=samples)}
    atlas = dataclasses.replace(atlas, charts=charts)
    assert charts_atlas.check_chart(atlas, (1, 2)).failures == [
        *({"clause": "section_not_equivariant", "element": g, "point": 0}
          for g in ("e|g1", "e|g2", "g1|e", "g1|g1", "g1|g2")),
        {"clause": "section_ast_inconsistent", "point": 0, "error": 0.5},
    ]
    assert charts_atlas.check_coordinate_change(atlas, (1,), (1, 2)).failures == [
        {"clause": "section_compatibility", "point": 0},
    ]
    charts_atlas.build_categories(atlas)
    assert len(block_calls) == 1


# ---------------------------------------------------------------------------
# arrays read once per model
# ---------------------------------------------------------------------------


def _walked_orbits(model):
    """The orbits as a walk over the samples finds them: the reference for
    ``GroupQuotientModel``'s one sort."""
    classes, class_of = [], {}
    for i in range(len(model.points)):
        if i not in class_of:
            classes.append(model.orbit(i))
            class_of.update(dict.fromkeys(classes[-1], len(classes) - 1))
    return classes, class_of


def test_orbits_from_one_sort_are_the_walked_orbits():
    for atlas in _atlases():
        for chart in atlas.charts.values():
            domain = chart.domain
            assert (domain.classes(), domain.class_index_of()) == _walked_orbits(domain)


def test_the_cached_arrays_are_read_only():
    atlas = random_toy_atlas(3)
    I = atlas.index_sets()[0]
    for array in (atlas.sample_rows(I), atlas.charts[I].domain.class_index,
                  *(c.tilde for c in atlas.changes.values()),
                  *(c.rho for c in atlas.changes.values())):
        with pytest.raises(ValueError):
            array[...] = 0


def test_wire_rationals_read_at_once_equal_the_fraction_reading():
    for atlas in _atlases():
        document = json.loads(json.dumps(atlas_to_json(atlas)))
        for key, chart in document["charts"].items():
            for rows in (chart["domain"]["points"], chart["section_samples"],
                         chart["obstruction_points"]):
                if not any(rows):
                    continue
                fast = RationalArray.of(rows, key, (-1, -1))
                slow = RationalArray.of([[Fraction(c) for c in r] for r in rows], key, (-1, -1))
                assert fast.den == slow.den and (fast.num == slow.num).all()
        again = atlas_from_json(document)
        for I, chart in atlas.charts.items():
            assert again.charts[I].domain.points.den == chart.domain.points.den
            assert (again.charts[I].domain.points.num == chart.domain.points.num).all()


@pytest.mark.parametrize("points, message", [
    ([["1/2", "x"]], "Invalid literal for Fraction: 'x'"),
    ([["1/0", "1/2"]], "Fraction(1, 0)"),
    ([["1/2"], ["1/3", "1/4"]], "not an array of shape"),
    ([["99999999999999999999/1"]], "do not fit int64"),
])
def test_points_that_are_not_p_over_q_rows_raise_as_before(points, message):
    document = atlas_to_json(random_toy_atlas(0))
    chart = next(iter(document["charts"].values()))
    chart["domain"]["points"] = points
    with pytest.raises((ValueError, ZeroDivisionError), match=re.escape(message)):
        atlas_from_json(document)


@pytest.mark.parametrize("perm, ok", [
    (lambda n: list(range(n)), True),
    (lambda n: [n] + list(range(1, n)), False),
    (lambda n: [-1] + list(range(1, n)), False),
    (lambda n: list(range(n - 1)), False),
    (lambda n: [float(i) for i in range(n)], True),
])
def test_perms_are_bound_checked_as_before(perm, ok):
    document = atlas_to_json(random_toy_atlas(0))
    key, chart = next(iter(document["charts"].items()))
    domain = chart["domain"]
    n = len(domain["points"])
    name = domain["group"]["elements"][-1]
    domain["perms"][name] = perm(n)
    if ok:
        atlas_from_json(document)
    else:
        with pytest.raises(ValueError, match=f"perms of {name!r} is no map of the {n} samples"):
            atlas_from_json(document)
