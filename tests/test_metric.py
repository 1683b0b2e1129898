"""The atlas metric: an int matrix over one denominator, its JSON form and
its balls.

The oracle is a dict of ``Fraction`` distances on key pairs a < b,
computed here from the footprint labels (band × footprint circle), with
balls answered pair by pair by the float test ``float(d) <= r + 1e-15``.
"""

import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from vfc.charts_atlas import RationalArray, _index_key, atlas_from_json, atlas_to_json
from vfc.examples_cli import RING_T, ExampleDescriptor, build_example
from vfc.reduction_perturb import (
    _ball,
    _projected_ball,
    closure_of,
    compute_adaptedness_constants,
    epsilon_closure_radius,
)


def _position(chart, sample, density):
    """(band, circle) of a sample, read from its footprint label."""
    label = chart.footprint_map.get(sample)
    if label is None:  # an obstruction sample of chart (1, 2)
        return (F(1, 2), F(0))
    if label in ("c1", "c2"):
        return (F(0) if label == "c1" else F(1), None)
    ring, k = label[len("ring"):].split(":")
    return (RING_T[int(ring)], F(int(k), density))


def reference_metric(atlas, density) -> dict:
    """Key pair (a, b), a < b -> Fraction distance."""
    pos = {}
    for I, c in atlas.intermediate_keys():
        chart = atlas.charts[I]
        pos[(I, c)] = _position(chart, chart.domain.classes()[c][0], density)
    out = {}
    for ka, kb in itertools.combinations(sorted(pos), 2):
        (ga, ta), (gb, tb) = pos[ka], pos[kb]
        circ = F(0) if ta is None or tb is None else min(abs(ta - tb), 1 - abs(ta - tb))
        out[(ka, kb)] = max(abs(ga - gb), circ)
    return out


def _hat_ball(atlas, I, base, radius):
    """``_ball`` about the samples ``base`` of chart I, as a set."""
    mask = np.zeros(len(atlas.sample_rows(I)), dtype=bool)
    mask[sorted(base)] = True
    return frozenset(np.flatnonzero(_ball(atlas, I, mask, radius)).tolist())


def _distance(ref, a, b):
    return F(0) if a == b else ref[(a, b) if a <= b else (b, a)]


def float_within(d, r):
    return float(d) <= float(r) + 1e-15


def exact_within(d, r):
    return d <= r


def ref_hat_ball(atlas, ref, I, base, radius, within=float_within):
    cls = atlas.charts[I].domain.class_index_of()
    base_classes = {cls[x] for x in base}
    return frozenset(base) | frozenset(
        x for x in range(len(cls))
        if any(within(_distance(ref, (I, cls[x]), (I, cb)), radius) for cb in base_classes)
    )


def ref_projected_ball(atlas, ref, keys, radius):
    return set(keys) | {
        k for k in atlas.intermediate_keys()
        if any(float_within(_distance(ref, k, b), radius) for b in keys)
    }


@pytest.fixture(scope="module", params=["sphere-euler", "football-euler"])
def example(request):
    built = build_example(ExampleDescriptor(request.param, {"density": 12}))
    return built, reference_metric(built.atlas, 12)


def test_matrix_equals_the_fraction_pairs(example):
    built, ref = example
    atlas = built.atlas
    metric = atlas.metric
    keys = atlas.intermediate_keys()
    assert metric.num.dtype == np.int64
    assert metric.den == math.lcm(*(d.denominator for d in ref.values()))
    assert (metric.num == metric.num.T).all() and not metric.num.diagonal().any()
    for i, j in itertools.combinations(range(len(keys)), 2):
        assert F(int(metric.num[i, j]), metric.den) == _distance(ref, keys[i], keys[j])


def test_denominator_is_not_the_density():
    metric = build_example(ExampleDescriptor("sphere-euler", {"density": 10})).atlas.metric
    assert metric.den == 20


def test_closure_radius_equals_half_the_least_positive_pair(example):
    built, ref = example
    want = min(d for d in ref.values() if d > 0) / 2
    assert epsilon_closure_radius(built.atlas) == want


def _pipeline_radii(built):
    """Every radius the pipeline asks a ball for: ε, the 2δ of each dyadic
    δ_V candidate, the enlargement radii δ·2^(−k) and the collar radii η_k."""
    atlas = built.atlas
    constants = compute_adaptedness_constants(atlas, built.V, built.C, built.norms)
    levels = sorted({kk for (_, kk) in constants.v_k})
    return constants, (
        [epsilon_closure_radius(atlas)]
        + [2 * F(1, 2**k) for k in range(2, 13)]
        + [float(constants.delta) * 2.0 ** (-float(kk)) for kk in levels]
        + list(constants.eta.values())
    )


def test_hat_balls_match_the_float_predicate(example):
    built, ref = example
    atlas = built.atlas
    constants, radii = _pipeline_radii(built)
    bases = [(I, frozenset(s)) for I, s in built.V.sets.items()]
    bases += [(I, frozenset(s)) for I, s in built.C.sets.items()]
    bases += [(J, s) for (J, _, _), s in constants.n_k.items()]
    for I, base in bases:
        for r in radii:
            assert _hat_ball(atlas, I, base, r) == ref_hat_ball(atlas, ref, I, base, r)


def test_projected_balls_match_the_float_predicate(example):
    built, ref = example
    atlas = built.atlas
    _, radii = _pipeline_radii(built)
    eps = epsilon_closure_radius(atlas)
    for I in atlas.index_sets():
        cls = atlas.charts[I].domain.class_index_of()
        keys = {(I, cls[x]) for x in closure_of(atlas, built.V, I, eps)}
        for r in radii:
            want = {atlas.key_offset[J] + c for J, c in ref_projected_ball(atlas, ref, keys, r)}
            rows = np.array(sorted(atlas.key_offset[I] + c for _, c in keys), dtype=np.int64)
            assert set(np.flatnonzero(_projected_ball(atlas, rows, r)).tolist()) == want


def test_balls_at_and_beside_every_distance(example):
    """Float radii m/D and m/D ± 1e-16 keep the float predicate; exact radii
    m/D and m/D ± 10⁻¹⁶ are decided exactly."""
    built, ref = example
    atlas = built.atlas
    den = atlas.metric.den
    tiny = F(1, 10**16)
    for I in atlas.index_sets():
        base = frozenset(built.V.sets[I])
        for m in np.unique(atlas.metric.num).tolist():
            for r in (m / den, m / den + 1e-16, m / den - 1e-16):
                assert _hat_ball(atlas, I, base, r) == ref_hat_ball(atlas, ref, I, base, r)
            for r in (F(m, den), F(m, den) + tiny, F(m, den) - tiny):
                want = ref_hat_ball(atlas, ref, I, base, r, within=exact_within)
                assert _hat_ball(atlas, I, base, r) == want


def test_threshold_of_a_float_radius_keeps_the_float_test():
    metric = RationalArray(np.zeros((1, 1), dtype=np.int64), 3)
    assert metric.threshold(1 / 3) == 1
    assert metric.threshold(F(1, 3)) == 1
    assert metric.threshold(F(1, 3) - F(1, 10**16)) == 0
    # 1e-16 below 1/3 is still within the 1e-15 slack of the float test
    assert metric.threshold(1 / 3 - 1e-16) == 1
    # a radius whose slack lands on float(1/3), which lies below 1/3:
    # the float test takes 1/3 in although ⌊(r + 1e-15)·3⌋ = 0
    r = 1 / 3 - 1e-15
    while r + 1e-15 < 1 / 3:
        r = math.nextafter(r, 1)
    assert r + 1e-15 == 1 / 3 and F(1 / 3) < F(1, 3)
    assert metric.threshold(r) == 1


# ---------------------------------------------------------------------------
# the vfc-atlas/1 metric field
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_doc():
    return atlas_to_json(build_example(ExampleDescriptor("sphere-euler", {"density": 12})).atlas)


def test_json_round_trip_is_exact(sphere_doc):
    again = atlas_to_json(atlas_from_json(sphere_doc))
    assert json.dumps(again, sort_keys=True) == json.dumps(sphere_doc, sort_keys=True)


def test_json_metric_is_the_sorted_pair_list(sphere_doc):
    atlas = atlas_from_json(sphere_doc)
    ref = reference_metric(atlas, 12)
    want = [
        [_index_key(a[0]), a[1], _index_key(b[0]), b[1], f"{d.numerator}/{d.denominator}"]
        for (a, b), d in sorted(ref.items())
    ]
    assert sphere_doc["metric"] == want


def test_json_accepts_reversed_repeated_and_diagonal_entries(sphere_doc):
    doc = json.loads(json.dumps(sphere_doc))
    entries = doc["metric"]
    first = entries[0]
    entries[:] = [e[2:4] + e[0:2] + e[4:] for e in entries]
    entries += [first, first[:2] + first[:2] + ["0/1"]]
    metric = atlas_from_json(doc).metric
    want = atlas_from_json(sphere_doc).metric
    assert metric.den == want.den and (metric.num == want.num).all()


def break_metric(doc, case):
    entries = doc["metric"]
    first = entries[0]
    if case == "missing":
        del entries[5]
    elif case == "unknown-key":
        entries[5][1] = 9999
    elif case == "negative":
        entries[5][4] = "-1/12"
    elif case == "diagonal":
        entries.append(first[:2] + first[:2] + ["1/12"])
    elif case == "conflict":
        entries.append(first[2:4] + first[:2] + ["5/7"])
    elif case == "int64":
        entries[5][4] = "1/3486784401"  # 3^20
        entries[6][4] = "1/95367431640625"  # 5^20
    return doc


METRIC_FAULTS = ["missing", "unknown-key", "negative", "diagonal", "conflict", "int64"]


@pytest.mark.parametrize("case", METRIC_FAULTS)
def test_json_rejects_a_broken_metric(sphere_doc, case):
    doc = break_metric(json.loads(json.dumps(sphere_doc)), case)
    with pytest.raises(ValueError, match="metric"):
        atlas_from_json(doc)
