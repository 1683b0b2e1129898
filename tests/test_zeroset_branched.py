import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import vfc.expressions

from vfc.charts_atlas import (
    AtlasModel,
    ChartModel,
    CoordinateChangeModel,
    GroupQuotientModel,
    build_categories,
    cyclic_group,
    product_group,
    trivial_group,
)
from vfc.examples_cli import ExampleDescriptor, build_example, run_example
from vfc.expressions import compile_vector, eval_pred, num, var
from vfc.reduction_perturb import Perturbation, Reduction
from vfc.zeroset_branched import (
    EPS_MERGE,
    NEWTON_MAX_ITERS,
    TAU_ZERO,
    BranchedIntervalModel,
    NewtonStats,
    PerturbationRejected,
    branched_interval_model,
    complete_groupoid,
    find_zeros,
    fundamental_class_0d,
    hausdorff_complete,
    weight_function,
    wnb_check,
    zero_set_report,
)
from vfc.zeroset_branched import (
    _chart_seeds,
    _classes_of,
    _newton,
    _sample_box,
    _section_plus_nu,
    _solve,
)

F = Fraction


def clauses(report):
    return {f["clause"] for f in report.failures}


# ---------------------------------------------------------------------------
# numeric zero finding on one-chart models
# ---------------------------------------------------------------------------

def _counting(monkeypatch, original) -> list:
    """The arguments of every call of ``original`` from now on: it is
    replaced in every vfc module that holds it, under any name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "vfc" or name.startswith("vfc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestCompiledNewton:
    """Newton and the float-side checks evaluate the atlas's compiled tapes
    on whole batches of points.  ``value_and_jacobian``, one point through
    a tape compiled for it alone, is never called on the way."""

    @pytest.fixture
    def single_point_calls(self, monkeypatch):
        return _counting(monkeypatch, vfc.expressions.value_and_jacobian)

    def test_find_zeros_makes_no_interpreter_calls(self, single_point_calls):
        built = build_example(ExampleDescriptor("sphere-euler", {"density": 12}))
        result = find_zeros(built.atlas, built.V, built.nu)
        assert single_point_calls == []
        assert [
            (z.chart_index, z.coordinates, z.sign, z.residual, z.jacobian)
            for z in result.zeros
        ] == [
            ((1,), (0.0, 0.0), 1, 0.0, ((0.125, 0.0), (0.0, 0.125))),
            ((2,), (0.0, 0.0), 1, 0.0, ((-0.0625, 0.0), (0.0, -0.0625))),
        ]
        assert result.warnings == []

    def test_run_zero_list_and_weights(self, single_point_calls):
        report, code = run_example(
            ExampleDescriptor("sphere-euler", {"density": 12})
        )
        assert code == 0
        assert single_point_calls == []
        assert report["zero_set"]["zeros"] == [
            {
                "chart": [i],
                "coordinates": [0.0, 0.0],
                "minimal_footprint": [i],
                "residual": 0.0,
                "sign": 1,
                "weight": "1/1",
            }
            for i in (1, 2)
        ]

    def test_a_pass_compiles_each_tape_once(self, monkeypatch):
        # the atlas keeps its tapes, one per (ASTs, tangent dims) pair, and
        # Newton reads the tapes of s and ν that the checks read: 9 pairs
        calls = _counting(monkeypatch, vfc.expressions.compile_vector)
        _, code = run_example(ExampleDescriptor("sphere-euler", {"density": 48}))
        assert code == 0
        keys = [(repr(list(asts)), tuple(dims)) for asts, dims in calls]
        assert len(keys) == len(set(keys)) == 9


def _reference_walk(f, seed, dims, box=None):
    """Newton from one seed alone, one evaluation of one row at a time: the
    loop ``find_zeros`` ran per seed before its walks went in lockstep,
    ended where a step leaves ``box``.  Returns the last coordinates, why
    the walk stopped, the last values and the number of evaluations."""
    coords = list(seed)
    vals = None
    best = float("inf")
    stall = 0
    evaluations = 0
    stop = "exhausted"
    for _ in range(NEWTON_MAX_ITERS):
        (vals,), (jac,) = f([coords])
        evaluations += 1
        res = float(np.max(np.abs(vals))) if vals.size else 0.0
        if res < TAU_ZERO:
            stop = "converged"
            break
        if res < best:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= 8:
                stop = "stalled"
                break
        try:
            step = np.linalg.solve(jac, vals)
        except np.linalg.LinAlgError:
            stop = "singular"
            break
        if not np.all(np.isfinite(step)):
            stop = "non_finite"
            break
        for k, d in enumerate(dims):
            coords[d] -= float(step[k])
        if box is not None and any(c < lo or c > hi for c, lo, hi in zip(coords, *box)):
            stop = "escaped"
            break
    return coords, stop, vals, evaluations


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _assert_lockstep_matches_reference(f, seeds, dims, m, box=None):
    """The lockstep walks of ``seeds``, checked against the reference;
    returns why each stopped."""
    stats = NewtonStats()
    walks = _newton(f, np.array(seeds, dtype=float), dims, m, stats, box)
    evaluations = []
    for k, seed in enumerate(seeds):
        coords, stop, vals, n = _reference_walk(f, seed, dims, box)
        assert _bits(walks[0][k]) == _bits(coords), (k, seed, stop)
        assert walks[1][k] == stop, (k, seed)
        assert _bits(walks[2][k]) == _bits(vals), (k, seed)
        evaluations.append(n)
    assert stats.rounds == max(evaluations, default=0)
    assert stats.iterations == sum(evaluations)
    return set(walks[1])


def _reference_stats(atlas, red, nu, I, seeds) -> NewtonStats:
    """The statistics of chart I from the reference walks, with the zeros
    merged as ``find_zeros`` merges them."""
    dims = list(atlas.charts[I].tangent_dims)
    f = _section_plus_nu(atlas, nu, I, dims)
    box = _sample_box(atlas.charts[I].domain.coordinates)
    stats = NewtonStats(seeds=len(seeds))
    found = []
    for seed in seeds:
        coords, stop, _, n = _reference_walk(f, seed, dims, box)
        stats.rounds = max(stats.rounds, n)
        stats.iterations += n
        setattr(stats, stop, getattr(stats, stop) + 1)
        pred = red.preds.get(I)
        if stop != "converged" or (pred is not None and not eval_pred(pred, coords)):
            continue
        if any(max(abs(a - b) for a, b in zip(coords, z)) < EPS_MERGE for z in found):
            stats.merged += 1
        else:
            found.append(coords)
    return stats


def _example_seeds(name, density, seed_grid):
    built = build_example(ExampleDescriptor(name, {"density": density}))
    atlas = built.atlas
    seeds = None
    if seed_grid >= 2:  # as ``run_example`` seeds them
        seeds = {
            I: atlas.charts[I].domain.coordinates[sorted(built.V.sets[I])]
            for I in atlas.index_sets()
        }
    return built, seeds


class TestLockstepNewton:
    """The walks of a chart run in lockstep, and each ends where it would
    alone: same coordinates to the bit, same stop, same last values."""

    @pytest.mark.parametrize("seed_grid", [1, 2])
    @pytest.mark.parametrize("density", [12, 48])
    @pytest.mark.parametrize("name", ["sphere-euler", "football-euler"])
    def test_every_seed_ends_where_its_own_walk_ends(self, name, density, seed_grid):
        built, seeds = _example_seeds(name, density, seed_grid)
        atlas = built.atlas
        stops = set()
        for I in atlas.index_sets():
            chart = atlas.charts[I]
            dims = list(chart.tangent_dims)
            f = _section_plus_nu(atlas, built.nu, I, dims)
            chart_seeds = _chart_seeds(atlas, built.V, I, seeds)
            box = _sample_box(chart.domain.coordinates)
            stops |= _assert_lockstep_matches_reference(
                f, chart_seeds, dims, len(chart.section_asts), box
            )
        # converged, escaped and singular walks share a batch here
        assert stops == {"converged", "escaped", "singular"}

    def test_walks_of_every_ending_share_a_batch(self):
        endings = set()
        for ast, seeds in [
            # 1/x - 1: from 1e-30, x only doubles (exhausted); from -1, x
            # runs off to -1e154, where the step overflows (non_finite)
            (["-", ["/", num(1), var(0)], num(1)], [1e-30, 0.5, 3.0, -1.0, 1.9]),
            # x² + 1 has no zero: a flat Jacobian at 0 (singular), a
            # subnormal one at 1e-320 (non_finite), the others cycle (stalled)
            (["+", ["*", var(0), var(0)], num(1)], [0.0, 1e-320, 0.3, 2.0, -5.0]),
        ]:
            f = compile_vector([ast], [0])
            endings |= _assert_lockstep_matches_reference(f, [[x] for x in seeds], [0], 1)
        assert endings == {"converged", "stalled", "singular", "non_finite", "exhausted"}

    def test_a_stack_with_singular_rows_solves_each_row_as_alone(self):
        rng = np.random.default_rng(7)
        jac, vals = rng.normal(size=(8, 2, 2)), rng.normal(size=(8, 2))
        jac[1] = 0.0  # singular
        jac[3] = [[1.0, 2.0], [2.0, 4.0]]  # an exact zero pivot
        jac[5] = [[1e-200, 0.0], [0.0, 1e-200]]  # det underflows to 0, yet solvable
        jac[6, 0, 0] = np.nan  # solvable to NaN, with a NaN det
        step, singular = _solve(jac, vals)
        for i in range(len(jac)):
            try:
                want, stuck = np.linalg.solve(jac[i], vals[i]), False
            except np.linalg.LinAlgError:
                want, stuck = np.zeros(2), True
            assert (_bits(step[i]), singular[i]) == (_bits(want), stuck), i
        assert singular.tolist() == [i in (1, 3) for i in range(8)]

    @pytest.mark.parametrize("jac, stuck", [
        (np.array([[[np.inf, 0.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]],
                   [[1.0, np.inf], [np.inf, 1.0]], [[-np.inf, 1.0], [1.0, 1.0]]]), [0, 0, 0, 0]),
        (np.array([np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]], [[np.nan, 1.0], [1.0, 1.0]]]),
         [1, 1, 1]),
        (np.zeros((0, 2, 2)), []),
    ], ids=["inf", "all-singular", "empty"])
    def test_inf_entries_all_singular_and_empty_stacks_solve_as_alone(self, jac, stuck):
        vals = np.arange(2.0 * len(jac)).reshape(-1, 2) - 1.5
        step, singular = _solve(jac, vals)
        assert step.shape == vals.shape and singular.tolist() == [bool(s) for s in stuck]
        for i in range(len(jac)):
            try:
                want, stuck = np.linalg.solve(jac[i], vals[i]), False
            except np.linalg.LinAlgError:
                want, stuck = np.zeros(2), True
            assert (_bits(step[i]), singular[i]) == (_bits(want), stuck), i

    def test_stats_of_sphere_euler_match_the_reference(self):
        built, _ = _example_seeds("sphere-euler", 12, 1)
        atlas, red, nu = built.atlas, built.V, built.nu
        result = find_zeros(atlas, red, nu)
        assert result.stats == {
            I: _reference_stats(atlas, red, nu, I, _chart_seeds(atlas, red, I, None))
            for I in atlas.index_sets()
        }
        assert result.stats == {
            (1,): NewtonStats(seeds=13, rounds=1, iterations=13, converged=1, escaped=12),
            (2,): NewtonStats(seeds=13, rounds=5, iterations=61, converged=13, merged=12),
            (1, 2): NewtonStats(seeds=40, rounds=4, iterations=63, singular=18, escaped=22),
        }
        # the seed rule the benchmark's newton_seeds counter reads
        assert sum(s.seeds for s in result.stats.values()) == 66

    def test_a_raising_walk_raises_after_the_seeds_before_it(self):
        # seed 0 converges to a degenerate zero (rejected); seed 1 divides
        # by zero on its first evaluation: one walk per seed rejected first
        ast = ["/", ["*", var(0), var(0)], ["-", var(0), num("1/2")]]
        atlas = _interval_atlas((ast,), [F(0)], [F(0)])
        red = Reduction(sets={(1,): frozenset({0})})
        degenerate, pole = (F(0),), (F(1, 2),)
        with pytest.raises(PerturbationRejected):
            find_zeros(atlas, red, Perturbation(), seeds={(1,): [degenerate, pole]})
        with pytest.raises(ValueError, match=r"chart \(1,\): float division by zero"):
            find_zeros(atlas, red, Perturbation(), seeds={(1,): [pole, degenerate]})


def _interval_atlas(section_asts, sample_coords, zero_samples):
    g = trivial_group()
    n = len(sample_coords)
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=tuple((F(c),) for c in sample_coords),
            group=g,
            perms=[tuple(range(n))],
        ),
        obstruction_dim=1,
        obstruction_action=[[[1]]],
        obstruction_points=((F(0),), (F(1),)),
        section_samples=tuple((F(c),) for c in zero_samples),
        footprint_map={k: "p" for k, v in enumerate(zero_samples) if v == 0},
        section_asts=section_asts,
        tangent_dims=(0,),
    )
    return AtlasModel(
        x_labels=("p",),
        cover={1: frozenset({"p"})},
        charts={(1,): chart},
        changes={},
    )


def _open_interval_pred(lo="-1/1", hi="1/1"):
    return ["and", ["<", num(lo), var(0)], ["<", var(0), num(hi)]]


class TestFindZeros:
    def test_linear_section_single_zero(self):
        atlas = _interval_atlas(
            (var(0),), [F(-1, 2), F(0), F(1, 2)], [F(-1, 2), F(0), F(1, 2)]
        )
        red = Reduction(
            sets={(1,): frozenset({0, 1, 2})},
            preds={(1,): _open_interval_pred()},
        )
        result = find_zeros(atlas, red, Perturbation())
        assert len(result.zeros) == 1
        z = result.zeros[0]
        assert abs(z.coordinates[0]) < 1e-10
        assert z.sign == 1
        assert z.residual < 1e-10
        assert not result.warnings

    def test_quadratic_opposite_signs(self):
        ast = ["-", ["*", var(0), var(0)], num("1/4")]
        coords = [F(-1), F(-1, 4), F(1, 4), F(1)]
        values = [F(3, 4), F(-3, 16), F(-3, 16), F(3, 4)]
        atlas = _interval_atlas((ast,), coords, values)
        red = Reduction(
            sets={(1,): frozenset(range(4))},
            preds={(1,): _open_interval_pred("-2/1", "2/1")},
        )
        result = find_zeros(atlas, red, Perturbation())
        assert len(result.zeros) == 2
        assert sorted(round(z.coordinates[0], 6) for z in result.zeros) == [-0.5, 0.5]
        assert sum(z.sign for z in result.zeros) == 0

    def test_missed_zero_warning(self):
        # flat ramp: seeds in the flat regions cannot converge, but the
        # section changes sign between them
        ast = ["-", ["smoothstep", var(0)], num("1/2")]
        atlas = _interval_atlas((ast,), [F(0)], [F(-1, 2)])
        red = Reduction(
            sets={(1,): frozenset({0})},
            preds={(1,): _open_interval_pred("-5/1", "5/1")},
        )
        result = find_zeros(
            atlas, red, Perturbation(), seeds={(1,): [(F(-2),), (F(3),)]}
        )
        assert result.zeros == []
        assert any("possible missed zero" in w for w in result.warnings)

    def test_singular_jacobian_rejected(self):
        ast = ["*", var(0), var(0)]
        atlas = _interval_atlas((ast,), [F(0)], [F(0)])
        red = Reduction(
            sets={(1,): frozenset({0})},
            preds={(1,): _open_interval_pred()},
        )
        with pytest.raises(PerturbationRejected):
            find_zeros(atlas, red, Perturbation())

    def test_a_section_without_a_zero_escapes_the_sample_box(self):
        # s(t) = 1/(1 + t) > 0 falls below TAU_ZERO only far out: each step
        # doubles 1 + t, so from both samples the walk leaves their box
        # [-1, 2]; no predicate is needed to reject the far points
        ast = ["/", num(1), ["+", num(1), var(0)]]
        atlas = _interval_atlas((ast,), [F(0), F(1)], [F(1), F(1, 2)])
        result = find_zeros(atlas, Reduction(sets={(1,): frozenset({0, 1})}), Perturbation())
        assert result.zeros == [] and result.warnings == []
        assert result.stats == {(1,): NewtonStats(seeds=2, rounds=2, iterations=3, escaped=2)}

    def test_perturbation_shifts_zero(self):
        atlas = _interval_atlas(
            (var(0),), [F(0), F(1, 2)], [F(0), F(1, 2)]
        )
        red = Reduction(
            sets={(1,): frozenset({0, 1})},
            preds={(1,): _open_interval_pred()},
        )
        nu = Perturbation(asts={(1,): (num("1/8"),)})
        result = find_zeros(atlas, red, nu)
        assert len(result.zeros) == 1
        assert result.zeros[0].coordinates[0] == pytest.approx(-0.125)


# ---------------------------------------------------------------------------
# groupoid completion: single orbifold chart
# ---------------------------------------------------------------------------


def _orbifold_chart_atlas(n: int) -> AtlasModel:
    g = cyclic_group(n)
    perms = [tuple((k + s) % n for k in range(n)) for s in range(n)]
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=tuple((F(k),) for k in range(n)), group=g, perms=perms
        ),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),) * n,
        footprint_map={k: "x" for k in range(n)},
    )
    return AtlasModel(
        x_labels=("x",),
        cover={1: frozenset({"x"})},
        charts={(1,): chart},
        changes={},
    )


class TestSingleChartGroupoid:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_constant_weight(self, n):
        atlas = _orbifold_chart_atlas(n)
        red = Reduction(sets={(1,): frozenset(range(n))})
        zsets = {(1,): frozenset(range(n))}
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        assert comp.report.ok
        # only identity morphisms: no proper subsets of a singleton index
        assert len(comp.morphisms) == n
        assert len(comp.classes) == n
        haus = hausdorff_complete(comp)
        assert haus.report.ok
        wr = weight_function(atlas, haus)
        assert wr.report.ok
        assert set(wr.weights.values()) == {F(1, n)}
        bs = wnb_check(atlas, haus, wr.weights)
        assert bs.report.ok
        fc = fundamental_class_0d(
            haus.classes, wr.weights, {p: 1 for p in haus.classes}
        )
        assert fc.total == F(1)
        assert fc.total_string() == "1/1"


# ---------------------------------------------------------------------------
# two-chart model with a boundary zero
# ---------------------------------------------------------------------------


def _basic_chart(chart12: ChartModel, i: int) -> ChartModel:
    """Chart (i,) with Γ_i = Z_2, the factor of Γ_12 = 1 × Z_2, on the
    samples of ``chart12`` and with E_i = 0: the basic chart that the
    product group of chart (1, 2) is made of."""
    n = len(chart12.domain.points)
    return replace(
        chart12,
        index=(i,),
        domain=replace(chart12.domain, group=cyclic_group(2)),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),) * n,
    )


def _boundary_atlas(tilde: tuple, kernel_acts: bool = True, tilde2: tuple = ()) -> AtlasModel:
    """Chart (1,) with one zero; chart (1,2) with a swapped pair of zeros
    whose overlap with chart (1,) is controlled by ``tilde`` and, where
    ``tilde2`` is not empty, whose overlap with chart (2,) is ``tilde2``."""
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
    swap = (1, 0) if kernel_acts else (0, 1)
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(
            points=((F(1),), (F(2),)),
            group=g12,
            perms=[(0, 1), swap],
        ),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((), ()),
        footprint_map={0: "a", 1: "a"},
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=tilde,
        rho_idx={y: 0 for y in tilde},
        phi_hat=(),
    )
    changes = {((1,), (1, 2)): change}
    if tilde2:
        changes[((2,), (1, 2))] = replace(
            change, source_index=(2,), tilde_indices=tilde2, rho_idx={y: y for y in tilde2}
        )
    return AtlasModel(
        x_labels=("a",),
        cover={1: frozenset({"a"}), 2: frozenset({"a"})},
        charts={(1,): chart1, (2,): _basic_chart(chart12, 2), (1, 2): chart12},
        changes=changes,
    )


class TestBoundaryZero:
    def _data(self, atlas):
        red = Reduction(
            sets={(1,): frozenset({0}), (1, 2): frozenset({0, 1})}
        )
        zsets = {(1,): frozenset({0}), (1, 2): frozenset({0, 1})}
        return red, zsets

    def test_trivial_closure_is_identity(self):
        atlas = _boundary_atlas(tilde=())
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        haus = hausdorff_complete(comp)
        assert haus.report.ok
        assert set(haus.morphisms) == set(comp.morphisms)
        assert len(haus.classes) == len(comp.classes)

    def test_declared_closure_contains_open_overlap(self):
        # with no zero in chart (1,), the open overlap alone gives the
        # swapped pair its footprint (1,)
        atlas = _boundary_atlas(tilde=(0, 1))
        red, _ = self._data(atlas)
        zsets = {(1,): frozenset(), (1, 2): frozenset({0, 1})}
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        haus = hausdorff_complete(comp)
        assert haus.report.ok
        assert haus.morphisms == comp.morphisms
        assert haus.classes == comp.classes == (((1, 2), 0),)
        assert haus.minimal_footprint == {((1, 2), 0): (1,)}

    def test_non_nested_overlaps_rejected(self):
        # the pair lies in the open overlaps with chart (1,) and with
        # chart (2,), and (1,) and (2,) are not nested
        atlas = _boundary_atlas(tilde=(0, 1), tilde2=(0, 1))
        red = Reduction(sets={(1,): frozenset({0}), (2,): frozenset({0, 1}),
                              (1, 2): frozenset({0, 1})})
        zsets = {(1, 2): frozenset({0, 1})}
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        with pytest.raises(ValueError, match=r"not nested at zero \(\(1, 2\), 0\)"):
            hausdorff_complete(comp)

    def test_open_overlap_with_isotropy(self):
        # the pair is openly identified with the chart-1 zero: one class
        atlas = _boundary_atlas(tilde=(0, 1))
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        assert comp.report.ok
        assert len(comp.classes) == 1
        haus = hausdorff_complete(comp)
        wr = weight_function(atlas, haus)
        assert wr.report.ok
        # cross-chart agreement: 1/1 in chart (1,) vs 2/2 in chart (1,2)
        assert list(wr.weights.values()) == [F(1)]

    def test_endpoint_degeneracy_detected(self):
        atlas = _boundary_atlas(tilde=(0, 1), kernel_acts=False)
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        # the Z2 factor acts trivially: each (1,2) zero has two loops
        assert comp.report.failures == [
            {"clause": "not_determined_by_endpoints",
             "pair": (((1, 2), y), ((1, 2), y)),
             "morphisms": [((1, 2), (1, 2), y, "e|e"), ((1, 2), (1, 2), y, "e|g1")]}
            for y in (0, 1)
        ]


def test_classes_are_named_by_their_smallest_label():
    # label order is not the order given: ((1, 2), 0) < ((2,), 0)
    objects = [((2,), 0), ((2,), 1), ((1, 2), 0), ((1,), 0), ((1, 2), 1)]
    pairs = [(((2,), 0), ((1, 2), 0)), (((1, 2), 1), ((2,), 1)), (((1,), 0), ((1,), 0))]
    classes, class_of = _classes_of(objects, pairs)
    assert classes == (((1,), 0), ((1, 2), 0), ((1, 2), 1))
    assert class_of == {
        ((2,), 0): ((1, 2), 0),
        ((2,), 1): ((1, 2), 1),
        ((1, 2), 0): ((1, 2), 0),
        ((1,), 0): ((1,), 0),
        ((1, 2), 1): ((1, 2), 1),
    }
    assert list(class_of) == objects


def _factorization_atlas() -> AtlasModel:
    """Charts (1,), (1,2), (1,2,3) with Γ = 1, 1×Z2, 1×Z2×1: a point under
    a swapped pair under a swapped pair, each pair onto the one below."""

    def chart(I, groups, n):
        g = product_group(groups)
        swap = (1, 0) if n == 2 else (0,)
        return ChartModel(
            index=I,
            domain=GroupQuotientModel(
                points=tuple((F(k),) for k in range(n)),
                group=g,
                perms=[swap if "g1" in e else tuple(range(n)) for e in g.elements],
            ),
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=((),),
            section_samples=((),) * n,
            footprint_map={k: "a" for k in range(n)},
        )

    def change(I, J, rho):
        return CoordinateChangeModel(
            source_index=I,
            target_index=J,
            tilde_indices=(0, 1),
            rho_idx=rho,
            phi_hat=(),
        )

    z1, z2 = trivial_group(), cyclic_group(2)
    return AtlasModel(
        x_labels=("a",),
        cover={i: frozenset({"a"}) for i in (1, 2, 3)},
        charts={
            (1,): chart((1,), [z1], 1),
            (2,): chart((2,), [z2], 2),
            (3,): chart((3,), [z1], 1),
            (1, 2): chart((1, 2), [z1, z2], 2),
            (1, 2, 3): chart((1, 2, 3), [z1, z2, z1], 2),
        },
        changes={
            ((1,), (1, 2)): change((1,), (1, 2), {0: 0, 1: 0}),
            ((1,), (1, 2, 3)): change((1,), (1, 2, 3), {0: 0, 1: 0}),
            ((1, 2), (1, 2, 3)): change((1, 2), (1, 2, 3), {0: 0, 1: 1}),
        },
    )


class TestZeroSetClauses:
    """Each clause of the completion, the Hausdorff step and Λ, fired by
    one doctored direct call."""

    def test_inverse_missing(self):
        # V_(1,2) drops sample 1, which the kernel swap sends sample 0 to:
        # 1 → 0 is a morphism, but 0 → 1 needs 1 ∈ Ṽ_(1)(1,2)
        atlas = _boundary_atlas(tilde=(0, 1))
        red = Reduction(sets={(1,): frozenset({0}), (1, 2): frozenset({0})})
        zsets = {(1,): frozenset({0}), (1, 2): frozenset({0, 1})}
        rep = complete_groupoid(atlas, red, zsets, build_categories(atlas)).report
        assert rep.failures == [
            {"clause": "inverse_missing", "morphism": ((1, 2), (1, 2), 0, "e|g1")}
        ]

    def test_factorization(self):
        # Z_(1,2) without the sample 0 = ρ(0): the morphism (1,2) → (1,2,3)
        # through Γ_(1,2)∖(1) at y = 0 has a source, but neither splitting
        atlas = _factorization_atlas()
        red = Reduction(
            sets={
                I: frozenset(range(len(c.domain.points)))
                for I, c in atlas.charts.items()
            }
        )
        invariant = {
            (1,): frozenset({0}),
            (1, 2): frozenset({0, 1}),
            (1, 2, 3): frozenset({0, 1}),
        }
        assert complete_groupoid(atlas, red, invariant, build_categories(atlas)).report.ok
        zsets = {**invariant, (1, 2): frozenset({1}), (1, 2, 3): frozenset({0})}
        rep = complete_groupoid(atlas, red, zsets, build_categories(atlas)).report
        assert rep.failures == [
            {"clause": "factorization", "morphism": ((1, 2), (1, 2, 3), 0, "e|g1")}
        ]

    def test_footprint_not_nested_over_open_overlaps(self):
        # each zero's overlaps are nested, but the kernel joins the zero
        # over chart 1 to the zero over chart 2 in one class
        atlas = _boundary_atlas(tilde=(0,), tilde2=(1,))
        red = Reduction(sets={(1,): frozenset({0}), (2,): frozenset({0, 1}),
                              (1, 2): frozenset({0, 1})})
        zsets = {(1, 2): frozenset({0, 1})}
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        haus = hausdorff_complete(comp)
        assert haus.report.failures == [
            {"clause": "footprint_not_nested", "cls": ((1, 2), 0), "sets": ((1,), (2,))}
        ]

    def test_formulas_disagree(self):
        # the three samples of a Z3 chart put in one class: count 3/3,
        # orbit |Γ_∅|/|Γ| = 1/3
        atlas = _orbifold_chart_atlas(3)
        red = Reduction(sets={(1,): frozenset(range(3))})
        zsets = {(1,): frozenset(range(3))}
        haus = hausdorff_complete(
            complete_groupoid(atlas, red, zsets, build_categories(atlas))
        )
        p = haus.classes[0]
        merged = replace(
            haus,
            classes=(p,),
            class_of={o: p for o in haus.objects},
            minimal_footprint={p: (1,)},
        )
        assert weight_function(atlas, merged).report.failures == [
            {"clause": "formulas_disagree", "cls": p, "chart": (1,),
             "count": F(1), "orbit": F(1, 3)}
        ]

    def test_chart_dependent(self):
        # one of the two (1,2) samples split off the class: Λ reads 1/1 in
        # chart (1,) and 1/2 in chart (1,2); with F_p = (1,2) the orbit
        # formula in (1,2) agrees with its count, so only this clause fires
        atlas = _boundary_atlas(tilde=(0, 1))
        red, zsets = TestBoundaryZero()._data(atlas)
        haus = hausdorff_complete(
            complete_groupoid(atlas, red, zsets, build_categories(atlas))
        )
        p, o = haus.classes[0], ((1, 2), 1)
        split = replace(
            haus,
            classes=(p, o),
            class_of={**haus.class_of, o: o},
            minimal_footprint={p: (1, 2), o: (1, 2)},
        )
        assert weight_function(atlas, split).report.failures == [
            {"clause": "chart_dependent", "cls": p, "values": [F(1), F(1, 2)]}
        ]


# ---------------------------------------------------------------------------
# wnb axioms and the fundamental class
# ---------------------------------------------------------------------------


class TestWnbAndClass:
    def test_corrupt_weight_detected(self):
        atlas = _orbifold_chart_atlas(3)
        red = Reduction(sets={(1,): frozenset(range(3))})
        zsets = {(1,): frozenset(range(3))}
        comp = complete_groupoid(atlas, red, zsets, build_categories(atlas))
        haus = hausdorff_complete(comp)
        wr = weight_function(atlas, haus)
        bad = dict(wr.weights)
        bad[haus.classes[0]] = F(1)
        bs = wnb_check(atlas, haus, bad)
        assert "weighting" in clauses(bs.report)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            fundamental_class_0d(["p"], {"p": F(0)}, {"p": 1})

    def test_signed_total(self):
        fc = fundamental_class_0d(
            ["p", "q"], {"p": F(1, 2), "q": F(1, 3)}, {"p": 1, "q": -1}
        )
        assert fc.total == F(1, 6)
        assert fc.total_string() == "1/6"


# ---------------------------------------------------------------------------
# branched interval
# ---------------------------------------------------------------------------


class TestBranchedInterval:
    def test_halves(self):
        model = branched_interval_model(F(1, 2), F(1, 2))
        assert model.boundary_in.total == F(1)
        assert sorted(w for _, w, _ in model.boundary_out.entries) == [
            F(1, 2),
            F(1, 2),
        ]
        assert model.boundary_identity == 0

    def test_lambda_table(self):
        m, mp = F(2, 3), F(1, 5)
        model = branched_interval_model(m, mp)
        low = model.class_of[("I", F(1, 4))]
        assert model.weights[low] == m + mp
        assert model.class_of[("Ip", F(1, 4))] == low
        high_i = model.class_of[("I", F(3, 4))]
        high_ip = model.class_of[("Ip", F(3, 4))]
        assert model.weights[high_i] == m
        assert model.weights[high_ip] == mp
        assert high_i != high_ip
        # branch locus: t = 1/2 is glued, t = 5/8 is not
        assert model.class_of[("I", F(1, 2))] == model.class_of[("Ip", F(1, 2))]
        assert model.class_of[("I", F(5, 8))] != model.class_of[("Ip", F(5, 8))]

    def test_boundary_identity_random_rationals(self):
        import random

        rng = random.Random(7)
        for _ in range(20):
            m = F(rng.randint(1, 40), rng.randint(1, 40))
            mp = F(rng.randint(1, 40), rng.randint(1, 40))
            model = branched_interval_model(m, mp)
            assert model.boundary_identity == 0
            assert model.boundary_in.total == m + mp
            assert model.boundary_out.total == m + mp

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            branched_interval_model(F(0), F(1))
        with pytest.raises(ValueError):
            branched_interval_model(F(1), F(-1, 2))
        with pytest.raises(ValueError):
            branched_interval_model(F(1), F(1), denominator=7)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


class TestReport:
    def test_report_shape(self):
        atlas = _interval_atlas(
            (var(0),), [F(-1, 2), F(0), F(1, 2)], [F(-1, 2), F(0), F(1, 2)]
        )
        red = Reduction(
            sets={(1,): frozenset({0, 1, 2})},
            preds={(1,): _open_interval_pred()},
        )
        result = find_zeros(atlas, red, Perturbation())
        report = zero_set_report(result.zeros, total=F(1), warnings=result.warnings)
        assert report["total"] == "1/1"
        assert report["zeros"][0]["sign"] == 1
