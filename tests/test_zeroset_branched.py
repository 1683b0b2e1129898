import sys
from fractions import Fraction

import pytest

import vfc.expressions

from vfc.charts_atlas import (
    AtlasModel,
    ChartModel,
    CoordinateChangeModel,
    GroupQuotientModel,
    cyclic_group,
    product_group,
    trivial_group,
)
from vfc.examples_cli import ExampleDescriptor, build_example, run_example
from vfc.expressions import num, var
from vfc.exterior_engine import RationalMatrix
from vfc.reduction_perturb import Perturbation, Reduction
from vfc.zeroset_branched import (
    BranchedIntervalModel,
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

F = Fraction


def clauses(report):
    return {f["clause"] for f in report.failures}


# ---------------------------------------------------------------------------
# numeric zero finding on one-chart models
# ---------------------------------------------------------------------------

class TestCompiledNewton:
    """Newton and the float-side checks evaluate compiled expressions; the
    interpreter's ``value_and_jacobian`` is left to exact inputs."""

    @pytest.fixture
    def interpreter_calls(self, monkeypatch):
        calls = []
        original = vfc.expressions.value_and_jacobian

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every vfc module that holds the function, under any name
        for name, module in list(sys.modules.items()):
            if name == "vfc" or name.startswith("vfc."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_find_zeros_makes_no_interpreter_calls(self, interpreter_calls):
        built = build_example(ExampleDescriptor("sphere-euler", {"density": 12}))
        result = find_zeros(built.atlas, built.V, built.nu)
        assert interpreter_calls == []
        assert [
            (z.chart_index, z.coordinates, z.sign, z.residual, z.jacobian)
            for z in result.zeros
        ] == [
            ((1,), (0.0, 0.0), 1, 0.0, ((0.125, 0.0), (0.0, 0.125))),
            ((2,), (0.0, 0.0), 1, 0.0, ((-0.0625, 0.0), (0.0, -0.0625))),
        ]
        assert result.warnings == []

    def test_run_zero_list_and_weights(self, interpreter_calls):
        report, code = run_example(
            ExampleDescriptor("sphere-euler", {"density": 12})
        )
        assert code == 0
        assert interpreter_calls == []
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



def _interval_atlas(section_asts, sample_coords, zero_samples):
    g = trivial_group()
    n = len(sample_coords)
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=tuple((F(c),) for c in sample_coords),
            group=g,
            perms={"e": tuple(range(n))},
        ),
        obstruction_dim=1,
        obstruction_action={"e": RationalMatrix.identity(1)},
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
    perms = {
        e: tuple((k + s) % n for k in range(n))
        for s, e in enumerate(g.elements)
    }
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(
            points=tuple((F(k),) for k in range(n)), group=g, perms=perms
        ),
        obstruction_dim=0,
        obstruction_action={},
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
        comp = complete_groupoid(atlas, red, zsets)
        assert comp.report.ok
        # only identity morphisms: no proper subsets of a singleton index
        assert len(comp.morphisms) == n
        assert len(comp.classes) == n
        haus = hausdorff_complete(atlas, red, zsets, comp)
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


def _boundary_atlas(tilde: tuple, kernel_acts: bool = True) -> AtlasModel:
    """Chart (1,) with one zero; chart (1,2) with a swapped pair of zeros
    whose overlap with chart (1,) is controlled by ``tilde``."""
    g1 = trivial_group()
    chart1 = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=((F(0),),), group=g1, perms={"e": (0,)}),
        obstruction_dim=0,
        obstruction_action={},
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
            perms={"e|e": (0, 1), "e|g1": swap},
        ),
        obstruction_dim=0,
        obstruction_action={},
        obstruction_points=((),),
        section_samples=((), ()),
        footprint_map={0: "a", 1: "a"},
    )
    change = CoordinateChangeModel(
        source_index=(1,),
        target_index=(1, 2),
        tilde_indices=tilde,
        rho_idx={y: 0 for y in tilde},
        phi_hat=RationalMatrix.zero(0, 0),
    )
    return AtlasModel(
        x_labels=("a",),
        cover={1: frozenset({"a"}), 2: frozenset({"a"})},
        charts={(1,): chart1, (1, 2): chart12},
        changes={((1,), (1, 2)): change},
    )


class TestBoundaryZero:
    def _data(self, atlas):
        red = Reduction(
            sets={(1,): frozenset({0}), (1, 2): frozenset({0, 1})}
        )
        zsets = {(1,): frozenset({0}), (1, 2): frozenset({0, 1})}
        return red, zsets

    def test_closure_data_gains_morphisms(self):
        atlas = _boundary_atlas(tilde=())
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        assert comp.report.ok
        assert len(comp.classes) == 3  # nothing identified yet
        haus = hausdorff_complete(
            atlas, red, zsets, comp,
            closures={((1,), (1, 2)): frozenset({0, 1})},
        )
        assert haus.report.ok
        assert len(haus.classes) == 2  # the swapped pair is now one class
        assert len(haus.morphisms) > len(comp.morphisms)

    def test_weights_on_closed_model(self):
        atlas = _boundary_atlas(tilde=())
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        haus = hausdorff_complete(
            atlas, red, zsets, comp,
            closures={((1,), (1, 2)): frozenset({0, 1})},
        )
        wr = weight_function(atlas, haus)
        assert wr.report.ok
        # the glued pair: |Γ_{(12)∖(1)}| / |Γ_12| = 2/2 = 1
        assert set(wr.weights.values()) == {F(1)}
        pair_class = next(
            p for p in haus.classes if haus.minimal_footprint[p] == (1,)
        )
        assert wr.weights[pair_class] == F(1)

    def test_trivial_closure_is_identity(self):
        atlas = _boundary_atlas(tilde=())
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        haus = hausdorff_complete(atlas, red, zsets, comp)
        assert haus.report.ok
        assert set(haus.morphisms) == set(comp.morphisms)
        assert len(haus.classes) == len(comp.classes)

    def test_non_nested_closure_rejected(self):
        atlas = _boundary_atlas(tilde=())
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        with pytest.raises(ValueError, match="not nested"):
            hausdorff_complete(
                atlas, red, zsets, comp,
                closures={
                    ((1,), (1, 2)): frozenset({0, 1}),
                    ((2,), (1, 2)): frozenset({0, 1}),
                },
            )

    def test_open_overlap_with_isotropy(self):
        # the pair is openly identified with the chart-1 zero: one class
        atlas = _boundary_atlas(tilde=(0, 1))
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        assert comp.report.ok
        assert len(comp.classes) == 1
        haus = hausdorff_complete(atlas, red, zsets, comp)
        wr = weight_function(atlas, haus)
        assert wr.report.ok
        # cross-chart agreement: 1/1 in chart (1,) vs 2/2 in chart (1,2)
        assert list(wr.weights.values()) == [F(1)]

    def test_endpoint_degeneracy_detected(self):
        atlas = _boundary_atlas(tilde=(0, 1), kernel_acts=False)
        red, zsets = self._data(atlas)
        comp = complete_groupoid(atlas, red, zsets)
        assert "not_determined_by_endpoints" in clauses(comp.report)


# ---------------------------------------------------------------------------
# wnb axioms and the fundamental class
# ---------------------------------------------------------------------------


class TestWnbAndClass:
    def test_corrupt_weight_detected(self):
        atlas = _orbifold_chart_atlas(3)
        red = Reduction(sets={(1,): frozenset(range(3))})
        zsets = {(1,): frozenset(range(3))}
        comp = complete_groupoid(atlas, red, zsets)
        haus = hausdorff_complete(atlas, red, zsets, comp)
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
        report = zero_set_report(
            result.zeros,
            class_weights={"c0": F(1)},
            total=F(1),
            warnings=result.warnings,
        )
        assert report["total"] == "1/1"
        assert report["zeros"][0]["sign"] == 1
        assert report["classes"][0]["weight"] == "1/1"
