"""End-to-end tests for the built-in examples and the vfc CLI."""

import dataclasses
import json
import sys

import pytest
from click.testing import CliRunner
from test_fuzz_documents import NOT_OBJECTS, _set
from test_metric import METRIC_FAULTS, break_metric

from vfc.charts_atlas import (
    atlas_to_json,
    build_categories,
    check_atlas_model,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_realizations,
    check_tame_and_filtration,
)
from vfc import charts_atlas, examples_cli, reduction_perturb, zeroset_branched
from vfc.cli import main
from vfc.examples_cli import (
    EXAMPLE_NAMES,
    BuiltExample,
    ExampleDescriptor,
    build_example,
    build_toy_atlas,
    check_atlas_data,
    emit_json,
    example_to_json,
    random_toy_atlas,
    run_example,
)
from vfc.expressions import DEPTH_CAP, var
from vfc.reduction_perturb import (
    Perturbation,
    check_perturbation,
    check_reduction,
    perturbation_to_json,
)
from vfc.zeroset_branched import PerturbationRejected, find_zeros

N8 = {"density": 8}


def _validate_atlas(atlas):
    assert check_atlas_model(atlas).ok
    for I in atlas.index_sets():
        assert check_chart(atlas, I).ok, check_chart(atlas, I).failures
    for (I, J) in atlas.changes:
        rep = check_coordinate_change(atlas, I, J)
        assert rep.ok, rep.failures
    assert check_cocycle(atlas, "strong").ok
    rep = check_tame_and_filtration(atlas)
    assert rep.ok, rep.failures
    cats = build_categories(atlas)
    assert cats.report.ok, cats.report.failures
    assert check_realizations(atlas, cats.domain_category).ok
    return cats


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,params",
    [
        ("sphere-euler", N8),
        ("football-euler", N8),
        ("football-atlas", N8),
        ("football-fclass", {}),
        ("single-orbifold-chart", {"order": 5}),
    ],
)
def test_builders_pass_all_validators(name, params):
    built = build_example(ExampleDescriptor(name, params))
    _validate_atlas(built.atlas)
    rep = check_reduction(built.atlas, built.V)
    assert rep.ok, rep.failures
    if built.kind == "euler":
        assert built.norms.validate(built.atlas).ok
        rep = check_perturbation(built.atlas, built.V, built.nu, C=built.C)
        assert rep.ok, rep.failures


def test_density_floor_enforced():
    with pytest.raises(ValueError):
        build_example(ExampleDescriptor("sphere-euler", {"density": 7}))


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        build_example(ExampleDescriptor("no-such-model"))


@pytest.mark.parametrize("seed", range(8))
def test_random_toy_atlases_valid(seed):
    _validate_atlas(random_toy_atlas(seed))


def test_toy_atlas_footprints_cover_x():
    atlas = build_toy_atlas(
        {1: {"a", "b"}, 2: {"b", "c"}}, ["a", "b", "c"], {1: 2, 2: 3}
    )
    _validate_atlas(atlas)
    covered = set()
    for I in atlas.index_sets():
        covered |= set(atlas.charts[I].footprint_map.values())
    assert covered == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# the run pipeline
# ---------------------------------------------------------------------------


def test_run_sphere_all_stages_pass():
    report, code = run_example(ExampleDescriptor("sphere-euler", N8))
    assert code == 0
    assert report["ok"]
    assert all(st["ok"] for st in report["stages"])
    assert report["total"] == "2/1"
    zeros = report["zero_set"]["zeros"]
    assert len(zeros) == 2
    assert {tuple(z["chart"]) for z in zeros} == {(1,), (2,)}
    for z in zeros:
        assert z["sign"] == 1
        assert z["weight"] == "1/1"
        assert z["residual"] < 1e-10


def _failed_run(monkeypatch, doctor):
    """``run_example`` of sphere-euler N=8 doctored by ``doctor``: the exit
    code and the failed stages with their failures."""
    built = doctor(build_example(ExampleDescriptor("sphere-euler", N8)))
    monkeypatch.setattr(examples_cli, "build_example", lambda descriptor: built)
    report, code = run_example(ExampleDescriptor("sphere-euler", N8))
    return code, [(st["name"], st["failures"]) for st in report["stages"] if not st["ok"]]


def test_run_without_a_metric_has_no_adaptedness_constants(monkeypatch):
    code, failed = _failed_run(monkeypatch, lambda built: dataclasses.replace(
        built, atlas=dataclasses.replace(built.atlas, metric=None)))
    assert code == 1
    assert failed == [("adapted", [{
        "clause": "constants_unavailable",
        "error": "adaptedness constants require an atlas metric",
    }])]


def test_run_with_a_zero_off_the_samples_stops_at_zero_sampling(monkeypatch):
    """1/50 is added to the first component of ν_1's formula.  The checks
    read the declared values of ν and pass, but the zero that Newton finds
    in chart (1,) moves from the sample (0, 0) to no sample."""
    def doctor(built):
        first, *rest = built.nu.asts[(1,)]
        asts = {**built.nu.asts, (1,): (["+", first, ["num", "1/50"]], *rest)}
        return dataclasses.replace(built, nu=dataclasses.replace(built.nu, asts=asts))

    code, failed = _failed_run(monkeypatch, doctor)
    assert code == 1
    assert failed == [("zero_sampling", [{
        "clause": "zero_not_at_sample", "chart": [1], "point": [pytest.approx(-0.161924), 0.0],
    }])]


def test_a_zero_class_with_two_signs_fails_zero_signs():
    """Sample 1 of chart (1,) and sample 0 of chart (1, 2), which ρ sends
    onto it, are one class of the sphere's zero-set groupoid.  With signs
    +1 and −1 on its two objects the class has no sign: a ``zero_signs``
    stage fails after the weights, and no total is reported.  With one
    sign the run ends as before, with no such stage."""
    built = build_example(ExampleDescriptor("sphere-euler", N8))
    categories = build_categories(built.atlas)
    assert built.atlas.changes[((1,), (1, 2))].rho_idx[0] == 1
    zsets = {(1,): frozenset({0, 1}), (2,): frozenset({0}), (1, 2): frozenset({0})}
    signs = {((1,), 0): {1}, ((2,), 0): {1}, ((1,), 1): {1}, ((1, 2), 0): {-1}}
    stages, report = [], {}
    assert examples_cli._groupoid_stages(built, categories, zsets, signs, stages, report) is None
    assert [(st["name"], st["ok"]) for st in stages][-2:] == [("wnb", True), ("zero_signs", False)]
    assert stages[-1]["failures"] == [{
        "clause": "zero_class_signs_differ", "representative": "((1,), 1)", "signs": [-1, 1],
    }]
    assert "total" not in report
    signs[((1, 2), 0)] = {1}
    stages, report = [], {}
    assert examples_cli._groupoid_stages(built, categories, zsets, signs, stages, report)
    assert [st["name"] for st in stages][-1] == "wnb" and report["total"] == "3/1"


def test_run_football_weights():
    report, code = run_example(ExampleDescriptor("football-euler", N8))
    assert code == 0
    assert report["total"] == "5/6"
    weights = {tuple(z["chart"]): z["weight"] for z in report["zero_set"]["zeros"]}
    assert weights == {(1,): "1/2", (2,): "1/3"}


def test_run_interval():
    report, code = run_example(
        ExampleDescriptor("branched-interval", {"m": "1/2", "mp": "1/3"})
    )
    assert code == 0
    assert report["interval"]["boundary_identity"] == "0/1"


def test_run_determinism_byte_for_byte(tmp_path):
    paths = []
    for k in range(2):
        report, code = run_example(ExampleDescriptor("sphere-euler", N8))
        assert code == 0
        p = tmp_path / f"run{k}.json"
        emit_json(report, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seed_grid_levels_agree():
    r1, c1 = run_example(ExampleDescriptor("sphere-euler", N8), seed_grid=1)
    r2, c2 = run_example(ExampleDescriptor("sphere-euler", N8), seed_grid=2)
    assert c1 == c2 == 0
    assert r1["total"] == r2["total"]
    assert len(r1["zero_set"]["zeros"]) == len(r2["zero_set"]["zeros"])


def test_run_checks_perturbation_and_builds_groupoid_once(monkeypatch):
    """One ``vfc run`` checks the perturbation once (the adaptedness stage
    reuses its zero checks), builds B_K once and completes the zero-set
    groupoid once, in that B_K (the Hausdorff step extends the completed
    groupoid)."""
    names = ("check_perturbation", "build_categories", "complete_groupoid")
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    originals = {
        "check_perturbation": reduction_perturb.check_perturbation,
        "build_categories": charts_atlas.build_categories,
        "complete_groupoid": zeroset_branched.complete_groupoid,
    }
    # every vfc module that holds one of the functions, under any name
    for module_name, module in list(sys.modules.items()):
        if module_name == "vfc" or module_name.startswith("vfc."):
            for attr, value in list(vars(module).items()):
                for name, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, counting(name, original))
    report, code = run_example(ExampleDescriptor("sphere-euler", {"density": 12}))
    assert code == 0 and report["total"] == "2/1"
    assert calls == dict.fromkeys(names, 1)


def test_a_run_constructs_one_category(monkeypatch):
    """B_K is the only category a pass builds: one sphere-euler N=12
    ``run_example`` constructs one ``FiniteCategory``, and no module of
    ``vfc`` but ``charts_atlas`` names the constructor."""
    import pathlib

    example = ExampleDescriptor("sphere-euler", {"density": 12})
    B = build_categories(build_example(example).atlas).domain_category
    made = []  # the morphism count of each category constructed
    init = charts_atlas.FiniteCategory.__init__

    def counting(self, *args, **kwargs):
        made.append(len(args[1]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(charts_atlas.FiniteCategory, "__init__", counting)
    report, code = run_example(example)
    assert code == 0 and report["total"] == "2/1"
    assert made == [len(B.morphisms)]
    source = pathlib.Path(charts_atlas.__file__).parent
    assert [p.name for p in sorted(source.glob("*.py"))
            if "FiniteCategory(" in p.read_text(encoding="utf-8")] == ["charts_atlas.py"]


def test_run_report_json_serializable():
    report, _ = run_example(ExampleDescriptor("football-fclass"))
    text = json.dumps(report, sort_keys=True)
    assert "footprint_weights" in text


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_round_trip_and_recheck(tmp_path):
    built = build_example(ExampleDescriptor("sphere-euler", N8))
    data = example_to_json(built)
    p = tmp_path / "atlas.json"
    emit_json(data, str(p))
    parsed = json.loads(p.read_text())
    report = check_atlas_data(parsed)
    assert report["ok"], [s for s in report["stages"] if not s["ok"]]


def _degenerate_nu(built: BuiltExample) -> Perturbation:
    """Quadratic vanishing at the disk centers: singular Jacobian there."""
    x, y = var(0), var(1)
    quad = (["*", x, x], ["*", y, y])
    asts = dict(built.nu.asts)
    asts[(1,)] = quad
    asts[(2,)] = quad
    return Perturbation(asts=asts, samples=built.nu.samples)


def test_degenerate_perturbation_rejected():
    built = build_example(ExampleDescriptor("sphere-euler", N8))
    with pytest.raises(PerturbationRejected):
        find_zeros(built.atlas, built.V, _degenerate_nu(built))


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    built = build_example(ExampleDescriptor("sphere-euler", N8))
    atlas_path = tmp / "atlas.json"
    nu_path = tmp / "nu.json"
    emit_json(example_to_json(built), str(atlas_path))
    emit_json(perturbation_to_json(built.nu), str(nu_path))
    bad_nu_path = tmp / "nu_bad.json"
    emit_json(perturbation_to_json(_degenerate_nu(built)), str(bad_nu_path))
    return atlas_path, nu_path, bad_nu_path


def test_cli_run_exit_zero(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    res = runner.invoke(
        main,
        ["run", "sphere-euler", "--density", "8", "--json", str(out)],
    )
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["total"] == "2/1"
    assert "elapsed" not in json.dumps(report)


def test_cli_run_interval_exit_zero():
    res = CliRunner().invoke(
        main, ["run", "branched-interval", "--m", "3/4", "--mp", "1/4"]
    )
    assert res.exit_code == 0, res.output


def test_cli_run_bad_rational_exit_three():
    res = CliRunner().invoke(main, ["run", "branched-interval", "--m", "x/y"])
    assert res.exit_code == 3


def test_cli_check_valid_exit_zero(sphere_files):
    atlas_path, _, _ = sphere_files
    res = CliRunner().invoke(main, ["check", str(atlas_path)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("cut", [
    lambda text: text[:400],
    # json.load raises RecursionError long before this depth
    lambda text: "[" * 100_000 + "]" * 100_000,
], ids=["truncated", "nested"])
def test_cli_check_truncated_exit_three(sphere_files, tmp_path, cut):
    atlas_path, _, _ = sphere_files
    broken = tmp_path / "truncated.json"
    broken.write_text(cut(atlas_path.read_text()))
    res = CliRunner().invoke(main, ["check", str(broken)])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "parse error" in res.output


def test_cli_check_wrong_schema_exit_three(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text('{"schema": "something-else/9"}')
    res = CliRunner().invoke(main, ["check", str(p)])
    assert res.exit_code == 3


def test_cli_zeros_reduction_sample_outside_its_chart_exit_three(sphere_files, tmp_path):
    atlas_path, nu_path, _ = sphere_files
    doc = json.loads(atlas_path.read_text())
    doc["reduction"]["sets"]["1"].append(999)
    broken = tmp_path / "reduction.json"
    broken.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["zeros", str(broken), "--perturbation", str(nu_path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert ("schema error: chart (1,): reduction sets: 999 is not a sample of the chart,"
            " which has 25") in res.output


def test_cli_check_reads_the_reduction_before_the_first_stage(sphere_files, tmp_path,
                                                             monkeypatch):
    """A bad reduction sample is a schema error before any atlas stage runs."""
    atlas_path, _, _ = sphere_files
    doc = json.loads(atlas_path.read_text())
    doc["reduction"]["sets"]["1"].append("x")
    broken = tmp_path / "reduction.json"
    broken.write_text(json.dumps(doc))
    charts = []
    monkeypatch.setattr(examples_cli, "check_chart", lambda atlas, I: charts.append(I))
    res = CliRunner().invoke(main, ["check", str(broken)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert ("schema error: chart (1,): reduction sets: 'x' is not a sample of the chart,"
            " which has 25") in res.output
    assert charts == []


@pytest.mark.parametrize("command", ["check", "zeros"])
@pytest.mark.parametrize("case", METRIC_FAULTS)
def test_cli_broken_metric_exit_three(sphere_files, tmp_path, case, command):
    atlas_path, nu_path, _ = sphere_files
    broken = tmp_path / "metric.json"
    broken.write_text(json.dumps(break_metric(json.loads(atlas_path.read_text()), case)))
    args = [command, str(broken)]
    if command == "zeros":
        args += ["--perturbation", str(nu_path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "schema error: metric" in res.output


def test_cli_check_broken_group_table_exit_one(tmp_path):
    built = build_example(ExampleDescriptor("football-atlas", N8))
    data = example_to_json(built)
    # break the identity axiom while keeping the table closed: e*g1 = g2
    for row in data["charts"]["2"]["domain"]["group"]["table"]:
        if row[0] == "e" and row[1] == "g1":
            row[2] = "g2"
    broken = tmp_path / "table.json"
    broken.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["check", str(broken)])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def _unknown_perms_key(doc):
    perms = doc["charts"]["1,2"]["domain"]["perms"]
    perms["zz"] = perms["e|e"]


def _missing_perms_key(doc):
    del doc["charts"]["1,2"]["domain"]["perms"]["g1|e"]


def _unknown_action_key(doc):
    action = doc["charts"]["1,2"]["obstruction_action"]
    action["zz"] = action["e|e"]


def _missing_action_key(doc):
    del doc["charts"]["1,2"]["obstruction_action"]["g1|e"]


def _renamed_element(doc):
    """Γ_12 with g1|e renamed h: still a group, but not Γ_1 × Γ_2."""
    text = json.dumps(doc["charts"]["1,2"]).replace('"g1|e"', '"h"')
    doc["charts"]["1,2"] = json.loads(text)


@pytest.mark.parametrize("doctor, message", [
    (_unknown_perms_key, "chart 1,2: perms has an entry for 'zz'"),
    (_missing_perms_key, "chart 1,2: perms has no entry for the element 'g1|e'"),
    (_unknown_action_key, "chart 1,2: obstruction_action has an entry for 'zz'"),
    (_missing_action_key, "chart 1,2: obstruction_action has no entry for the element 'g1|e'"),
    (_renamed_element, "chart (1, 2): its group is not the product of its basic groups"),
])
def test_cli_check_element_keyed_data_exit_three(tmp_path, doctor, message):
    doc = example_to_json(build_example(ExampleDescriptor("football-euler", N8)))
    doctor(doc)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["check", str(path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {message}" in res.output


def _huge_numerator(doc):
    doc["charts"]["1,2"]["section_samples"][0][0] = f"{2**63}/1"


def _denominators_without_common_int64(doc):
    """Three grid points over primes near 10⁹: their lcm exceeds int64."""
    points = doc["charts"]["1"]["obstruction_points"]
    for k, p in enumerate((1000000007, 1000000009, 998244353)):
        points[k + 1] = [f"1/{p}", "0/1"]


def _short_sample(doc):
    doc["charts"]["1,2"]["section_samples"][3].pop()


def _point_beyond_int64(doc):
    doc["charts"]["1,2"]["domain"]["points"][0][0] = f"{2**63}/1"


def _point_over_a_huge_denominator(doc):
    doc["charts"]["1,2"]["domain"]["points"][1][2] = f"1/{2**63}"


def _short_point(doc):
    doc["charts"]["1,2"]["domain"]["points"][2].pop()


def _product_beyond_int64(doc):
    """An identity action with entries 2⁶²: the entries fit int64, the
    products of the action law do not."""
    doc["charts"]["1"]["obstruction_action"]["e"]["entries"] = [f"{2**62}/1", "0/1", "0/1", "1/1"]


@pytest.mark.parametrize("command", ["check", "zeros"])
@pytest.mark.parametrize("doctor, message", [
    (_huge_numerator, "chart (1, 2): section_samples: the entries over their common"
                      " denominator"),
    (_denominators_without_common_int64, "chart (1,): obstruction_points: the entries"
                                         " over their common denominator"),
    (_short_sample, "chart (1, 2): section_samples: not an array of shape"),
    (_point_beyond_int64, "chart 1,2: points: the entries over their common denominator"),
    (_point_over_a_huge_denominator, "chart 1,2: points: the entries over their common"
                                     " denominator"),
    (_short_point, "chart 1,2: points: not an array of shape"),
])
def test_cli_malformed_obstruction_arrays_exit_three(sphere_files, tmp_path, command,
                                                     doctor, message):
    atlas_path, nu_path, _ = sphere_files
    doc = json.loads(atlas_path.read_text())
    doctor(doc)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    args = [command, str(path)]
    if command == "zeros":
        args += ["--perturbation", str(nu_path)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {message}" in res.output


def test_cli_check_product_beyond_int64_exit_three(sphere_files, tmp_path):
    atlas_path, _, _ = sphere_files
    doc = json.loads(atlas_path.read_text())
    _product_beyond_int64(doc)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["check", str(path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "schema error: chart (1,): an exact product or comparison would leave int64" in (
        res.output
    )


def test_cli_check_table_entry_outside_group_exit_one(tmp_path):
    doc = atlas_to_json(random_toy_atlas(3))
    doc["charts"]["1,2"]["domain"]["group"]["table"][4][2] = "zz"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    res = CliRunner().invoke(main, ["check", str(path), "--json", str(out)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    failures = [f for st in json.loads(out.read_text())["stages"] for f in st["failures"]]
    assert {"clause": "not_closed", "from": "finite_group", "pair": ["g1|e", "g1|e"]} in failures


def test_cli_zeros_exit_zero(sphere_files, tmp_path):
    atlas_path, nu_path, _ = sphere_files
    out = tmp_path / "zeros.json"
    res = CliRunner().invoke(
        main,
        ["zeros", str(atlas_path), "--perturbation", str(nu_path), "--json", str(out)],
    )
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert len(report["zeros"]) == 2


@pytest.mark.parametrize("drop", ["reduction", "nothing"])
@pytest.mark.parametrize("name", ["sphere-euler", "football-euler"])
def test_cli_zeros_without_reduction_predicates_finds_the_centres(tmp_path, name, drop):
    # by construction ν_i vanishes only at the centre of disk D_i (sample 0
    # of chart (i,)) and s₁₂ + ν₁₂ nowhere, and the weighted count is
    # 1/|Γ₁| + 1/|Γ₂|: the zeros are the two centres, each of sign +1,
    # with the document's reduction (each centre is in V_i) or without one
    built = build_example(ExampleDescriptor(name, N8))
    doc = example_to_json(built)
    if drop == "reduction":
        del doc["reduction"]
    atlas_path, nu_path, out = tmp_path / "atlas.json", tmp_path / "nu.json", tmp_path / "z.json"
    atlas_path.write_text(json.dumps(doc))
    nu_path.write_text(json.dumps(doc["perturbation"]))
    res = CliRunner().invoke(
        main, ["zeros", str(atlas_path), "--perturbation", str(nu_path), "--json", str(out)]
    )
    assert res.exit_code == 0, res.output
    centres = [([i], built.atlas.charts[(i,)].domain.points.floats()[0].tolist()) for i in (1, 2)]
    zeros = json.loads(out.read_text())["zeros"]
    assert [(z["chart"], z["coordinates"], z["sign"]) for z in zeros] == [
        (chart, centre, 1) for chart, centre in centres
    ]


def test_cli_zeros_rejected_exit_two(sphere_files):
    atlas_path, _, bad_nu_path = sphere_files
    res = CliRunner().invoke(
        main, ["zeros", str(atlas_path), "--perturbation", str(bad_nu_path)]
    )
    assert res.exit_code == 2
    assert "rejected" in res.output


def _arity_cut(asts):
    asts["1,2"] = asts["1,2"][:1]


def _unknown_node(asts):
    asts["1,2"][0] = ["foo", ["var", 0]]


def _zero_divisor(asts):
    asts["1,2"][0] = ["/", ["num", "1/1"], ["-", ["var", 0], ["var", 0]]]


@pytest.mark.parametrize("doctor, message", [
    (_arity_cut, "cannot find zeros: chart (1, 2): section/perturbation arity mismatch"),
    # the grammar is checked as the document is read
    (_unknown_node, "schema error: chart (1, 2): perturbation asts: unknown expression node: 'foo'"),
    (_zero_divisor, "cannot find zeros: chart (1, 2): float division by zero"),
])
def test_cli_zeros_unevaluable_perturbation_exit_three(sphere_files, tmp_path, doctor,
                                                       message):
    atlas_path, nu_path, _ = sphere_files
    doc = json.loads(nu_path.read_text())
    doctor(doc["asts"])
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["zeros", str(atlas_path), "--perturbation", str(path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def _cli_check_doctored(sphere_files, tmp_path, doctor):
    """``vfc check`` on the sphere-euler N=8 document after ``doctor``."""
    atlas_path, _, _ = sphere_files
    doc = json.loads(atlas_path.read_text())
    doctor(doc)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    return CliRunner().invoke(main, ["check", str(path)])


def _set_phi_hat(doc, matrix):
    change = doc["changes"][0]
    change["phi_hat"] = matrix
    return f"coordinate change {tuple(change['source'])}->{tuple(change['target'])}: phi_hat"


def _set_affine(doc, matrix):
    affine = doc["charts"]["1"]["domain"]["affine"]
    affine[next(iter(affine))]["matrix"] = matrix
    return "chart 1: affine"


def _set_obstruction_action(doc, matrix):
    action = doc["charts"]["1"]["obstruction_action"]
    action[next(iter(action))] = matrix
    return "chart 1: obstruction_action"


@pytest.mark.parametrize("matrix, message", [
    ({"rows": 4, "cols": 2, "entries": ["1/1"] * 9}, "entries has 9 values, not rows * cols = 8"),
    ({"rows": 0, "cols": 2, "entries": []}, "cols is 2 over 0 rows"),
    ({"rows": 4.0, "cols": 2, "entries": ["1/1"] * 8}, "rows is 4.0, not a nonnegative integer"),
    ({"rows": 4, "cols": -2, "entries": []}, "cols is -2, not a nonnegative integer"),
])
@pytest.mark.parametrize("setter", [_set_phi_hat, _set_affine, _set_obstruction_action])
def test_cli_check_phi_hat_of_another_shape_exit_three(sphere_files, tmp_path, setter, matrix,
                                                       message):
    names = []
    res = _cli_check_doctored(sphere_files, tmp_path, lambda d: names.append(setter(d, matrix)))
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {names[0]}: {message}" in res.output


@pytest.mark.parametrize("matrix, shift", [
    ({"rows": 3, "cols": 3, "entries": ["1/1"] * 9}, ["0/1"] * 3),
    ({"rows": 2, "cols": 3, "entries": ["1/1"] * 6}, ["0/1"] * 2),
    ({"rows": 2, "cols": 2, "entries": ["1/1"] * 4}, ["0/1"] * 3),
])
def test_cli_check_affine_of_another_dimension_exit_three(sphere_files, tmp_path, matrix,
                                                          shift):
    """The sphere's chart 1 has samples in R²."""
    def doctor(doc):
        affine = doc["charts"]["1"]["domain"]["affine"]
        affine[next(iter(affine))] = {"matrix": matrix, "shift": shift}

    res = _cli_check_doctored(sphere_files, tmp_path, doctor)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "schema error: chart 1: affine is not 2 x 2 with a shift of 2" in res.output


def _divide_nu_by_zero(doc):
    _zero_divisor(doc["perturbation"]["asts"])


def _divide_rho_by_zero(doc):
    doc["changes"][0]["rho_asts"][0] = ["/", ["num", "1/1"], ["-", ["var", 0], ["var", 0]]]


@pytest.mark.parametrize("doctor", [_divide_nu_by_zero, _divide_rho_by_zero])
def test_cli_check_zero_divisor_exit_three(sphere_files, tmp_path, doctor):
    res = _cli_check_doctored(sphere_files, tmp_path, doctor)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "evaluation error: float division by zero" in res.output


def _widen_nu_samples(doc):
    """Every declared ν value of chart (1,) has 3 entries, where E_1 has 2."""
    for row in doc["perturbation"]["samples"]["1"].values():
        row.append("0/1")


def _ragged_nu_samples(doc):
    doc["perturbation"]["samples"]["1"]["0"].append("0/1")


def _nu_sample_beyond_int64(doc):
    doc["perturbation"]["samples"]["1"]["0"][0] = f"{2**63}/1"


def _nu_sample_index_beyond_int64(doc):
    doc["perturbation"]["samples"]["1"][str(2**63)] = ["0/1", "0/1"]


def _nu_sample_zero_denominator(doc):
    doc["perturbation"]["samples"]["1"]["0"][0] = "1/0"


def _nu_sample_outside_the_chart(doc):
    doc["perturbation"]["samples"]["1"]["999"] = ["0/1", "0/1"]


def _undeclared_nu_of_another_arity(doc):
    """Chart (1, 2) has no declared ν and 3 expressions, where E_12 has dim 4."""
    del doc["perturbation"]["samples"]["1,2"]
    doc["perturbation"]["asts"]["1,2"].pop()


@pytest.mark.parametrize("doctor, message", [
    (_widen_nu_samples, "chart (1,): perturbation samples have 3 values, not 2"),
    (_ragged_nu_samples, "chart (1,): perturbation samples: not an array of shape"),
    (_nu_sample_beyond_int64, "chart (1,): perturbation samples: the entries over their common"
                              " denominator"),
    (_nu_sample_index_beyond_int64, "chart (1,): perturbation samples: the entries over their"
                                    " common denominator 1 do not fit int64"),
    (_undeclared_nu_of_another_arity, "chart (1, 2): perturbation has 3 expressions, not 4"),
    (_nu_sample_zero_denominator, "chart (1,): perturbation samples: Fraction(1, 0)"),
    (_nu_sample_outside_the_chart, "chart (1,): perturbation samples: 999 is not a sample of the"
                                   " chart, which has 25"),
])
def test_cli_check_malformed_perturbation_exit_three(sphere_files, tmp_path, doctor, message):
    res = _cli_check_doctored(sphere_files, tmp_path, doctor)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert f"schema error: {message}" in res.output


def _section_var_beyond_the_chart(doc):
    doc["charts"]["1"]["section_asts"][0] = ["var", 9]


def _rho_sum_of_nothing(doc):
    doc["changes"][0]["rho_asts"][1] = ["+"]


def _deep_nu_expression(doc):
    """ν of chart (1,) is declared at every sample, and its first
    expression is nested 600 levels deep, which once overflowed the
    tape compiler's recursion."""
    ast = ["var", 0]
    for _ in range(599):
        ast = ["neg", ast]
    doc["perturbation"]["asts"]["1"][0] = ast


def _unknown_node_in_declared_nu(doc):
    """ν of chart (1,) is declared at every sample, so its expressions
    were never evaluated."""
    doc["perturbation"]["asts"]["1"][0] = ["frob"]


@pytest.mark.parametrize("doctor, message", [
    (_section_var_beyond_the_chart, "chart 1: section_asts: ['var', 9] is not one of the 2"
                                    " coordinates"),
    (_rho_sum_of_nothing, "coordinate change (1,)->(1, 2): rho_asts: ['+'] has 0 arguments,"
                          " not at least 1"),
    (_deep_nu_expression, f"chart (1,): perturbation asts: an expression is nested deeper"
                          f" than {DEPTH_CAP} levels"),
    (_unknown_node_in_declared_nu, "chart (1,): perturbation asts: unknown expression node:"
                                   " 'frob'"),
])
def test_cli_expressions_outside_the_grammar_exit_three(sphere_files, tmp_path, doctor,
                                                        message):
    res = _cli_check_doctored(sphere_files, tmp_path, doctor)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {message}" in res.output


BOTH = ("check", "zeros")


@pytest.mark.parametrize("command, edit, pert_edit, message", [
    *[(command, _set([section], value), None, f"{section} is not an object")
      for command in BOTH for section in ("reduction", "charts") for value in NOT_OBJECTS],
    *[("check", _set(["perturbation"], value), None, "perturbation is not an object")
      for value in NOT_OBJECTS],
    *[(command, lambda doc: [doc], None, "the document is not an object") for command in BOTH],
    ("zeros", None, lambda pert: [pert], "perturbation is not an object"),
    ("zeros", None, _set(["asts"], []), "perturbation asts is not an object"),
    ("zeros", None, _set(["samples"], []), "perturbation samples is not an object"),
    ("check", _set(["norms", "maps"], []), None, "norms maps is not an object"),
    *[(command, _set(path, value), None, f"{where} is not an object")
      for command in BOTH for value in NOT_OBJECTS for path, where in (
          (["cover"], "cover"),
          (["charts", "1", "footprint_map"], "chart 1: footprint_map"),
          (["changes", 0, "rho_idx"], "coordinate change (1,)->(1, 2): rho_idx"))],
    # vfc check reads the document's perturbation, vfc zeros its own file
    *[(command, *edits, "chart (1,): perturbation samples is not an object")
      for value in NOT_OBJECTS for command, edits in (
          ("check", (_set(["perturbation", "samples", "1"], value), None)),
          ("zeros", (None, _set(["samples", "1"], value))))],
    # the predicates that documents no longer carry
    *[(command, _set(path, ["true"]), None, f"{where}: '{path[-1]}' is no field")
      for command in BOTH for path, where in (
          (["reduction", "preds"], "reduction"),
          (["charts", "1", "domain", "membership"], "chart 1"),
          (["changes", 0, "domain_pred"], "coordinate change (1,)->(1, 2)"),
          (["changes", 0, "lifted_pred"], "coordinate change (1,)->(1, 2)"))],
])
def test_cli_sections_of_the_wrong_type_exit_three(sphere_files, tmp_path, command, edit,
                                                   pert_edit, message):
    """A section that is no JSON object, of the document or of ``vfc
    zeros``' perturbation file, and a removed field are schema errors
    naming them, in each command that reads them."""
    atlas_path, nu_path, _ = sphere_files
    doc, pert = json.loads(atlas_path.read_text()), json.loads(nu_path.read_text())
    path, nu = tmp_path / "doc.json", tmp_path / "nu.json"
    path.write_text(json.dumps(edit(doc) if edit else doc))
    nu.write_text(json.dumps(pert_edit(pert) if pert_edit else pert))
    args = [command, str(path)] + (["--perturbation", str(nu)] if command == "zeros" else [])
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {message}" in res.output


@pytest.mark.parametrize("doctor, message", [
    (_nu_sample_zero_denominator, "chart (1,): perturbation samples: Fraction(1, 0)"),
    (_nu_sample_outside_the_chart, "chart (1,): perturbation samples: 999 is not a sample of the"
                                   " chart, which has 25"),
])
def test_cli_zeros_malformed_perturbation_samples_exit_three(sphere_files, tmp_path, doctor,
                                                             message):
    atlas_path, nu_path, _ = sphere_files
    doc = json.loads(nu_path.read_text())
    doctor({"perturbation": doc})
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["zeros", str(atlas_path), "--perturbation", str(path)])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"schema error: {message}" in res.output


def _nu_evaluations(monkeypatch, nu_asts: dict) -> list:
    """(chart, coordinates) of each interpreter evaluation of ν's expressions."""
    chart_of = {json.dumps(list(a)): I for I, a in nu_asts.items()}
    seen = []
    evaluate = reduction_perturb.eval_vector

    def counting(asts, coords):
        if json.dumps(list(asts)) in chart_of:
            seen.append((chart_of[json.dumps(list(asts))], tuple(coords)))
        return evaluate(asts, coords)

    monkeypatch.setattr(reduction_perturb, "eval_vector", counting)
    return seen


def test_declared_nu_is_never_evaluated(monkeypatch):
    example = ExampleDescriptor("football-euler", {"density": 12})
    seen = _nu_evaluations(monkeypatch, build_example(example).nu.asts)
    report, code = run_example(example)
    assert code == 0 and report["ok"]
    assert seen == []


def test_undeclared_nu_is_evaluated_once_per_sample(monkeypatch, tmp_path):
    built = build_example(ExampleDescriptor("sphere-euler", N8))
    doc = example_to_json(built)
    del doc["perturbation"]["samples"]["1,2"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    seen = _nu_evaluations(monkeypatch, built.nu.asts)
    res = CliRunner().invoke(main, ["check", str(path)])
    assert res.exit_code == 1, res.output
    assert seen and {I for I, _ in seen} == {(1, 2)}
    assert len(seen) == len(set(seen)) <= len(built.atlas.charts[(1, 2)].domain.points)


def test_example_names_frozen():
    assert set(EXAMPLE_NAMES) == {
        "football-atlas",
        "football-fclass",
        "sphere-euler",
        "football-euler",
        "branched-interval",
        "single-orbifold-chart",
    }
