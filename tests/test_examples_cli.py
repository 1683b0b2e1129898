"""End-to-end tests for the built-in examples and the vfc CLI."""

import json
import sys

import pytest
from click.testing import CliRunner
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
from vfc import reduction_perturb, zeroset_branched
from vfc.examples_cli import (
    EXAMPLE_NAMES,
    BuiltExample,
    ExampleDescriptor,
    build_example,
    build_toy_atlas,
    check_atlas_data,
    emit_json,
    example_to_json,
    main,
    random_toy_atlas,
    run_example,
)
from vfc.expressions import var
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
    reuses its zero checks) and enumerates the zero-set groupoid once (the
    Hausdorff step extends the completed groupoid)."""
    calls = {"check_perturbation": 0, "_groupoid_core": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    originals = {
        "check_perturbation": reduction_perturb.check_perturbation,
        "_groupoid_core": zeroset_branched._groupoid_core,
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
    assert calls == {"check_perturbation": 1, "_groupoid_core": 1}


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


def test_cli_check_truncated_exit_three(sphere_files, tmp_path):
    atlas_path, _, _ = sphere_files
    broken = tmp_path / "truncated.json"
    broken.write_text(atlas_path.read_text()[:400])
    res = CliRunner().invoke(main, ["check", str(broken)])
    assert res.exit_code == 3
    assert "parse error" in res.output


def test_cli_check_wrong_schema_exit_three(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text('{"schema": "something-else/9"}')
    res = CliRunner().invoke(main, ["check", str(p)])
    assert res.exit_code == 3


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
    (_arity_cut, "section/perturbation arity mismatch"),
    (_unknown_node, "unknown expression node: 'foo'"),
    (_zero_divisor, "float division by zero"),
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
    assert f"cannot find zeros: chart (1, 2): {message}" in res.output


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


def test_example_names_frozen():
    assert set(EXAMPLE_NAMES) == {
        "football-atlas",
        "football-fclass",
        "sphere-euler",
        "football-euler",
        "branched-interval",
        "single-orbifold-chart",
    }
