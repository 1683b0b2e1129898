"""Doctored ``vfc-atlas/1`` documents, drawn by Hypothesis, through
``vfc check`` and ``vfc zeros`` in process.

Each document is the sphere-euler or football-euler N=8 document with one
edit: a grid point repeated, moved or swapped with another, a section
value, an obstruction action entry or a φ̂ entry changed, the ρ_IJ
values of two samples changed, one Ũ_IJ index changed, to a sample of
the target chart or to an index outside it, a node of a section, ρ_IJ, ν
or reduction predicate expression replaced, or a declared ν value or ν
sample index changed.  ``vfc zeros`` reads the document's own ν as its
perturbation.  Every document ends in an exit code 0–3 under both
commands and never in a traceback, and one that passes every stage before
``build_categories`` fails no fact of ``build_categories``: the facts
follow from the earlier stages' axioms.  A grid point that a section
value or φ̂ sits at, or the zero vector, can be moved on a trivial group
with the group laws intact; ``check_chart`` and ``check_coordinate_change``
report that.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from vfc.cli import main
from vfc.examples_cli import ExampleDescriptor, build_example, example_to_json

NAMES = ("sphere-euler", "football-euler")
VALUES = ("0/1", "1/2", "-1/2", "1/3", "1/1", "-1/1")
EDITS = ("repeat", "move", "swap", "section", "action", "phi_hat", "rho", "tilde",
         "expression", "nu_value", "nu_index")
#: replacements of an expression node: malformed values and predicates,
#: and well-formed ones that may fail to evaluate
NODES = (["var", 9], ["var", "x"], [], 3, ["+"], ["frob"], ["<="], ["var", 1],
         ["/", ["num", "1/1"], ["var", 0]], ["num", "1/0"], ["true"])
NU_VALUES = (*VALUES, "1/0", "x", 3, None)
NU_INDICES = ("999", "-1", "x", "1.5", str(2**63), "0", "3")


@pytest.fixture(scope="module")
def documents():
    return {
        name: json.dumps(example_to_json(build_example(ExampleDescriptor(name, {"density": 8}))))
        for name in NAMES
    }


def _nodes(ast: list, out: list) -> None:
    """Append the places ``(list, index)`` of every node below the root of
    ``ast`` to ``out``."""
    for k, sub in enumerate(ast[1:], 1):
        if isinstance(sub, list):
            out.append((ast, k))
            _nodes(sub, out)


def doctor(document: dict, edit: str, draw) -> dict:
    """``document`` with one ``edit``; ``draw(n)`` picks an int in [0, n)
    and ``draw(VALUES)`` (or another tuple) one of its items."""
    charts = document["charts"]
    chart = charts[sorted(charts)[draw(len(charts))]]
    grid = chart["obstruction_points"]
    if edit in ("repeat", "move", "swap", "section", "action") and chart["obstruction_dim"]:
        m = chart["obstruction_dim"]
        if edit == "repeat":
            grid.append(list(grid[draw(len(grid))]))
        elif edit == "move":
            grid[draw(len(grid))][draw(m)] = draw(VALUES)
        elif edit == "swap":
            a, b = draw(len(grid)), draw(len(grid))
            grid[a], grid[b] = grid[b], grid[a]
        elif edit == "section":
            samples = chart["section_samples"]
            samples[draw(len(samples))][draw(m)] = draw(VALUES)
        else:
            actions = chart["obstruction_action"]
            entries = actions[sorted(actions)[draw(len(actions))]]["entries"]
            entries[draw(len(entries))] = draw(VALUES)
    elif edit == "phi_hat":
        entries = document["changes"][draw(len(document["changes"]))]["phi_hat"]["entries"]
        if entries:
            entries[draw(len(entries))] = draw(VALUES)
    elif edit == "rho":
        change = document["changes"][draw(len(document["changes"]))]
        n = len(charts[",".join(map(str, change["source"]))]["domain"]["points"])
        rho = change["rho_idx"]
        for _ in range(2):
            rho[sorted(rho)[draw(len(rho))]] = draw(n)
    elif edit == "tilde":
        change = document["changes"][draw(len(document["changes"]))]
        n = len(charts[",".join(map(str, change["target"]))]["domain"]["points"])
        tilde = change["tilde_indices"]
        tilde[draw(len(tilde))] = draw(2 * n + 1) - 1  # -1 to 2n - 1
    elif edit == "expression":
        # a list of section, ρ_IJ or ν expressions, or the reduction predicates
        owners = [c["section_asts"] for c in charts.values() if "section_asts" in c]
        owners += [c["rho_asts"] for c in document["changes"] if "rho_asts" in c]
        owners += [*document["perturbation"]["asts"].values(), document["reduction"]["preds"]]
        owner = owners[draw(len(owners))]
        places = []
        for key in owner if isinstance(owner, dict) else range(len(owner)):
            places.append((owner, key))
            _nodes(owner[key], places)
        place, key = places[draw(len(places))]
        place[key] = draw(NODES)
    elif edit in ("nu_value", "nu_index"):
        samples = document["perturbation"]["samples"]
        rows = samples[sorted(samples)[draw(len(samples))]]
        x = sorted(rows)[draw(len(rows))]
        if edit == "nu_value":
            rows[x][draw(len(rows[x]))] = draw(NU_VALUES)
        else:
            rows[draw(NU_INDICES)] = rows.pop(x)
    return document


def check(tmp_path, document: dict):
    """The exit code of ``vfc check`` on ``document`` and its report."""
    path, out = tmp_path / "doctored.json", tmp_path / "report.json"
    path.write_text(json.dumps(document))
    out.unlink(missing_ok=True)
    result = CliRunner().invoke(main, ["check", str(path), "--json", str(out)])
    # an exception other than ``SystemExit`` is a traceback
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    report = json.loads(out.read_text()) if out.exists() else None
    return result.exit_code, report


def zeros(tmp_path, document: dict) -> int:
    """The exit code of ``vfc zeros`` on ``document`` and its own ν."""
    path, nu = tmp_path / "doctored.json", tmp_path / "nu.json"
    path.write_text(json.dumps(document))
    nu.write_text(json.dumps(document["perturbation"]))
    result = CliRunner().invoke(main, ["zeros", str(path), "--perturbation", str(nu)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    return result.exit_code


@settings(max_examples=48, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(NAMES), edit=st.sampled_from(EDITS), data=st.data())
def test_doctored_documents_end_in_an_exit_code(tmp_path, documents, name, edit, data):
    def draw(n):
        if isinstance(n, tuple):
            return data.draw(st.sampled_from(n))
        return data.draw(st.integers(0, n - 1))

    document = doctor(json.loads(documents[name]), edit, draw)
    assert zeros(tmp_path, document) in (0, 2, 3)
    code, report = check(tmp_path, document)
    assert code in (0, 1, 2, 3)
    if code != 3:
        stages = {stage["name"]: stage for stage in report["stages"]}
        # build_categories runs only after every stage before it passed
        assert stages.get("build_categories", {"failures": []})["failures"] == []


@pytest.mark.parametrize("index", [999, 28, -1, 1.0])
def test_a_tilde_index_outside_the_target_chart_is_a_schema_error(tmp_path, documents, index):
    document = json.loads(documents["sphere-euler"])
    document["changes"][0]["tilde_indices"][0] = index
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert (f"schema error: coordinate change (1,)->(1, 2): tilde_indices: {index} is not a"
            " sample of chart (1, 2), which has 28") in result.output


@pytest.mark.parametrize("index", [999, 25, -1, 1.0])
def test_a_rho_value_outside_the_source_chart_is_a_schema_error(tmp_path, documents, index):
    document = json.loads(documents["sphere-euler"])
    rho = document["changes"][0]["rho_idx"]
    rho[sorted(rho)[0]] = index
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert (f"schema error: coordinate change (1,)->(1, 2): rho_idx: {index} is not a"
            " sample of chart (1,), which has 25") in result.output
