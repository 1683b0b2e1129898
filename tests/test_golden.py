"""Golden ``--json`` reports: the CLI must reproduce them byte for byte.

The files under ``tests/golden/`` are the full reports of ``vfc run`` on
the Euler examples, of ``vfc check`` on a few atlas documents and of
``vfc zeros`` on a sphere-euler document without its reduction.  Four
of them are doctored so that the check fails: two toy documents name
group elements in their witnesses, a football-euler document names
obstruction vectors, and a sphere-euler document reads ν of one chart
from its expressions.  A change that alters a report byte shows here as a readable
file diff.
Regenerate them deliberately with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest
from click.testing import CliRunner

from vfc.charts_atlas import atlas_to_json
from vfc.cli import main
from vfc.examples_cli import (
    ExampleDescriptor,
    build_example,
    example_to_json,
    random_toy_atlas,
)

GOLDEN = pathlib.Path(__file__).with_name("golden")

RUNS = {
    "run-sphere-euler-n12": ["run", "sphere-euler", "--density", "12"],
    "run-football-euler-n12": ["run", "football-euler", "--density", "12"],
    "run-sphere-euler-n48": ["run", "sphere-euler", "--density", "48"],
}
TOY_SEEDS = (0, 3, 7)


def _swap_perms(doc: dict) -> None:
    """Chart (1, 2) acts by g2|e where it should act by g1|e and back:
    ρ of (1,) -> (1, 2) is no longer equivariant at g1|e."""
    perms = doc["charts"]["1,2"]["domain"]["perms"]
    perms["g1|e"], perms["g2|e"] = perms["g2|e"], perms["g1|e"]


def _break_table(doc: dict) -> None:
    """g1|e · g1|e = "zz", which is no element of Γ_{12}."""
    doc["charts"]["1,2"]["domain"]["group"]["table"][4][2] = "zz"


def _drop_grid_point_and_move_sample(doc: dict) -> None:
    """Grid point (1/2, 0) of chart (2,) is removed, so Γ_2 moves another
    grid point off the grid; sample 0 of chart (1, 2), in Ũ of
    (1,) -> (1, 2) with section value 0, is moved to (1/2, 0, 0, 0), so
    the section is neither equivariant nor compatible with φ̂ there."""
    del doc["charts"]["2"]["obstruction_points"][1]
    doc["charts"]["1,2"]["section_samples"][0] = ["1/2", "0/1", "0/1", "0/1"]


def _drop_declared_nu_12(doc: dict) -> None:
    """ν of chart (1, 2) has no declared samples, so its values come from
    its expressions: floats, which are not φ̂ of the exact declared values
    of the basic charts within the tolerance."""
    del doc["perturbation"]["samples"]["1,2"]


def _drop_reduction(doc: dict) -> None:
    """No reduction: Newton starts from one sample of every orbit, and no
    predicate filters the points its walks end at."""
    del doc["reduction"]


def _toy_3() -> dict:
    return atlas_to_json(random_toy_atlas(3))


def _football_n8() -> dict:
    return example_to_json(build_example(ExampleDescriptor("football-euler", {"density": 8})))


def _sphere_n8() -> dict:
    return example_to_json(build_example(ExampleDescriptor("sphere-euler", {"density": 8})))


#: failing checks of a document, doctored in place: case -> (document, doctor)
DOCTORED = {
    "check-toy-3-swapped-perms": (_toy_3, _swap_perms),
    "check-toy-3-broken-table": (_toy_3, _break_table),
    "check-football-euler-n8-doctored": (_football_n8, _drop_grid_point_and_move_sample),
    "check-sphere-euler-n8-undeclared-nu": (_sphere_n8, _drop_declared_nu_12),
}
#: ``vfc zeros`` of a document, doctored in place, with its own ν
ZEROS = {"zeros-sphere-euler-n8-no-reduction": (_sphere_n8, _drop_reduction)}
CASES = (sorted(RUNS) + [f"check-toy-{seed}" for seed in TOY_SEEDS] + sorted(DOCTORED)
         + sorted(ZEROS))


def report_bytes(case: str, workdir: pathlib.Path) -> bytes:
    """The ``--json`` report of one case, written by the CLI into ``workdir``."""
    out = workdir / f"{case}.json"
    if case in RUNS:
        args = RUNS[case]
    else:
        if case in DOCTORED or case in ZEROS:
            document, doctor = DOCTORED.get(case) or ZEROS[case]
            data = document()
            doctor(data)
        else:
            data = atlas_to_json(random_toy_atlas(int(case.rsplit("-", 1)[1])))
        doc = workdir / f"{case}.atlas.json"
        doc.write_text(json.dumps(data))
        args = ["check", str(doc)]
        if case in ZEROS:
            nu = workdir / f"{case}.nu.json"
            nu.write_text(json.dumps(data["perturbation"]))
            args = ["zeros", str(doc), "--perturbation", str(nu)]
    result = CliRunner().invoke(main, args + ["--json", str(out)])
    assert result.exit_code == (1 if case in DOCTORED else 0), result.output
    return out.read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    assert report_bytes(case, tmp_path) == (GOLDEN / f"{case}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            (GOLDEN / f"{name}.json").write_bytes(report_bytes(name, pathlib.Path(tmp)))
            print(name, file=sys.stderr)
