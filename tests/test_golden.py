"""Golden ``--json`` reports: the CLI must reproduce them byte for byte.

The files under ``tests/golden/`` are the full reports of ``vfc run`` on
the Euler examples and of ``vfc check`` on a few toy atlas documents.  A
change that alters a report byte shows here as a readable file diff.
Regenerate them deliberately with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest
from click.testing import CliRunner

from vfc.charts_atlas import atlas_to_json
from vfc.examples_cli import main, random_toy_atlas

GOLDEN = pathlib.Path(__file__).with_name("golden")

RUNS = {
    "run-sphere-euler-n12": ["run", "sphere-euler", "--density", "12"],
    "run-football-euler-n12": ["run", "football-euler", "--density", "12"],
    "run-sphere-euler-n48": ["run", "sphere-euler", "--density", "48"],
}
TOY_SEEDS = (0, 3, 7)
CASES = sorted(RUNS) + [f"check-toy-{seed}" for seed in TOY_SEEDS]


def report_bytes(case: str, workdir: pathlib.Path) -> bytes:
    """The ``--json`` report of one case, written by the CLI into ``workdir``."""
    out = workdir / f"{case}.json"
    if case in RUNS:
        args = RUNS[case]
    else:
        seed = int(case.rsplit("-", 1)[1])
        doc = workdir / f"toy-{seed}.atlas.json"
        doc.write_text(json.dumps(atlas_to_json(random_toy_atlas(seed))))
        args = ["check", str(doc)]
    result = CliRunner().invoke(main, args + ["--json", str(out)])
    assert result.exit_code == 0, result.output
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
