"""Tests of the benchmark itself: oracles, closed forms, tracer, smoke run.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, composable_triples  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    category_errors,
    euler_errors,
    toy_atlas_document,
    toy_errors,
    toy_oracle,
    toy_specs,
)


def spindle_report(p: int, q: int) -> dict:
    """A report of S²(p, q) as the oracle describes it."""
    return {
        "ok": True,
        "total": str(Fraction(1, p) + Fraction(1, q)),
        "zero_set": {
            "zeros": [
                {"chart": [1], "coordinates": [0.0, 0.0], "sign": 1,
                 "weight": str(Fraction(1, p))},
                {"chart": [2], "coordinates": [0.0, 0.0], "sign": 1,
                 "weight": str(Fraction(1, q))},
            ]
        },
    }


def test_euler_oracle_accepts_the_spindle():
    assert euler_errors(spindle_report(2, 3), 2, 3) == []
    assert euler_errors(spindle_report(1, 1), 1, 1) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r.update(total="2/1"),
        lambda r: r["zero_set"]["zeros"][0].update(weight="1/3"),
        lambda r: r["zero_set"]["zeros"].pop(),
        lambda r: r["zero_set"]["zeros"][1].update(sign=-1),
        lambda r: r["zero_set"]["zeros"][0].update(coordinates=[1e-6, 0.0]),
        lambda r: r["zero_set"]["zeros"][1].update(chart=[1]),
        lambda r: r.update(ok=False),
        lambda r: r.pop("total"),
    ],
    ids=["total", "weight", "missing-zero", "sign", "off-centre", "chart", "not-ok",
         "no-total"],
)
def test_euler_oracle_rejects_doctored_reports(doctor):
    report = spindle_report(2, 3)
    doctor(report)
    assert euler_errors(report, 2, 3)


def test_euler_oracle_rejects_a_report_of_another_spindle():
    assert euler_errors(spindle_report(1, 1), 2, 3)


def atlas_spec(atlas) -> dict:
    """The generator arguments of a ``build_toy_atlas`` atlas."""
    return {
        "x_labels": list(atlas.x_labels),
        "cover": {str(i): sorted(s) for i, s in atlas.cover.items()},
        "orders": {str(i): atlas.charts[(i,)].group.order for i in atlas.cover},
    }


def test_toy_closed_forms_on_random_toy_atlases():
    from vfc.charts_atlas import atlas_to_json, build_categories
    from vfc.examples_cli import check_atlas_data, random_toy_atlas

    for seed in range(30):
        atlas = random_toy_atlas(seed)
        oracle = toy_oracle(atlas_spec(atlas))
        B = build_categories(atlas).domain_category
        assert category_errors((len(B.objects), len(B.morphisms)), oracle) == [], seed
        report = check_atlas_data(json.loads(json.dumps(atlas_to_json(atlas))))
        assert toy_errors(report, oracle) == [], seed


def test_toy_documents_match_the_program_s_toy_atlases():
    """The benchmark writes its toy inputs itself; they are the documents
    ``atlas_to_json(build_toy_atlas(...))`` gives, and parse back."""
    from vfc.charts_atlas import atlas_from_json, atlas_to_json
    from vfc.examples_cli import build_toy_atlas, random_toy_atlas

    specs = toy_specs(3, 32) + [atlas_spec(random_toy_atlas(seed)) for seed in range(10)]
    for spec in specs:
        atlas = build_toy_atlas(
            {int(i): labels for i, labels in spec["cover"].items()},
            spec["x_labels"],
            {int(i): o for i, o in spec["orders"].items()},
        )
        document = toy_atlas_document(spec)
        assert json.dumps(document, sort_keys=True) == json.dumps(
            atlas_to_json(atlas), sort_keys=True)
        assert atlas_to_json(atlas_from_json(document)) == atlas_to_json(atlas)


def toy_report(oracle: dict) -> dict:
    return {
        "ok": True,
        "stages": [
            {"name": "cocycle[strong]", "details": {"triples": oracle["cocycle_triples"]}},
            {"name": "realizations", "details": {
                "full_classes": oracle["classes"], "zero_classes": oracle["classes"]}},
        ],
    }


@pytest.mark.parametrize("key", ["triples", "full_classes", "zero_classes"])
def test_toy_oracle_rejects_doctored_reports(key):
    oracle = toy_oracle(toy_specs(1, 3)[0])
    report = toy_report(oracle)
    assert toy_errors(report, oracle) == []
    doctored = copy.deepcopy(report)
    for stage in doctored["stages"]:
        if key in stage["details"]:
            stage["details"][key] += 1
    assert toy_errors(doctored, oracle)


def test_category_oracle_rejects_wrong_sizes():
    oracle = toy_oracle(toy_specs(1, 3)[0])
    sizes = (oracle["bk_objects"], oracle["bk_morphisms"])
    assert category_errors(sizes, oracle) == []
    assert category_errors((sizes[0], sizes[1] - 1), oracle)
    assert category_errors((sizes[0] + 1, sizes[1]), oracle)


def test_toy_specs_depend_on_the_seed_but_not_their_sizes():
    a, b = toy_specs(1, 8), toy_specs(2, 8)
    assert a == toy_specs(1, 8)
    assert a != b
    key = lambda s: sorted(toy_oracle(s).items())  # noqa: E731
    assert sorted(map(key, a)) == sorted(map(key, b))


def test_tracer_counts_outermost_calls_and_self_time():
    tracer = Tracer()

    def leaf(n):
        return 0 if n == 0 else 1 + leaf(n - 1)

    traced_leaf = tracer.wrap("exterior_engine.leaf", leaf)

    def root():
        return traced_leaf(3) + traced_leaf(2)

    traced_root = tracer.wrap("examples_cli.root", root)
    assert traced_root() == 5
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["examples_cli.root", "exterior_engine.leaf", "exterior_engine.leaf"]
    assert list(tracer.span_parent) == [-1, 0, 0]
    metrics = tracer.metrics()
    spans = list(zip(tracer.span_start, tracer.span_end))
    inner = sum(e - s for s, e in spans[1:])
    assert metrics["exterior_engine.self_s"] == pytest.approx(inner)
    assert metrics["examples_cli.self_s"] == pytest.approx(spans[0][1] - spans[0][0] - inner)


def test_tracer_takes_hook_time_out_of_enclosing_spans():
    tracer = Tracer()

    def count(tracer_, args, kwargs, result):
        time.sleep(0.05)

    traced_leaf = tracer.wrap("charts_atlas.check_category", lambda: None, after=count)
    traced_root = tracer.wrap("charts_atlas.build_categories", lambda: traced_leaf())
    traced_root()
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["charts_atlas.build_categories", "charts_atlas.check_category",
                     "perfbench.hook"]
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert tracer.metrics()["charts_atlas.build_categories_s"] < 0.04
    assert tracer.metrics()["charts_atlas.self_s"] < 0.04


def test_tracer_counts_value_and_jacobian_calls_inside_find_zeros():
    tracer = Tracer()
    evaluate = tracer.wrap("expressions.value_and_jacobian", lambda: None)

    def find_zeros():
        evaluate()
        evaluate()

    tracer.wrap("zeroset_branched.find_zeros", find_zeros)()
    evaluate()
    assert tracer.metrics()["zeroset_branched.newton_value_and_jacobian_calls"] == 2
    assert tracer.metrics()["expressions.value_and_jacobian_calls"] == 3


def test_composable_triples_of_a_small_category():
    from vfc.examples_cli import random_toy_atlas
    from vfc.charts_atlas import build_categories

    B = build_categories(random_toy_atlas(0)).domain_category
    brute = sum(
        1
        for (f, g) in B.compose
        for h in B.morphisms
        if B.source[h] == B.target[g]
    )
    assert composable_triples(B) == brute


SMOKE = {
    "football-euler-n12": {"example": "football-euler", "density": 8, "p": 2, "q": 3},
    "sphere-euler-n48": {"example": "sphere-euler", "density": 8, "p": 1, "q": 1},
    "toy-atlas-check": {"atlases": 4},
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_at_reduced_size(workload, trace):
    result = run.run_workload(workload, seed=7, seconds=0, trace=trace,
                              params=SMOKE[workload])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    if trace:
        assert set(result["metrics"]) == set(run.layer_units())
        assert result["metrics"]["examples_cli.report_bytes"]["value"] > 0
    else:
        assert {m: v["value"] > 0 for m, v in result["metrics"].items()} == {
            "setup_s": True, "pass_s": True, "peak_rss_mb": True}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-atlas-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
