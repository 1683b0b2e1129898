"""The ``vfc`` benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs fresh-interpreter passes of one workload (or, without ``--workload``,
of every workload in turn), one pass at a time, until ``--seconds`` have
passed, and checks every pass's output against the oracles in
``workloads.py``.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``, the run length its bounds were set at.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; with ``--trace 0`` the metrics are ``setup_s``, ``pass_s``
and ``peak_rss_mb``, with ``--trace 1`` the per-layer metrics of traced
passes; each is the median over the run's passes (``setup_s`` also over a
few set-up-only starts).

The toy atlases are written by ``workloads.py`` alone, so the inputs do not
depend on the program under test.  Run from the root of a checkout: the
program is imported from ``src``.  Outputs (reports, span files) go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TOY_ATLASES, TOY_SPECS, WORKLOADS, toy_atlas_document, toy_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: a run ends within this many seconds, whatever ``--seconds`` says
DEADLINE_S = 170.0

#: set-up-only interpreters started before the passes of an untraced run;
#: ``setup_s`` is the median over these and the passes
SETUP_SAMPLES = 12


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_units() -> dict:
    """Per-layer metric name -> unit, in ``BENCHMARK.json`` order."""
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def prepare(kind: str, params: dict, seed: int, out_dir: Path) -> None:
    """Generate the workload's inputs into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind != "check":
        return
    specs = toy_specs(seed, params["atlases"])
    with open(out_dir / TOY_SPECS, "w", encoding="utf-8") as fh:
        json.dump(specs, fh, sort_keys=True)
    with open(out_dir / TOY_ATLASES, "w", encoding="utf-8") as fh:
        for spec in specs:
            fh.write(json.dumps(toy_atlas_document(spec), sort_keys=True) + "\n")


def run_pass(workload: str, params: dict, out_dir: Path, index: int, mode: str,
             deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    kind = WORKLOADS[workload][0]
    argv = [sys.executable, str(HERE / "passproc.py"), kind, json.dumps(params), str(out_dir),
            str(index), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"{workload} pass {index} ran past the deadline") from ex
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass {index} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_end") - spawned
    print(f"{workload} {mode} {index}: setup_s {result['setup_s']:.4f}"
          + (f" pass_s {result['pass_s']:.4f}" if "pass_s" in result else ""),
          file=sys.stderr, flush=True)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 params: dict | None = None) -> dict:
    """Passes of ``workload`` for ``seconds``; ``params`` overrides its size."""
    kind, default = WORKLOADS[workload]
    params = default if params is None else params
    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT / workload
    prepare(kind, params, seed, out_dir)
    mode = "trace" if trace else "time"
    setups = [] if trace else [
        run_pass(workload, params, out_dir, k, "setup", deadline)["setup_s"]
        for k in range(SETUP_SAMPLES)
    ]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, params, out_dir, len(passes), mode, deadline))

    good = [p for p in passes if not p["failed"]]
    errors = [e for p in good for e in p["errors"]]
    if len({p["sha256"] for p in good}) > 1:
        errors.append("passes emitted different report bytes")
    for e in errors[:20]:
        print(f"{workload}: oracle: {e}", file=sys.stderr)

    if trace:
        units = layer_units()
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in passes), "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [p["setup_s"] for p in passes]),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(p["pass_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    return {
        "correct": not errors,
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "vfc" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'vfc'} is missing", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "vfc"), quiet=1):
        print("the program does not compile", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads
        }
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 1
    for w, result in results.items():
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:50s} {m['value']:14.6g} {m['unit']}")
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
