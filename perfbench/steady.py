"""Steadiness check: two independent sets of ten benchmark runs, compared.

    python3 perfbench/steady.py [--workload NAME ...]

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
with its own seed: seeds 1–10 in the first set, 1001–1010 in the second.  The
sets run one after the other.  For every workload and end-to-end metric it
prints, per set, the median and quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 − q1) / median, and then the drift of the second median from
the first, (m2 − m1) / m1.  Against the metric's bound in ``BENCHMARK.json``:

- a spread is ``steady`` at most bound / 3, ``within`` at most the bound and
  ``OVER`` above it;
- a drift, in either direction, is ``ok`` at most the bound and ``OVER``
  above it: runs of the same commit should agree both ways.

Every run must be correct, and the share of failed operations must be the
same in both sets.  The exit code is 0 only when all of that holds and
every spread, ``setup_s``'s too, is steady.  All values are also written to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
#: the seeds of the two sets
SEEDS = (range(1, RUNS + 1), range(1001, 1001 + RUNS))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_verdict(spread: float, bound: float) -> str:
    return "steady" if spread <= bound / 3 else "within" if spread <= bound else "OVER"


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs: dict = {w: [] for w in workloads}
    for k, seeds in enumerate(SEEDS, start=1):
        for w in workloads:
            results = []
            for seed in seeds:
                result = run_once(w, seed, spec["run_seconds"])
                print(f"set {k} {w} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                      flush=True)
                results.append(result)
            runs[w].append(results)

    ok = True
    print()
    print(f"{'workload':20s} {'metric':12s} {'bound':>5s} {'set 1 median (q1-q3)':>30s} "
          f"{'set 2 median (q1-q3)':>30s}  spreads, drift")
    for w in workloads:
        shares = [
            sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]
        ]
        if shares[0] != shares[1] or not all(r["correct"] for rs in runs[w] for r in rs):
            print(f"{w}: failed shares {shares} differ or a run is not correct")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, verdicts, medians = [], [], []
            for rs in runs[w]:
                q1, median, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in rs], n=4)
                spread = (q3 - q1) / median
                verdict = spread_verdict(spread, bound)
                ok = ok and verdict == "steady"
                cells.append(f"{median:.4f} ({q1:.4f}-{q3:.4f})")
                verdicts.append(f"{spread:.1%} {verdict}")
                medians.append(median)
            drift = (medians[1] - medians[0]) / medians[0]
            ok = ok and abs(drift) <= bound
            verdicts.append(f"drift {drift:+.1%} " + ("ok" if abs(drift) <= bound else "OVER"))
            print(f"{w:20s} {name:12s} {bound:5.2f} {cells[0]:>30s} {cells[1]:>30s}  "
                  + ", ".join(verdicts))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "steady.json", "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    print("all steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
