"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/passproc.py KIND PARAMS OUT_DIR PASS_INDEX MODE``
with ``src`` on ``PYTHONPATH``; KIND and PARAMS (JSON) are a ``WORKLOADS``
entry, MODE is ``time``, ``trace`` (a traced pass) or ``setup`` (set-up
only, an extra ``setup_s`` sample).  ``run.py`` starts one of these per pass.

Set-up (imports, loading the generated toy atlases) ends at the first timed
call; its monotonic clock reading is reported as ``setup_end`` so that the
parent can measure set-up from the moment it started this interpreter.  The
timed region calls the same public entry points as the CLI: ``run_example``
plus ``emit_json`` for ``vfc run --json``, and ``check_atlas_data`` plus
``emit_json`` on parsed ``vfc-atlas/1`` text for ``vfc check --json``.
Outputs are checked against the oracles after the clock stops.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from workloads import (
    TOY_ATLASES,
    TOY_SPECS,
    category_errors,
    euler_errors,
    toy_errors,
    toy_oracle,
)


def main(argv: list[str]) -> int:
    kind, params, out_dir = argv[0], json.loads(argv[1]), argv[2]
    pass_index, mode = int(argv[3]), argv[4]

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from vfc.examples_cli import ExampleDescriptor, check_atlas_data, emit_json, run_example

    if kind == "check":
        with open(os.path.join(out_dir, TOY_ATLASES), encoding="utf-8") as fh:
            documents = [json.loads(line) for line in fh]
    paths = []

    setup_end = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0
    t0 = time.perf_counter()
    if kind == "run":
        descriptor = ExampleDescriptor(
            name=params["example"], parameters={"density": params["density"]}
        )
        report, code = run_example(descriptor)
        path = os.path.join(out_dir, "report.json")
        emit_json(report, path)
        paths.append(path)
        failed = code != 0
    else:
        failed = False
        for k, data in enumerate(documents):
            try:
                report = check_atlas_data(data)
            except (ValueError, KeyError, TypeError):  # `vfc check` exits 3 on these
                failed = True
                continue
            path = os.path.join(out_dir, f"report-{k:03d}.json")
            emit_json(report, path)
            paths.append(path)
            failed = failed or not report["ok"]
    pass_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    reports = []
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        reports.append(json.loads(raw))
    errors: list[str] = []
    if not failed:
        if kind == "run":
            errors = euler_errors(reports[0], params["p"], params["q"])
        else:
            with open(os.path.join(out_dir, TOY_SPECS), encoding="utf-8") as fh:
                specs = json.load(fh)
            oracles = [toy_oracle(spec) for spec in specs]
            for k, (report, oracle) in enumerate(zip(reports, oracles)):
                errors += [f"atlas {k}: {e}" for e in toy_errors(report, oracle)]
            if tracer is not None:
                if len(tracer.bk_sizes) != len(oracles):
                    errors.append(
                        f"{len(tracer.bk_sizes)} build_categories calls for {len(oracles)} atlases"
                    )
                for k, (sizes, oracle) in enumerate(zip(tracer.bk_sizes, oracles)):
                    errors += [f"atlas {k}: {e}" for e in category_errors(sizes, oracle)]

    result = {
        "setup_end": setup_end,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "errors": errors,
        "sha256": digest.hexdigest(),
    }
    if tracer is not None:
        result["layers"] = {**tracer.metrics(), "perfbench.traced_pass_s": pass_s}
        tracer.write_spans(os.path.join(out_dir, f"spans-{pass_index}.json"), pass_index)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
