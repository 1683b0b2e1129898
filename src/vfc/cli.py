"""The ``vfc`` command line over :mod:`vfc.examples_cli`; only it imports
``click``.  Exit codes: 0 all checks pass, 1 validation failure, 2
numerical rejection (non-transverse perturbation), 3 I/O, parse or
parameter errors."""

from __future__ import annotations

import json
import sys

import click

from .charts_atlas import atlas_from_json
from .examples_cli import (
    EXAMPLE_NAMES,
    ExampleDescriptor,
    check_atlas_data,
    emit_json,
    run_example,
)
from .exterior_engine import parse_rat
from .reduction_perturb import Reduction, perturbation_from_json, reduction_from_json
from .zeroset_branched import PerturbationRejected, find_zeros, zero_set_report

__all__ = ["main"]


def _print_stage_summary(report: dict) -> None:
    for st in report.get("stages", ()):
        status = "ok" if st["ok"] else "FAIL"
        click.echo(f"  [{status}] {st['name']}")
        if not st["ok"]:
            for fl in st["failures"][:5]:
                click.echo(f"         {fl}")


@click.group()
def main() -> None:
    """Desk-scale computational toolkit for finite-isotropy chart atlases."""


@main.command("run")
@click.argument("example", type=click.Choice(EXAMPLE_NAMES))
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="write the run report to this file")
@click.option("--density", type=int, default=12, show_default=True,
              help="sample points per footprint circle (minimum 8)")
@click.option("--seed-grid", type=int, default=1, show_default=True,
              help="Newton seed level: 1 = orbit representatives, >=2 = all samples")
@click.option("--order", type=int, default=5, show_default=True,
              help="group order for single-orbifold-chart")
@click.option("--m", "m_str", default="1/2", show_default=True,
              help="first weight for branched-interval")
@click.option("--mp", "mp_str", default="1/2", show_default=True,
              help="second weight for branched-interval")
def run_cmd(example, json_path, density, seed_grid, order, m_str, mp_str):
    """Build an example and run the full pipeline."""
    import time

    params: dict = {}
    if example in {"sphere-euler", "football-euler", "football-atlas"}:
        params["density"] = density
    if example == "single-orbifold-chart":
        params["order"] = order
    if example == "branched-interval":
        try:
            params["m"] = parse_rat(m_str)
            params["mp"] = parse_rat(mp_str)
        except (ValueError, ZeroDivisionError) as ex:
            click.echo(f"parameter error: {ex}", err=True)
            sys.exit(3)
    start = time.monotonic()
    report, code = run_example(
        ExampleDescriptor(name=example, parameters=params), seed_grid=seed_grid
    )
    elapsed = time.monotonic() - start
    click.echo(f"example: {example}")
    _print_stage_summary(report)
    if "total" in report:
        click.echo(f"total: {report['total']}")
    if "rejection" in report:
        click.echo(f"rejected: {report['rejection']}")
    if "error" in report:
        click.echo(f"error: {report['error']}", err=True)
    click.echo(f"elapsed: {elapsed:.2f}s")
    if json_path:
        emit_json(report, json_path)
    sys.exit(code)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        click.echo(f"cannot read {path}: {ex}", err=True)
        sys.exit(3)
    except json.JSONDecodeError as ex:
        click.echo(
            f"parse error in {path}: line {ex.lineno}, column {ex.colno}: {ex.msg}",
            err=True,
        )
        sys.exit(3)


@main.command("check")
@click.argument("atlas_file", type=click.Path(exists=True))
@click.option("--json", "json_path", type=click.Path(), default=None)
def check_cmd(atlas_file, json_path):
    """Validate an atlas JSON file (schema vfc-atlas/1)."""
    data = _load_json(atlas_file)
    try:
        report = check_atlas_data(data)
    except (ValueError, KeyError, TypeError) as ex:
        click.echo(f"schema error: {ex}", err=True)
        sys.exit(3)
    except ArithmeticError as ex:  # a document expression at a sample, e.g. 1/0
        click.echo(f"evaluation error: {ex}", err=True)
        sys.exit(3)
    _print_stage_summary(report)
    if json_path:
        emit_json(report, json_path)
    sys.exit(0 if report["ok"] else 1)


@main.command("zeros")
@click.argument("atlas_file", type=click.Path(exists=True))
@click.option("--perturbation", "pert_file", type=click.Path(exists=True),
              required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def zeros_cmd(atlas_file, pert_file, json_path):
    """Find perturbed zeros of a serialized atlas."""
    data = _load_json(atlas_file)
    pdata = _load_json(pert_file)
    try:
        atlas = atlas_from_json(data)
        if "reduction" in data:
            red = reduction_from_json(data["reduction"], atlas)
        else:
            red = Reduction(sets={I: frozenset(range(len(atlas.charts[I].domain.points)))
                                  for I in atlas.index_sets()})
        nu = perturbation_from_json(pdata, atlas)
    except (ArithmeticError, ValueError, KeyError, TypeError) as ex:
        click.echo(f"schema error: {ex}", err=True)
        sys.exit(3)
    try:
        result = find_zeros(atlas, red, nu)
    except PerturbationRejected as ex:
        click.echo(f"perturbation rejected: {ex}", err=True)
        sys.exit(2)
    except ValueError as ex:
        click.echo(f"cannot find zeros: {ex}", err=True)
        sys.exit(3)
    report = zero_set_report(result.zeros, warnings=result.warnings)
    click.echo(f"zeros found: {len(result.zeros)}")
    for z in result.zeros:
        click.echo(
            f"  chart {z.chart_index}: {tuple(round(c, 6) for c in z.coordinates)}"
            f" sign {z.sign:+d} residual {z.residual:.2e}"
        )
    for w in result.warnings:
        click.echo(f"  warning: {w}")
    if json_path:
        emit_json(report, json_path)
    sys.exit(0)


if __name__ == "__main__":
    main()
