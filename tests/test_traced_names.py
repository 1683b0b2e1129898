"""Every name that the benchmark's tracer wraps exists in ``vfc``.

``perfbench/tracer.py`` replaces each ``(module, name)`` of its ``TRACED``
by a wrapper and stops when one is missing, so a traced name deleted or
renamed here would show up only as a failed benchmark subprocess.  The
list is read from the tracer's source, not imported, so the check needs
nothing of the benchmark but that file.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED")


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_each_traced_name_resolves_in_vfc(module_name, attr):
    module = importlib.import_module(f"vfc.{module_name}")
    owner, _, name = attr.rpartition(".")
    # the tracer wraps a method as its class defines it, a function by name
    where = vars(getattr(module, owner)) if owner else vars(module)
    assert callable(where.get(name)), (
        f"perfbench/tracer.py wraps vfc.{module_name}.{attr}, which vfc no longer defines;"
        " keep the name or change the tracer's TRACED with it")
