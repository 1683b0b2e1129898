"""Every clause that ``src/vfc`` reports under a literal name is named by
a test: a validator whose clause no test asserts may never fire.

A literal name is one that the source of a function passes to
``fail(…)`` or ``fail_first(…)``, read from its syntax tree: a string
literal, either branch of a conditional of literals, a literal assigned
to ``clause``, a value of a dict literal that the call subscripts (as
``names[clause]``), or the name of a returned or yielded
``(name, {…})`` pair.  A test names it in quotes, in a file under
``tests/`` or in ``perfbench/test_perfbench.py``, which is read and not
changed.
"""

import ast
import pathlib
import re

import vfc

FAIL = {"fail", "fail_first"}
TESTS = pathlib.Path(__file__).resolve().parent


def _literals(node) -> set:
    """The string literals ``node`` evaluates to: a literal, or either
    branch of a conditional."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body) | _literals(node.orelse)
    return set()


def _clauses_of(function: ast.AST) -> set:
    nodes = list(ast.walk(function))
    maps: dict = {}  # name -> the values of the dict literals assigned to it
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    maps.setdefault(target.id, set()).update(*map(_literals, node.value.values))
    names = set()
    for node in nodes:
        if isinstance(node, ast.Call) and node.args and (
            getattr(node.func, "attr", None) in FAIL or getattr(node.func, "id", None) in FAIL
        ):
            first = node.args[0]
            names |= _literals(first)
            if isinstance(first, ast.Subscript) and isinstance(first.value, ast.Name):
                names |= maps.get(first.value.id, set())
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "clause" for t in node.targets
        ):
            names |= _literals(node.value)
        elif (isinstance(node, (ast.Return, ast.Yield)) and isinstance(node.value, ast.Tuple)
              and len(node.value.elts) == 2 and isinstance(node.value.elts[1], ast.Dict)):
            names |= _literals(node.value.elts[0])
    return names


def _sources() -> list:
    return [p.read_text(encoding="utf-8")
            for p in sorted(pathlib.Path(vfc.__file__).parent.glob("*.py"))]


def _literal_clauses() -> set:
    return {
        name
        for source in _sources()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _clauses_of(node)
    }


def _test_texts() -> list:
    paths = [p for p in sorted(TESTS.rglob("*")) if p.is_file() and p.suffix in {".py", ".json"}]
    paths = [p for p in paths if p != pathlib.Path(__file__).resolve()]
    paths.append(TESTS.parent / "perfbench" / "test_perfbench.py")
    return [p.read_text(encoding="utf-8") for p in paths]


def test_the_clause_pattern_finds_the_clauses():
    clauses = _literal_clauses()
    assert {"obstruction_grid_repeated", "obstruction_action_law", "identity_missing"} <= clauses
    # passed through a conditional, a returned or yielded pair, or a map
    assert {
        "a_nu_undefined", "a_compatibility", "nu_undefined", "compatibility",
        "compose_endpoints", "composable_pair_undefined", "compose_outside_morphisms",
        "endpoint_outside_objects", "object_without_identity", "identity_law",
        "transversality", "zero_escapes_C", "b_transversality", "d_zero_escapes_C",
    } <= clauses
    # every name that a literal first argument gives
    direct = re.compile(r'\bfail(?:_first)?\(\s*"(\w+)"')
    assert {name for source in _sources() for name in direct.findall(source)} <= clauses
    assert len(clauses) > 100


def test_every_literal_clause_is_named_by_a_test():
    texts = _test_texts()
    unnamed = sorted(
        name for name in _literal_clauses()
        if not any(f'"{name}"' in text or f"'{name}'" in text for text in texts)
    )
    assert unnamed == []
