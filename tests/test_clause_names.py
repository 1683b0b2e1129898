"""Every clause that ``src/vfc`` reports under a literal name is named by
a test: a validator whose clause no test asserts may never fire.

A literal name is the first argument of ``fail("…")`` or
``fail_first("…")``; a test names it in quotes, in a file under
``tests/`` or in ``perfbench/test_perfbench.py``, which is read and not
changed.
"""

import pathlib
import re

import vfc

CLAUSE = re.compile(r'\bfail(?:_first)?\(\s*"(\w+)"')
TESTS = pathlib.Path(__file__).resolve().parent


def _literal_clauses() -> set:
    source = pathlib.Path(vfc.__file__).parent
    return {
        name
        for path in sorted(source.glob("*.py"))
        for name in CLAUSE.findall(path.read_text(encoding="utf-8"))
    }


def _test_texts() -> list:
    paths = [p for p in sorted(TESTS.rglob("*")) if p.is_file() and p.suffix in {".py", ".json"}]
    paths = [p for p in paths if p != pathlib.Path(__file__).resolve()]
    paths.append(TESTS.parent / "perfbench" / "test_perfbench.py")
    return [p.read_text(encoding="utf-8") for p in paths]


def test_the_clause_pattern_finds_the_clauses():
    clauses = _literal_clauses()
    assert {"obstruction_grid_repeated", "grid_action_law", "identity_missing"} <= clauses
    assert len(clauses) > 80


def test_every_literal_clause_is_named_by_a_test():
    texts = _test_texts()
    unnamed = sorted(
        name for name in _literal_clauses()
        if not any(f'"{name}"' in text or f"'{name}'" in text for text in texts)
    )
    assert unnamed == []
