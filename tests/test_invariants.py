"""Rules the whole package keeps, checked over its source."""

import ast
from pathlib import Path

import steinscope

PACKAGE = Path(steinscope.__file__).parent


def test_invariants_raise_rather_than_assert():
    # an assert vanishes under python -O, so a broken invariant would pass
    # silently; the package raises a named exception instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
