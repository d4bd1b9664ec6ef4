"""Checks on the package source itself."""

import ast
from pathlib import Path

import entchar

SOURCES = sorted(Path(entchar.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts; invariants must be explicit errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []
