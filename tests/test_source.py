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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # A rule shared between modules has a public name in one module.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()  # sibling modules bound by `from . import x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = [alias.name for alias in node.names]
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [f"{path.name}:{node.lineno} imports {n}" for n in names if _private(n)]
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert found == []
