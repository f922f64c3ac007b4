"""Every name a roughkit module imports is used in it or re-exported.

A stand-in for a linter's unused-import rule, built on `ast` only.
"""
import ast
from pathlib import Path

import pytest

import roughkit

SOURCES = sorted(Path(roughkit.__file__).resolve().parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level binding name -> line for every import except __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every bare name in the module; quoted annotations are not read."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_package_sources_are_found():
    assert {"tensor.py", "path.py", "rde.py", "__init__.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    keep = used_names(tree) | exported_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in keep
    }
    assert not unused, f"{source.name}: unused imports {unused}"
