"""Checks of the package source that no configured linter makes."""

import ast
from pathlib import Path

import pytest

import qosc

SRC = Path(__file__).resolve().parent.parent / "src" / "qosc"


def _unread_imports(tree: ast.Module, exported: frozenset) -> list:
    """The names that tree's import statements bind and that no expression
    in tree reads, other than those in exported and __future__ features."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    # the package's __init__ imports the public API for its __all__
    exported = frozenset(qosc.__all__ if path.name == "__init__.py" else ())
    assert _unread_imports(ast.parse(path.read_text()), exported) == []


def test_unread_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom itertools import "
                     "chain, islice\nfrom . import fock\nnp.sum(chain())\n")
    assert _unread_imports(tree, frozenset()) == [(1, "os"), (3, "islice"),
                                                  (4, "fock")]
