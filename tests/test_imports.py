"""The library runs on numpy and the Python standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "heteroembed"
ALLOWED = {"numpy", *sys.stdlib_module_names}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_absolute_imports_are_numpy_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [name for name in imported if name.split(".")[0] not in ALLOWED] == []
