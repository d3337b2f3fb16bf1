"""Checks on the package's source text, with the standard library alone."""

import ast
from pathlib import Path

import pytest

import qmcrisk

# __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in Path(qmcrisk.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional\n"
        "from .bits import check_int as ci, mix32\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return np.asarray(ci(x, 'x', 0)), os.sep\n"
    )
    assert unused_imports(source) == ["List", "mix32"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
