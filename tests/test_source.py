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


def pool_sites(source: str, module: str) -> list:
    """Where a module names ``ThreadPoolExecutor`` and where it calls
    ``in_order``: ("pool", module) once per name, and ("in_order",
    module.function) per call, the function being the top-level one it
    lies in."""
    sites = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            if "ThreadPoolExecutor" in names:
                sites.append(("pool", module))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "in_order":
                sites.append(("in_order", f"{module}.{getattr(top, 'name', '<module>')}"))
    return sites


def test_pool_sites_finds_what_it_should():
    source = (
        "import concurrent.futures\n"
        "from .lowdisc import in_order\n"
        "pool = concurrent.futures.ThreadPoolExecutor\n"
        "def f(items):\n"
        "    def g(x):\n"
        "        return list(lowdisc.in_order(str, x, 2))\n"
        "    return in_order(g, items, 1)\n"
    )
    assert pool_sites(source, "m") == [("pool", "m"), ("in_order", "m.f"), ("in_order", "m.f")]


def test_one_pool_site_and_two_schedulers():
    # every thread comes from lowdisc.in_order, and it has two callers: the
    # study's replications and run_tiles, which runs every tiled loop
    sites = []
    for path in Path(qmcrisk.__file__).parent.glob("*.py"):
        sites += pool_sites(path.read_text(), path.stem)
    assert sorted(site for site in sites if site[1] != "lowdisc") == [
        ("in_order", "experiments.run_convergence"),
        ("in_order", "lowdisc.run_tiles"),
    ]
    assert ("pool", "lowdisc") in sites
