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


def name_sites(source: str, module: str, wanted: tuple) -> list:
    """Where a module names one of ``wanted``: (name, module.function) once
    per import, definition, name or attribute, the function being the
    top-level one it lies in."""
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
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            where = f"{module}.{getattr(top, 'name', '<module>')}"
            sites += [(name, where) for name in names if name in wanted]
    return sites


# the pool class, and in_order, the package's former second scheduler
POOL_NAMES = ("ThreadPoolExecutor", "in_order")


def test_pool_sites_finds_what_it_should():
    source = (
        "import concurrent.futures\n"
        "from .lowdisc import in_order\n"
        "pool = concurrent.futures.ThreadPoolExecutor\n"
        "def in_order(items):\n"
        "    def g(x):\n"
        "        return list(lowdisc.in_order(str, x, 2))\n"
        "    return g(items)\n"
    )
    assert sorted(name_sites(source, "m", POOL_NAMES)) == [
        ("ThreadPoolExecutor", "m.<module>"),
        ("in_order", "m.<module>"),
        ("in_order", "m.in_order"),
        ("in_order", "m.in_order"),
    ]


def test_one_pool_site():
    # every thread comes from one scheduler, lowdisc.run_tiles: it alone
    # builds a ThreadPoolExecutor, and in_order is gone
    sites = set()
    for path in Path(qmcrisk.__file__).parent.glob("*.py"):
        sites.update(name_sites(path.read_text(), path.stem, POOL_NAMES))
    assert sites == {("ThreadPoolExecutor", "lowdisc.<module>"), ("ThreadPoolExecutor", "lowdisc.run_tiles")}


def test_sampler_table_sites_finds_what_it_should():
    source = (
        "from .experiments import SAMPLER_TABLE, sampler_name\n"
        "CHOICES = sorted(SAMPLER_TABLE)\n"
        "HELP = 'SAMPLER_TABLE names'\n"
        "def f(x):\n"
        "    return experiments.SAMPLER_TABLE[sampler_name(x)]\n"
        "def SAMPLER_TABLES():\n"
        "    pass\n"
    )
    assert sorted(name_sites(source, "m", ("SAMPLER_TABLE",))) == [
        ("SAMPLER_TABLE", "m.<module>"),
        ("SAMPLER_TABLE", "m.<module>"),
        ("SAMPLER_TABLE", "m.f"),
    ]


def test_only_experiments_names_the_sampler_table():
    # one alias table: every other module reads a sampler name through
    # experiments.sampler_name, so the CLI takes what a config takes
    modules = set()
    for path in Path(qmcrisk.__file__).parent.glob("*.py"):
        modules.update(where.split(".")[0] for _, where in name_sites(path.read_text(), path.stem, ("SAMPLER_TABLE",)))
    assert modules == {"experiments"}


def call_sites(source: str, module: str, name: str) -> list:
    """Where a module calls ``name``, by itself or as an attribute:
    module.function once per call, the function being the top-level one
    the call lies in."""
    sites = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    sites.append(f"{module}.{getattr(top, 'name', '<module>')}")
    return sites


def test_call_sites_finds_what_it_should():
    source = (
        "from .lowdisc import run_tiles\n"
        "run_tiles(1, 1, f)\n"
        "def walk(n):\n"
        "    def worker():\n"
        "        return lowdisc.run_tiles(n, 1, g)\n"
        "    run_tiles(n, 2, worker)\n"
        "    return run_tiles\n"
        "def run_tiles_twice():\n"
        "    pass\n"
    )
    assert sorted(call_sites(source, "m", "run_tiles")) == ["m.<module>", "m.walk", "m.walk"]


def test_run_tiles_has_two_callers():
    # one tiled loop: every draw, evaluation and truth pass is a
    # lowdisc.tiled call, and a study's replications are run_tiles' tiles
    sites = []
    for path in Path(qmcrisk.__file__).parent.glob("*.py"):
        sites += call_sites(path.read_text(), path.stem, "run_tiles")
    assert sorted(sites) == ["experiments.run_convergence", "lowdisc.tiled"]


def imported_modules(source: str) -> set:
    """The top-level names of the modules a module imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def builtin_types(source: str) -> list:
    """The builtin ``int`` or ``float`` a module passes as a call's ``type=``, once per call."""
    return [
        kw.value.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id in ("int", "float")
    ]


def test_imported_modules_and_builtin_types_find_what_they_should():
    source = (
        "import re\n"
        "import os.path as osp\n"
        "from configparser import ConfigParser\n"
        "from .config import parse_int\n"
        "p.add_argument('-d', type=int)\n"
        "p.add_argument('-p', type=float, default=0.1)\n"
        "p.add_argument('-n', type=parse_int)\n"
        "f(type=str)\n"
    )
    assert imported_modules(source) == {"re", "os", "configparser"}
    assert builtin_types(source) == ["int", "float"]


def test_one_text_layer():
    # every text-to-value rule lives in config.py, and the CLI's flags read
    # their values through it, never through argparse's int or float
    readers = {path.stem for path in MODULES if imported_modules(path.read_text()) & {"configparser", "re"}}
    assert readers == {"config"}
    assert builtin_types((Path(qmcrisk.__file__).parent / "cli.py").read_text()) == []
