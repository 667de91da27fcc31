"""Every name a package module imports is used in that module.

`__init__.py` is left out: its imports are the package's exports.
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "banditlab"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "from typing import Callable, Sequence\n"
              "x: Callable = np.zeros\n"
              "os.getcwd()\n")
    assert _unused_imports(source) == [(2, "sys"), (4, "Sequence")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []
