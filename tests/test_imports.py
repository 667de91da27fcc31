"""Every name a package module imports is used in that module, and the
package loads no process pool until one starts.

`__init__.py` is left out of the first check: its imports are the
package's exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_import_loads_no_process_pool():
    """`multiprocessing` loads only when `run_replicates` starts a pool, so
    a serial run and every other command go without it."""
    code = ("import sys, banditlab, banditlab.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
