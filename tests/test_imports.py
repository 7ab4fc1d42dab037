"""The package's import structure: every module imports its siblings at
the top, so the import graph has no cycle that a deferred import hides."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subalg

PACKAGE = Path(subalg.__file__).parent


def test_no_function_imports_a_package_module():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == []


@pytest.mark.parametrize(
    "module", ["subalg.lengths", "subalg.radical", "subalg.commute", "subalg.verify"]
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
