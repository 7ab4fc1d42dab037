"""The package's import structure: every module imports its siblings at
the top, so the import graph has no cycle that a deferred import hides.
The names that the benchmark's tracer and self-tests patch still exist,
and no module is large enough to make its compile cost a step more memory."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import tokenize
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


def test_public_api_is_declared_once():
    """``subalg/__init__.py`` is the public API; no submodule declares a
    second one in an ``__all__`` of its own."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and node.id == "__all__"
            and isinstance(node.ctx, ast.Store)
        ]
    assert found == []


# CPython 3.11's compile of a module past about this many parser tokens
# peaks about 0.2 MiB higher (tracemalloc on ``compile()``: exact_linalg.py
# padded to 4 092 tokens peaks at 1 439 KiB, at 4 100 tokens at 1 671 KiB).
# Without bytecode caching every process compiles the package from source,
# so that step shows in the import's peak memory.
TOKEN_CLIFF = 4096
NOT_PARSER_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def test_no_module_reaches_the_parser_token_cliff():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as fh:
            tokens = tokenize.tokenize(fh.readline)
            counts[path.name] = sum(t.type not in NOT_PARSER_TOKENS for t in tokens)
    assert {name: c for name, c in counts.items() if c >= TOKEN_CLIFF} == {}


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


# Names patched by bench/tracing.py's ``Tracer.install`` and by
# bench/test_bench.py, beyond the tracer's ``SPANS``.
BENCH_PATCHED = [
    ("subalg.exact_linalg", "mat_mul"),
    ("subalg.lengths", "_chain"),
    ("subalg.cli", "_sweep_task"),
    ("subalg.exact_linalg", "_Echelon.insert"),
]


def test_names_the_benchmark_patches_still_resolve():
    """The benchmark only warns when a name it traces is missing, so a
    rename would silently zero its spans and counters."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in tracing.SPANS.values() for t in group]
    missing = []
    for module, attr in targets + BENCH_PATCHED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
