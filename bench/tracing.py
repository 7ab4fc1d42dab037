"""In-memory span tracer for the benchmark's traced run.

The tracer measures the package from outside: it replaces public functions
at every ``subalg`` module attribute that binds them with a wrapper that
records a span (name, start, end, parent, command id), or only counts.
Nothing inside ``src/`` knows about it, and only the traced process installs
it; the untraced run measures the unmodified package.

Spans stay in memory and are written once, when the run ends.  Counter
hooks run outside every span; their time is recorded against the span that
was open around them and left out of its self time.  Parallel
``sweep`` workers are forked from the traced process, so they inherit the
wrappers; each finished sweep task ships its spans and counter deltas back
with its report, and the parent adopts them as separate span trees.
"""

from __future__ import annotations

import functools
import operator
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

# Span name -> (module, attribute) of each timed public function.  The
# builders share one name: they are the construction layer's entry points.
SPANS = {
    "constructions.build": [
        ("subalg.constructions", "build_bkml"),
        ("subalg.constructions", "build_bkm"),
        ("subalg.constructions", "witness_system"),
        ("subalg.constructions", "witness_system_bkm"),
    ],
    "jsonio.load_system": [("subalg.jsonio", "load_system")],
    "jsonio.dumps": [("subalg.jsonio", "dumps")],
    "lengths.algebra_closure": [("subalg.lengths", "algebra_closure")],
    "lengths.li_chain": [("subalg.lengths", "li_chain")],
    "lengths.sample_generating_systems": [
        ("subalg.lengths", "sample_generating_systems")
    ],
    "lengths.length_of_system": [("subalg.lengths", "length_of_system")],
    "commute.is_commutative": [("subalg.commute", "is_commutative")],
    "commute.centralizer": [("subalg.commute", "centralizer")],
    "exact_linalg.kernel": [("subalg.exact_linalg", "kernel")],
    "radical.radical_span": [("subalg.radical", "radical_span")],
    "radical.radical_power_dims": [("subalg.radical", "radical_power_dims")],
}

COMMAND = "cli.command"
POOL = "cli.sweep.pool"
TASK = "cli.sweep.task"


class Carried(dict):
    """A sweep report that also carries the worker's spans and counts."""

    trace = None


class Tracer:
    """Spans and counters of one process; ``cmd`` tags the current command."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, cmd, worker]
        self.hook_s: dict = {}  # span index -> seconds its hooks took
        self.stack: list = []
        self.counts: Counter = Counter()
        self.cmd = None
        self.pid = os.getpid()
        self._patched: list = []
        self.missing: list = []
        self.hook_errors: set = set()

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cmd, False])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(counts, args, result) runs in its own span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self._run_hook(hook, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn, hook=None):
        """Wrap fn so each call bumps counts[key]; no span, result unchanged."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                self._run_hook(hook, args, result)
            return result

        return wrapper

    def _run_hook(self, hook, args, result) -> None:
        """Run a counter hook and book its time against the open span, so
        no layer's self time pays for it.  Hooks read private shapes of the
        package; if a change to the package breaks one, the hook's counts
        stop but the run goes on."""
        t0 = time.perf_counter()
        try:
            hook(self.counts, args, result)
        except Exception as exc:  # noqa: BLE001 - reported by the run
            self.hook_errors.add(f"{hook.__name__}: {exc!r}")
        finally:
            if self.stack:
                idx = self.stack[-1]
                self.hook_s[idx] = self.hook_s.get(idx, 0.0) + time.perf_counter() - t0

    # -- sweep workers ---------------------------------------------------
    def task_wrapper(self, fn):
        """Span around a sweep task; in a forked worker, ship the trace back."""

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.pid:
                idx = self.open(TASK)
                try:
                    return fn(task)
                finally:
                    self.close(idx)
            self.stack = []
            mark = len(self.spans)
            before = Counter(self.counts)
            idx = self.open(TASK)
            try:
                report = fn(task)
            finally:
                self.close(idx)
            batch = [
                [s[0], s[1], s[2], None if s[3] is None else s[3] - mark]
                for s in self.spans[mark:]
            ]
            hooks = {i - mark: t for i, t in self.hook_s.items() if i >= mark}
            del self.spans[mark:]
            self.hook_s = {i: t for i, t in self.hook_s.items() if i < mark}
            carried = Carried(report)
            carried.trace = (batch, hooks, dict(self.counts - before))
            return carried

        return wrapper

    def adopt(self, result):
        """Take over a worker's spans and counts; return the plain report."""
        if not isinstance(result, Carried):
            return result
        batch, hooks, counts = result.trace
        base = len(self.spans)
        for name, start, end, parent in batch:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base,
                 self.cmd, True]
            )
        for idx, seconds in hooks.items():
            self.hook_s[idx + base] = seconds
        self.counts.update(counts)
        return dict(result)

    def pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Spans the pool's lifetime and adopts each worker's trace."""

            def __enter__(self):
                self._span = tracer.open(POOL)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def map(self, fn, *iterables, **kwargs):
                for result in super().map(fn, *iterables, **kwargs):
                    yield tracer.adopt(result)

        return TracedPool

    # -- installation ----------------------------------------------------
    def patch(self, module: str, attr: str, make) -> None:
        """Replace module.attr, and every other subalg binding of the same
        object, with make(original).  A missing attribute is recorded."""
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "subalg" or name.startswith("subalg.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, key, original))
                    setattr(m, key, wrapper)

    def install(self) -> None:
        for name, targets in SPANS.items():
            hook = HOOKS.get(name)
            for module, attr in targets:
                self.patch(
                    module, attr, lambda fn, n=name, h=hook: self.timed(n, fn, h)
                )
        self.patch(
            "subalg.exact_linalg", "mat_mul",
            lambda fn: self.counted("exact_linalg.mat_mul.calls", fn, _mat_mul_hook),
        )
        self.patch(
            "subalg.lengths", "_chain",
            lambda fn: self.counted("lengths.chain.runs", fn, _chain_hook),
        )
        self.patch("subalg.cli", "_sweep_task", self.task_wrapper)
        self.patch("subalg.cli", "ProcessPoolExecutor", lambda _: self.pool_class())
        if self.missing:
            print(
                "bench: warning: not traced (missing): " + ", ".join(self.missing),
                file=sys.stderr,
            )

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()


# -- counter hooks ---------------------------------------------------------
def _nonzeros(vectors) -> tuple:
    nz = total = 0
    for vec in vectors:
        total += len(vec)
        nz += sum(1 for v in vec if v)
    return nz, total


def _mat_mul_hook(counts, args, result) -> None:
    """Entry visits and useful multiply-adds of one product A B.

    mat_mul runs an axpy over the n entries of row k of B for each nonzero
    A[i][k], so it visits nnz(A) * n entries, and the multiply-adds that
    can be nonzero number the sum over k of nnz(column k of A) times
    nnz(row k of B).
    """
    a, b = args[0], args[1]
    a_cols = [sum(map(bool, col)) for col in zip(*a.rows)]
    b_rows = [sum(map(bool, row)) for row in b.rows]
    counts["exact_linalg.mat_mul.entry_visits"] += sum(a_cols) * a.n
    counts["exact_linalg.mat_mul.useful"] += sum(map(operator.mul, a_cols, b_rows))


def _kernel_hook(counts, args, result) -> None:
    counts["exact_linalg.kernel.rows_in"] += len(args[0])
    counts["exact_linalg.kernel.nullity"] += result.dim


def _chain_hook(counts, args, result) -> None:
    """Chain inserts from the returned LengthReport, and vector density.

    The chain inserts the identity (when admitted), every member at step 1,
    and at each later step every member times each basis vector new at the
    previous step; so inserts = e + m * (1 + dims[-2] - dims[0]) and the
    inserts that grew the span number dims[-1].
    """
    system = args[0]
    report, spans = result
    m = len(system.members)
    dims = report.dims
    inserts = int(system.admit_empty_word) + m * (1 + dims[-2] - dims[0])
    counts["lengths.chain.inserts"] += inserts
    counts["lengths.chain.grown"] += dims[-1]
    gen = _nonzeros(row for mat in system.matrices for row in mat.rows)
    closure = _nonzeros(spans[-1].basis)
    counts["density.nonzero"] += gen[0] + closure[0]
    counts["density.coords"] += gen[1] + closure[1]


def _sample_hook(counts, args, result) -> None:
    counts["lengths.sample.accepted"] += len(result)


HOOKS = {
    "exact_linalg.kernel": _kernel_hook,
    "lengths.sample_generating_systems": _sample_hook,
}


# -- derived numbers -------------------------------------------------------
def self_times(spans, hook_s=None) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals (children of one process may not overlap, but the
    union is taken so that the rule holds regardless) and minus the time
    its counter hooks took (``hook_s``, by span index)."""
    hook_s = hook_s or {}
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered - hook_s.get(idx, 0.0))
    return out
