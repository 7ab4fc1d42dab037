"""Benchmark of the subalg checker: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-q --seed 1 --seconds 25 --trace 0

The run imports ``subalg`` from ``src/`` of the checkout, sets up its inputs
(timed as ``setup_s``), issues the workload's command list through
``subalg.cli.main`` in several passes, checks every output document, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
record of the environment and the run's details.  With ``--trace 0`` the
metrics are the end-to-end ones.  With ``--trace 1`` the last pass runs
traced and the run reports its per-layer metrics (see tracing.py).  Scratch
files, payload digests and traces go to ``.bench_out/``.

End-to-end times are reported at the reference speed: a fixed loop runs
before and after every command and every set-up, and each time is scaled by
the loop's nominal time over its measured time around it (``reference``).
The times as measured are in the detail line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
MIN_PASSES = 2
# The reference loop and its duration on the reference machine at its usual
# speed.  Every timed command and set-up is bracketed by the loop, and its
# time is rescaled by REF_NOMINAL_S / (the loop's time around it).
REF_ITERS = 40000
REF_NOMINAL_S = 0.2

sys.path.insert(0, str(BENCH))

from checks import check_sweep, check_verify, payload_digest  # noqa: E402
from tracing import COMMAND, POOL, SPANS, TASK, Tracer, self_times  # noqa: E402
from workloads import MOVES, WORKLOADS  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked: no package, or set-up failed."""


# -- statistics -------------------------------------------------------------
def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    For n sorted samples that is the one at rank n-10 (1-based), i.e. the
    (n-10)/n quantile.  Below 21 samples it would not lie above the median,
    so there is no tail to report.
    """
    n = len(values)
    if n < 21:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def _loop(_=None) -> float:
    t0 = time.perf_counter()
    for i in range(1, REF_ITERS):
        Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return time.perf_counter() - t0


def reference(jobs: int = 1) -> float:
    """Seconds taken by a fixed pure-Python loop of rational products.

    The shared machine's speed drifts by a third within minutes, for the
    program and for this loop alike, so a time measured right next to the
    loop and rescaled by it reads the same in a fast and in a slow phase.
    Each CPU drifts on its own, so for a command that runs ``jobs``
    processes the loop runs in as many forked processes at once, and the
    result is the mean of their times.
    """
    if jobs == 1:
        return _loop()
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        times = pool.map(_loop, [()] * jobs, chunksize=1)
        pool.close()
        pool.join()
    return statistics.fmean(times)


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    """Seconds at the reference speed, from the loop's times around them."""
    return seconds * 2.0 * REF_NOMINAL_S / (ref_before + ref_after)


# -- the program under test -----------------------------------------------
def import_cli():
    """Import subalg.cli afresh from this checkout's src/."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "subalg" or m.startswith("subalg.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("subalg.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import subalg from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(ROOT):
        raise SetupError(f"subalg imported from outside the checkout: {cli.__file__}")
    return cli


def execute(cli, argv) -> tuple:
    """Run one command; returns (exit code or None on a traceback, seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except Exception:  # the run must go on and count this command as failed
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


def jobs_of(cmd) -> int:
    """Processes a command runs at once: its --jobs, else 1."""
    return int(cmd.argv[cmd.argv.index("--jobs") + 1]) if "--jobs" in cmd.argv else 1


def problems_of(cmd, rc, path) -> tuple:
    """(problems, digest) of one finished command."""
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    e = cmd.expect
    if e["kind"] == "verify":
        found = check_verify(doc, e["family"], e["params"], e["by_family"], e["samples"])
    else:
        found = check_sweep(doc, e["family"], e["ns"], e["samples"])
    return found, payload_digest(doc)


class Digests:
    """Payload digest per command key, kept across runs of one seed."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> list:
        seen = self.known.setdefault(key, digest)
        return [] if seen == digest else [f"payload digest differs from an earlier run: {key}"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


# -- set-up -----------------------------------------------------------------
def set_up(workload, seed: int):
    """Import, write inputs and warm up, SETUP_REPEATS times; keep the last.

    Returns (cli, plan, workdir, per-part median seconds at the reference
    speed, warm-up problems, the measured set-up seconds).
    """
    parts = {"import_s": [], "inputs_s": [], "warmup_s": [], "setup_s": []}
    measured = []
    workdir = None
    ref = reference()
    for _ in range(SETUP_REPEATS):
        if workdir:
            shutil.rmtree(workdir)
        t0 = time.perf_counter()
        cli = import_cli()
        t1 = time.perf_counter()
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
        plan = workload.plan(random.Random(seed), workdir)
        warm = workload.warmup(workdir)
        for cmd in warm + plan:
            if cmd.prepare:
                rc, _ = execute(cli, cmd.prepare)
                if rc != 0:
                    raise SetupError(f"construct failed ({rc}): {' '.join(cmd.prepare)}")
        t2 = time.perf_counter()
        problems = []
        for i, cmd in enumerate(warm):
            path = f"{workdir}/warmup-{i}.out.json"
            rc, _ = execute(cli, cmd.argv + ("--out", path))
            problems += problems_of(cmd, rc, path)[0]
        t3 = time.perf_counter()
        ref_after = reference()
        for key, value in zip(parts, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
            parts[key].append(calibrated(value, ref, ref_after))
        measured.append(t3 - t0)
        ref = ref_after
    setup = {k: statistics.median(v) for k, v in parts.items()}
    return cli, plan, workdir, setup, problems, statistics.median(measured)


# -- traced run -------------------------------------------------------------
def layer_metrics(tracer: Tracer, plan, measured, walls, untraced) -> dict:
    """Per-layer numbers of one traced pass, summed over its command list.

    ``measured`` are the traced pass's command times, ``walls`` the same at
    the reference speed, and ``untraced`` the median times at the reference
    speed of the same commands over the untraced passes.
    """
    spans = tracer.spans
    selfs = self_times(spans, tracer.hook_s)
    out = {}
    names = list(SPANS) + [POOL]
    for name in names:
        out[f"{name}.self_s"] = (0.0, "s")
        out[f"{name}.calls"] = (0, "count")
    other = commands = 0.0
    task_total = 0.0
    for span, own in zip(spans, selfs):
        name = span[0]
        if name in names:
            out[f"{name}.self_s"] = (out[f"{name}.self_s"][0] + own, "s")
            out[f"{name}.calls"] = (out[f"{name}.calls"][0] + 1, "count")
        elif name == COMMAND:
            other += own
            commands += span[2] - span[1]
        elif name == TASK and span[5]:
            task_total += span[2] - span[1]
    out["cli.other.self_s"] = (other, "s")
    out["cli.other.calls"] = (len(plan), "count")
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    closure_runs = sum(
        1 for s in spans
        if s[0] == "lengths.algebra_closure" and s[3] is not None
        and spans[s[3]][0] == "lengths.sample_generating_systems"
    )
    parallel = [(w, jobs_of(cmd)) for cmd, w in zip(plan, measured)
                if "--jobs" in cmd.argv]
    out.update({
        "exact_linalg.kernel.rows_in": (c["exact_linalg.kernel.rows_in"], "count"),
        "exact_linalg.kernel.nullity": (c["exact_linalg.kernel.nullity"], "count"),
        "exact_linalg.mat_mul.calls": (c["exact_linalg.mat_mul.calls"], "count"),
        "exact_linalg.mat_mul.entry_visits": (
            c["exact_linalg.mat_mul.entry_visits"], "count"),
        "exact_linalg.mat_mul.useful_ratio": (
            ratio(c["exact_linalg.mat_mul.useful"],
                  c["exact_linalg.mat_mul.entry_visits"]), "ratio"),
        "exact_linalg.vector_density": (
            ratio(c["density.nonzero"], c["density.coords"]), "ratio"),
        "lengths.chain.runs": (c["lengths.chain.runs"], "count"),
        "lengths.chain.inserts": (c["lengths.chain.inserts"], "count"),
        "lengths.chain.grow_ratio": (
            ratio(c["lengths.chain.grown"], c["lengths.chain.inserts"]), "ratio"),
        "lengths.sample.closure_runs": (closure_runs, "count"),
        "lengths.sample.accept_ratio": (
            ratio(c["lengths.sample.accepted"], closure_runs), "ratio"),
        "cli.sweep.parallel_efficiency": (
            ratio(task_total, sum(w * j for w, j in parallel)), "ratio"),
        "trace.coverage": (1.0 - ratio(other, commands), "ratio"),
        "trace.overhead_ratio": (sum(walls) / sum(untraced) - 1.0, "ratio"),
    })
    return out


# -- one run ----------------------------------------------------------------
def another_pass(done: int, elapsed: float, seconds: float, reserved: int) -> bool:
    """Whether to start one more untraced pass.

    Always until MIN_PASSES are done; then only if it and the ``reserved``
    passes after it, each taking the mean pass time so far, end within
    ``seconds`` of the first pass's start.
    """
    if done < MIN_PASSES:
        return True
    return elapsed / done * (done + 1 + reserved) <= seconds


def environment() -> dict:
    rat = getattr(sys.modules["subalg.exact_linalg"], "_RAT", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": getattr(rat, "__module__", "unknown").split(".")[0],
        "cpu_count": os.cpu_count(),
    }


def package_caches() -> list:
    """Every functools cache in the package, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "subalg" or name.startswith("subalg."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def run_pass(cli, plan, outputs, caches, tracer=None) -> list:
    """Issue the command list once, with the reference loop between commands.

    Returns (exit code, measured seconds, seconds at the reference speed)
    per command.  Caches are cleared before every command, outside its
    timing, so that each costs what it costs in a fresh CLI process.
    """
    results = []
    ref = None
    for i, cmd in enumerate(plan):
        jobs = jobs_of(cmd)
        if ref is None or ref[0] != jobs:
            ref = (jobs, reference(jobs))
        for cache in caches:
            cache.cache_clear()
        argv = cmd.argv + ("--out", outputs[i])
        if tracer is None:
            rc, seconds = execute(cli, argv)
        else:
            tracer.cmd = i
            idx = tracer.open(COMMAND)
            try:
                rc, seconds = execute(cli, argv)
            finally:
                tracer.close(idx)
        ref_after = reference(jobs)
        results.append((rc, seconds, calibrated(seconds, ref[1], ref_after)))
        ref = (jobs, ref_after)
    return results


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    cli, plan, workdir, setup, problems, setup_measured = set_up(workload, args.seed)
    env = environment()
    if env["backend"] == "fractions":
        print("bench: warning: gmpy2 is missing; rationals run on the "
              "fractions.Fraction fallback", file=sys.stderr)
    caches = package_caches()
    outputs = []

    def next_outputs():
        outputs.append([f"{workdir}/{len(outputs)}-{i}.out.json"
                        for i in range(len(plan))])
        return outputs[-1]

    results = []
    start = time.perf_counter()
    while another_pass(len(results), time.perf_counter() - start, args.seconds,
                       args.trace):
        results.append(run_pass(cli, plan, next_outputs(), caches))
    # With --trace 1 a last pass runs traced, so the overhead is measured
    # against the untraced passes over the same commands in the same process.
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            results.append(run_pass(cli, plan, next_outputs(), caches, tracer))
        finally:
            tracer.uninstall()
    passes = len(results)

    digests = Digests(OUT / "digests" / f"{workload.name}-{args.seed}.json")
    failed = 0
    in_run = {}
    for p in range(passes):
        for cmd, (rc, _, _), path in zip(plan, results[p], outputs[p]):
            found, digest = problems_of(cmd, rc, path)
            if digest is not None:
                if in_run.setdefault(cmd.key, digest) != digest:
                    found.append(f"payload differs within the run: {cmd.key}")
                found += digests.check(cmd.key, digest)
            if found:
                failed += 1
                problems += [f"{cmd.key}: {msg}" for msg in found[:3]]
    digests.save()
    shutil.rmtree(workdir)

    # Per command: times at the reference speed, and as measured, per pass.
    walls = [[w for _, _, w in pass_results] for pass_results in results]
    measured = [[w for _, w, _ in pass_results] for pass_results in results]
    medians = [statistics.median(ws) for ws in zip(*walls)]
    attempted = passes * len(plan)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": passes, "commands": len(plan),
        "env": dict(env, loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "setup": setup,
        "setup_measured_s": setup_measured,
        "wall_measured_s": sum(statistics.median(ws) for ws in zip(*measured)),
        "speed": sum(map(sum, walls)) / sum(map(sum, measured)),
        "cmd_tail_s": tail([w for ws in walls for w in ws]),
        "cmd_s": {cmd.key: ws for cmd, ws in zip(plan, zip(*walls))},
        "cmd_measured_s": {cmd.key: ws for cmd, ws in zip(plan, zip(*measured))},
        "fail_ratio": failed / attempted,
        "digest": payload_digest(sorted(in_run.items())),
        "problems": problems[:20],
    }
    if tracer is None:
        metrics = {
            "wall_s": (sum(medians), "s"),
            "cmd_p50_s": (statistics.median(medians), "s"),
            "peak_rss_mib": (usage / 1024.0, "MiB"),
            "setup_s": (setup["setup_s"], "s"),
        }
    else:
        untraced = [statistics.median(ws) for ws in zip(*walls[:-1])]
        metrics = layer_metrics(tracer, plan, measured[-1], walls[-1], untraced)
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        info["moves"] = MOVES[workload.name]
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"spans": tracer.spans, "hook_s": tracer.hook_s,
             "counts": dict(tracer.counts)}))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        for error in sorted(tracer.hook_errors):
            print(f"bench: warning: counter hook failed: {error}", file=sys.stderr)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
