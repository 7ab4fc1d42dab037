"""Command-line interface.

Subcommands: construct, verify, length, centralizer, sweep.  Every command
writes one JSON document (sorted keys, trailing newline) to --out or
stdout.  Exit codes: 0 when all verdicts pass, 1 when a verdict fails,
2 on usage errors or malformed input.  The elapsed_ms field is wall-clock
and informational; everything else is deterministic for a given input,
field, and seed.  A call builds the parser of its own subcommand only;
help, errors and exit codes are those of the parser of all five.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from functools import cache

from .commute import centralizer
from .constructions import (
    BkmParams,
    ConstructionParams,
    build_bkm,
    build_bkml,
    valid_bkm_params,
    valid_bkml_params,
)
from .errors import InvalidParams, SubalgError
from .exact_linalg import QQ, _Echelon, field_from_name, vectorize
from .jsonio import MAX_N, dumps, load_system, matrix_entries, system_to_dict
from .lengths import _chain, _grow, _word_steps
from .verify import verify_system


def _field_arg(s: str):
    try:
        return field_from_name(s)
    except InvalidParams as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int(s: str) -> int:
    """s as an int only when ``str`` writes it so: "1_0", "+8" and "08" are not."""
    try:
        if s == str(int(s)):
            return int(s)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer: {s!r}")


def _int_in(lo: int, hi: int | None = None):
    def parse(s: str) -> int:
        v = _int(s)
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}: {s}")
        if hi is not None and v > hi:
            raise argparse.ArgumentTypeError(f"exceeds the supported maximum {hi}: {s}")
        return v

    return parse


# Each sample costs candidates and a span chain, and its length is listed
# in the document; a larger --samples is refused before anything is drawn.
MAX_SAMPLES = 10_000
# A sweep walks every combination of its explicit --m/--l/--k ranges, or
# else the n**2 (bkm) or n**3 (bkml) ones per n that ``valid_*_params``
# try; a sweep walking more is refused before any tuple is enumerated.
MAX_SWEEP_COMBINATIONS = 100_000
# `length --check-words` forms up to this many words at its top step, one
# at a time; a system needing more is refused before any word is formed.
MAX_WORD_BUDGET = 1_000_000

_positive_int = _int_in(1)
_samples = _int_in(0, MAX_SAMPLES)
# a matrix size, bounded like the n of a generator-set file
_family_n = _int_in(1, MAX_N)


def _range_arg(s: str) -> tuple:
    """Accepts "8", "6..10", or "1,3,5" (see ``_int``); returns a sorted tuple.

    No parameter of a valid tuple exceeds its n or is below 1, so a range
    reaching above ``MAX_N``, or holding more than ``MAX_N`` values, is
    refused before it is built.
    """
    try:
        if ".." in s:
            lo, hi = map(_int, s.split("..", 1))
            if hi < lo:
                raise ValueError
            values = range(lo, hi + 1)
        elif "," in s:
            values = sorted({_int(part) for part in s.split(",")})
        else:
            values = [_int(s)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad range {s!r}: use N, LO..HI, or A,B,C"
        ) from None
    if values[-1] > MAX_N:
        raise argparse.ArgumentTypeError(f"exceeds the supported maximum {MAX_N}: {s}")
    if len(values) > MAX_N:
        raise argparse.ArgumentTypeError(
            f"a range of {len(values)} values exceeds the supported maximum {MAX_N}: {s}"
        )
    return tuple(values)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail2(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


_PARAMS = {"bkml": ConstructionParams, "bkm": BkmParams}


def _build(family: str, params, field):
    return (build_bkml if family == "bkml" else build_bkm)(params, field)


def _report_doc(rep, family, params, field_name, seed, t0) -> dict:
    """The JSON view of a VerificationReport that verify and sweep print."""
    lengths = rep.sample_lengths
    return {
        "family": family,
        "params": params,
        "field": field_name,
        "algebra_dimension": rep.closure.dim,
        "commutative": rep.maximality.is_commutative,
        "maximal": rep.maximality.is_maximal,
        "centralizer_dimension": rep.maximality.centralizer_dim,
        "length_certified": rep.certified,
        "witness_length": rep.measured.length,
        "witness_chain_dims": list(rep.measured.dims),
        "radical_nilpotency": None if rep.radical is None else rep.radical.nilpotency,
        "bound_holds": rep.bound_holds,
        "samples": None if lengths is None else {
            "count": len(lengths),
            "seed": seed,
            "lengths": list(lengths),
            "all_within_bound": rep.samples_within_bound,
        },
        "pass": rep.passed,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }


def _family_report(family: str, params, field, samples: int, seed: int) -> dict:
    """Full verification report for one construction; pure and picklable."""
    t0 = time.perf_counter()
    gens = _build(family, params, field)
    rep = verify_system(gens, certified=params.k + 1, samples=samples, seed=seed)
    return _report_doc(rep, family, params.asdict(), field.name, seed, t0)


def _load_in(args):
    """The system of --in, which takes no family parameters and no other field."""
    if (args.n, args.m, args.l, args.k) != (None,) * 4:
        raise InvalidParams("--in takes no --n, --m, --l or --k")
    system = load_system(args.infile)
    if args.field not in (None, system.field):
        raise InvalidParams(f"--field {args.field.name}, the file is {system.field.name}")
    return system


def _require_family_args(args) -> object:
    if args.family == "bkml":
        if args.m is None or args.l is None or args.k is None:
            raise InvalidParams("family bkml needs --m, --l, and --k")
        return ConstructionParams(args.n, args.m, args.l, args.k)
    if args.l is not None:
        raise InvalidParams("family bkm takes no --l")
    if args.m is None or args.k is None:
        raise InvalidParams("family bkm needs --m and --k")
    return BkmParams(args.n, args.m, args.k)


def cmd_construct(args) -> int:
    gens = _build(args.family, _require_family_args(args), args.field or QQ)
    _emit(dumps(system_to_dict(gens)), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.infile:
        system, t0 = _load_in(args), time.perf_counter()
        rep = verify_system(system, samples=args.samples, seed=args.seed)
        report = _report_doc(rep, None, None, system.field.name, args.seed, t0)
    elif args.n is None:
        raise InvalidParams("verify needs either --in or family parameters")
    else:
        params, field = _require_family_args(args), args.field or QQ
        report = _family_report(args.family, params, field, args.samples, args.seed)
    _emit(dumps(report), args.out)
    return 0 if report["pass"] else 1


def cmd_length(args) -> int:
    system = load_system(args.infile)
    report, spans = _chain(system)
    doc = {
        "labels": list(system.labels),
        "admit_empty_word": system.admit_empty_word,
        "field": system.field.name,
        "n": system.n,
        "dims": list(report.dims),
        "stabilization_step": report.stabilization_step,
        "length": report.length,
        "target_dimension": report.target_dim,
    }
    if args.check_words:
        # the words of each step join one echelon as they are formed, which
        # then holds the span of all words up to that step
        steps = _word_steps(system, report.stabilization_step, MAX_WORD_BUDGET)
        ech = _Echelon(system.field)
        for i, (span, words) in enumerate(zip(spans, steps)):
            _grow(ech, map(vectorize, words))
            if ech.to_subspace(system.n) != span:
                doc["word_oracle"] = f"mismatch at step {i}"
                _emit(dumps(doc), args.out)
                return 1
        doc["word_oracle"] = "verified"
    _emit(dumps(doc), args.out)
    return 0


def cmd_centralizer(args) -> int:
    if args.infile:
        system = _load_in(args)
    elif args.n is None:
        raise InvalidParams("centralizer needs either --in or family parameters")
    else:
        system = _build(args.family, _require_family_args(args), args.field or QQ)
    cent = centralizer(system.matrices)
    basis = [
        {"label": f"c{idx + 1}", "entries": matrix_entries(m)}
        for idx, m in enumerate(cent.basis_matrices())
    ]
    doc = {
        "n": system.n,
        "field": system.field.name,
        "dimension": cent.dim,
        "basis": basis,
    }
    _emit(dumps(doc), args.out)
    return 0


def _sweep_task(task) -> dict:
    """One sweep report; a tuple that raises gets a failing report instead."""
    family, params, field, samples, seed = task
    try:
        return _family_report(family, params, field, samples, seed)
    except SubalgError as exc:
        return {
            "family": family,
            "params": params.asdict(),
            "field": field.name,
            "error": f"{type(exc).__name__}: {exc}",
            "pass": False,
        }


def _sweep_share(share, conn) -> None:
    """A sweep worker: sends the reports of its share of the tasks as one list."""
    conn.send([_sweep_task(t) for t in share])


def cmd_sweep(args) -> int:
    bkml = args.family == "bkml"
    if not bkml and args.l is not None:
        raise InvalidParams("family bkm takes no --l")
    cls = _PARAMS[args.family]
    names = ("n", "m", "l", "k") if bkml else ("n", "m", "k")
    ranges = (args.m, args.l, args.k) if bkml else (args.m, args.k)
    explicit_all = all(r is not None for r in ranges)
    walked = sum(
        math.prod(map(len, ranges)) if explicit_all else max(n, 0) ** len(ranges)
        for n in args.n
    )
    if walked > MAX_SWEEP_COMBINATIONS:
        return _fail2(
            f"sweep walks {walked} parameter combinations, above the supported "
            f"maximum {MAX_SWEEP_COMBINATIONS}; narrow --n, --m, --l or --k"
        )
    selected = []
    skipped = []
    for n in args.n:
        if explicit_all:
            for combo in itertools.product((n,), *ranges):
                params = dict(zip(names, combo))
                try:
                    selected.append(cls(**params))
                except InvalidParams as exc:
                    skipped.append({"params": params, "reason": str(exc)})
        else:
            for p in valid_bkml_params(n) if bkml else valid_bkm_params(n):
                given = zip(names[1:], ranges)
                if all(r is None or getattr(p, x) in r for x, r in given):
                    selected.append(p)
    if not selected:
        message = "sweep selected no valid parameter tuples"
        if skipped:
            first = skipped[0]
            params = ", ".join(f"{k}={v}" for k, v in first["params"].items())
            message += f"; first skipped ({params}): {first['reason']}"
        return _fail2(message)
    selected.sort(key=cls.astuple)
    tasks = [(args.family, p, args.field, args.samples, args.seed) for p in selected]
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pipe, Process  # only a parallel sweep pays for it
        # worker w verifies the size-sorted tasks w, w + jobs, ... and sends
        # their reports over its pipe; a worker that sends none is stopped
        reports, workers = [None] * len(tasks), []
        try:
            for w in range(jobs):
                recv, send = Pipe(duplex=False)
                proc = Process(target=_sweep_share, args=(tasks[w::jobs], send))
                proc.start()
                workers.append((proc, recv))
                send.close()
            for w, (_, recv) in enumerate(workers):
                try:
                    reports[w::jobs] = recv.recv()
                except EOFError:
                    raise RuntimeError(f"sweep worker {w} sent no reports") from None
                recv.close()
        finally:
            for proc, recv in workers:
                if not recv.closed:
                    proc.terminate()
                proc.join()
    else:
        reports = [_sweep_task(t) for t in tasks]
    passed = sum(1 for r in reports if r["pass"])
    failed = len(reports) - passed
    doc = {
        "family": args.family,
        "field": args.field.name,
        "reports": reports,
        "skipped": skipped,
        "summary": {"pass": passed, "fail": failed, "skipped": len(skipped)},
    }
    _emit(dumps(doc), args.out)
    print(
        f"sweep: pass {passed} fail {failed} skipped {len(skipped)}",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


_FAMILY = ("--family", dict(choices=("bkml", "bkm"), default="bkml"))
_FAMILY_ARGS = (
    _FAMILY,
    ("--n", dict(type=_family_n)),
    ("--m", dict(type=_positive_int)),
    ("--l", dict(type=_positive_int)),
    ("--k", dict(type=_positive_int)),
    ("--field", dict(type=_field_arg, help='scalar field: "rational" or "gf:<prime>"')),
)
_OUT = ("--out", {})
_SAMPLING = (
    ("--samples", dict(type=_samples, default=25)),
    ("--seed", dict(type=_int, default=0)),
)

# name: (help, handler, its arguments in the order its help lists them)
_COMMANDS = {
    "construct": ("write a generator-set file", cmd_construct, (
        *_FAMILY_ARGS, ("--out", dict(help="output path (default: stdout)")),
    )),
    "verify": ("full verdict for a family or a file", cmd_verify, (
        ("--in", dict(dest="infile", help="generator-set file")),
        *_FAMILY_ARGS, *_SAMPLING, _OUT,
    )),
    "length": ("span-chain report for a file", cmd_length, (
        ("--in", dict(dest="infile", required=True)),
        ("--check-words", dict(
            action="store_true",
            help="cross-check every chain step against brute-force word spans",
        )),
        _OUT,
    )),
    "centralizer": ("dump a centralizer basis", cmd_centralizer, (
        ("--in", dict(dest="infile")), *_FAMILY_ARGS, _OUT,
    )),
    "sweep": ("verify whole parameter grids", cmd_sweep, (
        ("--n", dict(type=_range_arg, required=True)),
        ("--m", dict(type=_range_arg)),
        ("--l", dict(type=_range_arg)),
        ("--k", dict(type=_range_arg)),
        _FAMILY,
        ("--field", dict(type=_field_arg, default=QQ)),
        *_SAMPLING,
        ("--jobs", dict(
            type=_positive_int, default=1,
            help="worker processes, each verifying a strided share of the "
            "size-sorted tuples; the document is byte-identical to --jobs 1",
        )),
        _OUT,
    )),
}


@cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    A parser of one command still names all of them in its usage, which
    argparse prints with an unrecognized-arguments error.
    """
    parser = argparse.ArgumentParser(
        prog="subalg",
        description=(
            "Construct maximal commutative matrix subalgebras, verify them, "
            "and measure lengths of generating systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command:
        # in the full parser a metavar would rename "argument command" in
        # its invalid-choice and missing-command errors
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in [command] if command else _COMMANDS:
        help_, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # an argv naming no command gets every command's parser for its help
    # or its error
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        return _fail2(f"cannot read or write {exc.filename}: {exc.strerror}")
    except SubalgError as exc:
        return _fail2(str(exc))


if __name__ == "__main__":
    sys.exit(main())
