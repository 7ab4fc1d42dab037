"""End-to-end acceptance checks.

Ten checks, each printing one pass/FAIL line so a full run reads as a
checklist.  Per-tuple verification data is cached in module dicts and
shared across checks; the two parameter grids cover every valid tuple up
to size 10 plus three size-12 spot checks for the two-chain family.
"""

import time

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    GeneratingSystem,
    Matrix,
    PrimeField,
    algebra_closure,
    build_bkm,
    build_bkml,
    centralizer,
    dimension_formula,
    dimension_formula_bkm,
    is_commutative,
    li_chain_spans,
    matrix_unit,
    radical_power_dims,
    radical_span,
    sample_generating_systems,
    valid_bkm_params,
    valid_bkml_params,
    witness_system,
    witness_system_bkm,
)
from subalg.lengths import _sample_reports
from subalg.radical import Algebra

from oracles import enumerate_words, mat_pow, mat_power_of_chain, span_of

GF2 = PrimeField(2)
GF7 = PrimeField(7)
GF32003 = PrimeField(32003)
ALL_FIELDS = (QQ, GF2, GF7, GF32003)

SPOT_BKML = (
    ConstructionParams(12, 1, 7, 4),
    ConstructionParams(12, 2, 7, 3),
    ConstructionParams(12, 3, 8, 3),
)
BKML_GRID = tuple(
    p for n in range(1, 11) for p in valid_bkml_params(n)
) + SPOT_BKML
BKM_GRID = tuple(p for n in range(1, 11) for p in valid_bkm_params(n))

SAMPLE_COUNT = 25
SAMPLE_SEED = 0

_SUMMARIES: dict = {}
_SAMPLED: dict = {}


def _relations_ok(family, params, field, full) -> bool:
    """Chain-times-chain, chain-times-unit, and unit-times-unit products
    vanish, and chain powers match their closed form, entry by entry."""
    by_label = dict(full.members)
    units = [m for label, m in full.members if label.startswith("E_")]
    if family == "bkml":
        chains = [(params.m, by_label["B1"]), (params.l, by_label["B2"])]
        b1, b2 = by_label["B1"], by_label["B2"]
        if not ((b1 * b2).is_zero() and (b2 * b1).is_zero()):
            return False
    else:
        chains = [(params.m, by_label["B"])]
    for _, chain in chains:
        for e in units:
            if not ((chain * e).is_zero() and (e * chain).is_zero()):
                return False
    for e in units:
        for e2 in units:
            if not (e * e2).is_zero():
                return False
    for start, chain in chains:
        for s in range(1, params.k + 3):
            if mat_pow(chain, s) != mat_power_of_chain(
                params.n, start, params.k, s, field
            ):
                return False
    return True


def _staircase_ok(params, witness, spans) -> bool:
    """Chain powers enter the span chain exactly one step at a time."""
    by_label = dict(witness.members)
    chains = (
        [by_label["B1"], by_label["B2"]] if "B2" in by_label else [by_label["B"]]
    )
    for chain in chains:
        for s in range(2, params.k + 2):
            if s >= len(spans):
                return False
            power = mat_pow(chain, s)
            if spans[s - 1].contains_matrix(power):
                return False
            if not spans[s].contains_matrix(power):
                return False
    return True


def summarize(family: str, params, field) -> dict:
    key = (field.name, family, params)
    if key in _SUMMARIES:
        return _SUMMARIES[key]
    if family == "bkml":
        full = build_bkml(params, field)
        witness = witness_system(params, field)
        formula_dim = dimension_formula(params)
    else:
        full = build_bkm(params, field)
        witness = witness_system_bkm(params, field)
        formula_dim = dimension_formula_bkm(params)
    closure = algebra_closure(full)
    commutes, _ = is_commutative(full.matrices)
    cent = centralizer(full.matrices)
    spans = li_chain_spans(witness)
    generates = spans[-1] == closure
    witness_length = None
    if generates:
        witness_length = next(
            i for i, s in enumerate(spans) if s.dim == closure.dim
        )
    radical = radical_span(closure)
    power_dims = radical_power_dims(radical)
    summary = {
        "closure": closure,
        "closure_dim": closure.dim,
        "formula_dim": formula_dim,
        "commutative": commutes,
        "centralizer_dim": cent.dim,
        "maximal": commutes and cent == closure,
        "witness_dims": tuple(s.dim for s in spans),
        "witness_generates": generates,
        "witness_length": witness_length,
        "staircase_ok": _staircase_ok(params, witness, spans),
        "relations_ok": _relations_ok(family, params, field, full),
        "nilpotency": len(power_dims),
        "power_dims": power_dims,
    }
    _SUMMARIES[key] = summary
    return summary


def _fingerprint(summary: dict) -> tuple:
    return tuple(
        summary[k]
        for k in (
            "closure_dim",
            "formula_dim",
            "commutative",
            "centralizer_dim",
            "maximal",
            "witness_dims",
            "witness_generates",
            "witness_length",
            "staircase_ok",
            "relations_ok",
            "nilpotency",
            "power_dims",
        )
    )


def sampled_bound_ok(family: str, params, field) -> bool:
    """25 seeded random generating systems all satisfy the length bound."""
    key = (field.name, family, params)
    if key in _SAMPLED:
        return _SAMPLED[key]
    summary = summarize(family, params, field)
    # the lengths alone: the samples of sample_generating_systems, with no
    # matrix formed
    pairs = _sample_reports(Algebra(summary["closure"]), SAMPLE_COUNT, SAMPLE_SEED)
    lengths = [report.length for _, report in pairs]
    ok = all(v <= summary["nilpotency"] - 1 for v in lengths)
    _SAMPLED[key] = ok
    return ok


def _grid(family: str):
    return BKML_GRID if family == "bkml" else BKM_GRID


def _run(capsys, num: int, title: str, body) -> None:
    try:
        failures = body()
    except Exception as exc:  # still print the checklist line
        failures = [f"exception: {exc!r}"]
    ok = not failures
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'pass' if ok else 'FAIL'}  {title}")
    assert ok, f"criterion {num}: {title}: {failures[:5]}"


def test_criterion_01_reference_two_chain(capsys):
    def body():
        t0 = time.perf_counter()
        s = summarize("bkml", ConstructionParams(8, 1, 5, 2), QQ)
        elapsed = time.perf_counter() - t0
        failures = []
        if s["closure_dim"] != 9:
            failures.append(f"dimension {s['closure_dim']} != 9")
        if not s["maximal"]:
            failures.append("not maximal")
        if s["witness_length"] != 3:
            failures.append(f"witness length {s['witness_length']} != 3")
        if s["nilpotency"] != 4:
            failures.append(f"nilpotency {s['nilpotency']} != 4")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.2f}s")
        return failures

    _run(capsys, 1, "two-chain reference: dim 9, maximal, length 3, nilpotency 4", body)


def test_criterion_02_reference_one_chain(capsys):
    def body():
        t0 = time.perf_counter()
        s = summarize("bkm", BkmParams(8, 1, 2), QQ)
        elapsed = time.perf_counter() - t0
        failures = []
        if s["closure_dim"] != 8:
            failures.append(f"dimension {s['closure_dim']} != 8")
        if not s["maximal"]:
            failures.append("not maximal")
        if s["witness_length"] != 3:
            failures.append(f"witness length {s['witness_length']} != 3")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.2f}s")
        return failures

    _run(capsys, 2, "one-chain reference in size 8: dim 8, maximal, length 3", body)


def test_criterion_03_grid_maximality_timed(capsys):
    def body():
        failures = []
        t0 = time.perf_counter()
        for p in BKML_GRID:
            s = summarize("bkml", p, GF32003)
            if not (s["commutative"] and s["maximal"]):
                failures.append(f"gf:32003 {p}")
        gf_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        for p in BKML_GRID:
            s = summarize("bkml", p, QQ)
            if not (s["commutative"] and s["maximal"]):
                failures.append(f"rational {p}")
        q_elapsed = time.perf_counter() - t0
        if gf_elapsed >= 60:
            failures.append(f"gf:32003 grid took {gf_elapsed:.1f}s")
        if q_elapsed >= 600:
            failures.append(f"rational grid took {q_elapsed:.1f}s")
        return failures

    _run(
        capsys,
        3,
        "two-chain grid commutes and equals its centralizer (timed)",
        body,
    )


def test_criterion_04_witness_length_staircase(capsys):
    def body():
        failures = []
        for p in BKML_GRID:
            s = summarize("bkml", p, QQ)
            if s["witness_length"] != p.k + 1:
                failures.append(f"{p}: length {s['witness_length']} != {p.k + 1}")
            if not s["staircase_ok"]:
                failures.append(f"{p}: power staircase broken")
        return failures

    _run(capsys, 4, "witness length is k+1 with strict chain-power staircase", body)


def test_criterion_05_one_chain_grid(capsys):
    def body():
        failures = []
        for p in BKM_GRID:
            s = summarize("bkm", p, QQ)
            if not s["maximal"]:
                failures.append(f"{p}: not maximal")
            if s["witness_length"] != p.k + 1:
                failures.append(f"{p}: length {s['witness_length']} != {p.k + 1}")
        return failures

    _run(capsys, 5, "one-chain grid: maximal with witness length k+1", body)


def test_criterion_06_nilpotency_bound_with_samples(capsys):
    def body():
        failures = []
        for family in ("bkml", "bkm"):
            for p in _grid(family):
                s = summarize(family, p, QQ)
                if s["nilpotency"] != p.k + 2:
                    failures.append(
                        f"{family} {p}: nilpotency {s['nilpotency']} != {p.k + 2}"
                    )
                    continue
                if s["witness_length"] > s["nilpotency"] - 1:
                    failures.append(f"{family} {p}: witness exceeds bound")
                if not sampled_bound_ok(family, p, QQ):
                    failures.append(f"{family} {p}: a sampled system exceeds bound")
        return failures

    _run(
        capsys,
        6,
        "nilpotency k+2 bounds witness and 25 sampled lengths per tuple",
        body,
    )


def _word_oracle_corpus():
    corpus = [
        ("identity-only", GeneratingSystem((("I", Matrix.identity(4, QQ)),))),
        ("single-nilpotent", GeneratingSystem((("g", matrix_unit(2, 1, 2, QQ)),))),
    ]
    bkml_params = [p for n in range(1, 8) for p in valid_bkml_params(n)]
    bkml_params += [ConstructionParams(8, 1, 5, 2), ConstructionParams(9, 1, 5, 2)]
    for p in bkml_params:
        corpus.append((f"bkml-full-{p.n}-{p.m}-{p.l}-{p.k}", build_bkml(p, QQ)))
        corpus.append((f"bkml-witness-{p.n}-{p.m}-{p.l}-{p.k}", witness_system(p, QQ)))
    bkm_params = [p for n in range(1, 7) for p in valid_bkm_params(n)]
    bkm_params += [BkmParams(8, 1, 2), BkmParams(10, 3, 2)]
    for p in bkm_params:
        corpus.append((f"bkm-full-{p.n}-{p.m}-{p.k}", build_bkm(p, QQ)))
        corpus.append((f"bkm-witness-{p.n}-{p.m}-{p.k}", witness_system_bkm(p, QQ)))
    corpus.append(("gf7-one-chain", build_bkm(BkmParams(6, 1, 1), GF7)))
    target = algebra_closure(build_bkml(ConstructionParams(8, 1, 5, 2), QQ))
    for idx, (system, _) in enumerate(sample_generating_systems(target, 3, seed=3)):
        corpus.append((f"sampled-{idx}", system))
    return corpus


def test_criterion_07_word_enumeration_oracle(capsys):
    def body():
        failures = []
        for name, system in _word_oracle_corpus():
            spans = li_chain_spans(system)
            for i, span in enumerate(spans):
                words = enumerate_words(system, i)
                if span_of(words, n=system.n, field=system.field) != span:
                    failures.append(f"{name}: step {i}")
        return failures

    _run(
        capsys,
        7,
        "every chain step equals the span of enumerated words on the corpus",
        body,
    )


def test_criterion_08_relation_suite(capsys):
    def body():
        failures = []
        for family in ("bkml", "bkm"):
            for p in _grid(family):
                if not summarize(family, p, QQ)["relations_ok"]:
                    failures.append(f"{family} {p}")
        return failures

    _run(capsys, 8, "generator products vanish and chain powers match closed form", body)


def test_criterion_09_dimension_formulas(capsys):
    def body():
        failures = []
        for family in ("bkml", "bkm"):
            for p in _grid(family):
                s = summarize(family, p, QQ)
                if s["formula_dim"] != s["closure_dim"]:
                    failures.append(
                        f"{family} {p}: formula {s['formula_dim']} != closure {s['closure_dim']}"
                    )
        return failures

    _run(capsys, 9, "dimension formulas equal closure dimensions on both grids", body)


def test_criterion_10_field_independence(capsys):
    def body():
        failures = []
        for family in ("bkml", "bkm"):
            for p in _grid(family):
                prints = {
                    f.name: _fingerprint(summarize(family, p, f))
                    for f in ALL_FIELDS
                }
                reference = prints["rational"]
                for fname, fp in prints.items():
                    if fp != reference:
                        failures.append(f"{family} {p}: {fname} disagrees")
                for f in ALL_FIELDS:
                    if not sampled_bound_ok(family, p, f):
                        failures.append(
                            f"{family} {p}: sampled bound fails over {f.name}"
                        )
        return failures

    _run(
        capsys,
        10,
        "all grid dims and lengths agree over rationals, GF(2), GF(7), GF(32003)",
        body,
    )
