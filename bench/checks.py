"""Checks on the program's output documents, and their payload digests.

The checker re-derives what it compares against (dimension formulas, valid
tuple counts) from the paper's closed forms, not from the package, so a
defect in the package cannot also hide itself here.  Each check returns a
list of problems; an empty list means the document passed.
"""

from __future__ import annotations

import hashlib
import json


def dimension_bkml(n: int, m: int, l: int, k: int) -> int:
    """1 + 2k + (m+1)((l-m-k-1) + (n-l-k)), the two-chain algebra's dimension."""
    return 1 + 2 * k + (m + 1) * ((l - m - k - 1) + (n - l - k))


def dimension_bkm(n: int, m: int, k: int) -> int:
    """1 + k + m(n-m-k), the one-chain algebra's dimension."""
    return 1 + k + m * (n - m - k)


def valid_tuples(family: str, n: int) -> list:
    """Every valid parameter dict of a family at size n."""
    r = range(1, n + 1)
    if family == "bkml":
        return [
            {"n": n, "m": m, "l": l, "k": k}
            for m in r for l in r for k in r
            if l > m + k + 1 and l + k + 1 <= n
        ]
    return [{"n": n, "m": m, "k": k} for m in r for k in r if k + m + 1 <= n]


def expected_dimension(family: str, params: dict) -> int:
    if family == "bkml":
        return dimension_bkml(params["n"], params["m"], params["l"], params["k"])
    return dimension_bkm(params["n"], params["m"], params["k"])


def check_verify(doc: dict, family: str, params: dict, by_family: bool,
                 samples: int) -> list:
    """Problems in one verify document for a known construction.

    ``by_family`` says whether the tuple was given as family arguments
    (then the witness length k+1 is certified) or as an --in file.
    """
    problems = []
    dim = expected_dimension(family, params)
    if doc.get("algebra_dimension") != dim:
        problems.append(f"algebra_dimension {doc.get('algebra_dimension')} != {dim}")
    if doc.get("centralizer_dimension") != doc.get("algebra_dimension"):
        problems.append("centralizer_dimension != algebra_dimension")
    for key in ("maximal", "pass"):
        if doc.get(key) is not True:
            problems.append(f"{key} is {doc.get(key)!r}")
    if by_family and doc.get("witness_length") != params["k"] + 1:
        problems.append(f"witness_length {doc.get('witness_length')} != k+1")
    nil = doc.get("radical_nilpotency")
    if not isinstance(nil, int):
        problems.append("radical_nilpotency is null")
    if doc.get("bound_holds") is not True:
        problems.append(f"bound_holds is {doc.get('bound_holds')!r}")
    if samples:
        block = doc.get("samples") or {}
        lengths = block.get("lengths")
        if not isinstance(lengths, list) or len(lengths) != samples:
            problems.append(f"expected {samples} sampled lengths")
        elif isinstance(nil, int) and any(v > nil - 1 for v in lengths):
            problems.append(f"a sampled length exceeds N-1 = {nil - 1}")
    return problems


def check_sweep(doc: dict, family: str, ns, samples: int) -> list:
    """Problems in one sweep document over every valid tuple of sizes ns."""
    want = [t for n in ns for t in valid_tuples(family, n)]
    reports = doc.get("reports") or []
    problems = []
    if doc.get("summary") != {"pass": len(want), "fail": 0, "skipped": 0}:
        problems.append(f"summary {doc.get('summary')} for {len(want)} tuples")
    if [r.get("params") for r in reports] != want:
        problems.append("reports do not list every valid tuple in order")
        return problems
    for report, params in zip(reports, want):
        for p in check_verify(report, family, params, True, samples):
            problems.append(f"{params}: {p}")
    return problems


def strip_elapsed(obj):
    """The deterministic payload: obj without any elapsed_ms field."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def payload_digest(doc) -> str:
    text = json.dumps(strip_elapsed(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
