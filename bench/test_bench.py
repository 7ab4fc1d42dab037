"""Self-tests of the benchmark harness: run with ``python3 -m pytest -q bench``."""

import json
import random

import pytest

import subalg.cli as cli
from subalg import exact_linalg, lengths
from subalg.constructions import ConstructionParams, witness_system
from subalg.exact_linalg import QQ, PrimeField, Matrix, mat_mul

from checks import check_sweep, check_verify, payload_digest, valid_tuples
from run import another_pass, calibrated, tail
from tracing import Tracer, _mat_mul_hook, self_times
from workloads import CERTIFY_CLASSES, SAMPLE_CLASSES, WORKLOADS


# -- the percentile and sample-count rule ----------------------------------
def test_tail_has_ten_samples_beyond_it():
    values = list(range(100, 0, -1))
    t = tail(values)
    assert t == {"value": 90, "percentile": 90.0, "samples": 100}
    assert sum(v > t["value"] for v in values) == 10


def test_tail_needs_more_than_twenty_samples():
    assert tail([1.0] * 20) is None
    t = tail(list(range(21)))
    assert t["value"] == 10 and t["samples"] == 21
    assert t["percentile"] == pytest.approx(100 * 11 / 21)


# -- passes and the reference speed -----------------------------------------
def test_two_passes_run_whatever_the_time():
    assert another_pass(0, 0.0, 1, 0) and another_pass(1, 99.0, 1, 1)
    assert not another_pass(2, 99.0, 1, 0)


def test_passes_stop_before_the_time_is_up():
    assert another_pass(3, 30.0, 40, 0)  # a fourth ends at 40 s
    assert not another_pass(3, 30.0, 40, 1)  # the traced one would not
    assert not another_pass(4, 40.0, 45, 0)


def test_calibration_scales_by_the_loop_around_the_command():
    from run import REF_NOMINAL_S
    assert calibrated(3.0, REF_NOMINAL_S, REF_NOMINAL_S) == pytest.approx(3.0)
    assert calibrated(3.0, REF_NOMINAL_S / 2, REF_NOMINAL_S / 2) == pytest.approx(6.0)
    assert calibrated(3.0, REF_NOMINAL_S, 2 * REF_NOMINAL_S) == pytest.approx(2.0)


# -- self time of nested spans ---------------------------------------------
def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False]


def test_self_time_subtracts_children_once():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 4.0, 0),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("w1", 1.0, 6.0, 0),
        _span("w2", 4.0, 8.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_leaves_out_counter_hooks():
    spans = [_span("a", 0.0, 10.0, None), _span("b", 1.0, 4.0, 0)]
    assert self_times(spans, {0: 2.0, 1: 0.5}) == pytest.approx([5.0, 2.5])


def test_traced_spans_nest_and_sum_to_the_root():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(1000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert all(s[3] == 0 for s in tracer.spans[1:])
    selfs = self_times(tracer.spans)
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(selfs) == pytest.approx(root)
    assert all(v >= 0 for v in selfs)


# -- the checker rejects doctored reports ----------------------------------
PARAMS = {"n": 8, "m": 1, "l": 5, "k": 2}


@pytest.fixture(scope="module")
def verify_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "doc.json"
    argv = ["verify", "--family", "bkml", "--n", "8", "--m", "1", "--l", "5",
            "--k", "2", "--field", "gf:7", "--samples", "4", "--seed", "3",
            "--out", str(out)]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def test_checker_accepts_the_real_report(verify_doc):
    assert check_verify(verify_doc, "bkml", PARAMS, True, 4) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("maximal", False),
        ("pass", False),
        ("witness_length", 2),
        ("algebra_dimension", 13),
        ("centralizer_dimension", 15),
        ("radical_nilpotency", None),
        ("bound_holds", None),
    ],
)
def test_checker_rejects_a_doctored_report(verify_doc, key, value):
    doc = dict(verify_doc, **{key: value})
    assert check_verify(doc, "bkml", PARAMS, True, 4)


def test_checker_rejects_a_sampled_length_over_the_bound(verify_doc):
    nil = verify_doc["radical_nilpotency"]
    samples = dict(verify_doc["samples"], lengths=[1, 1, nil, 1])
    assert check_verify(dict(verify_doc, samples=samples), "bkml", PARAMS, True, 4)


def test_checker_rejects_a_short_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--family", "bkm", "--n", "5..6", "--field", "gf:7",
            "--samples", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert check_sweep(doc, "bkm", (5, 6), 2) == []
    doc["reports"].pop()
    doc["summary"]["pass"] -= 1
    assert check_sweep(doc, "bkm", (5, 6), 2)


def test_payload_digest_ignores_elapsed_ms(verify_doc):
    other = dict(verify_doc, elapsed_ms=verify_doc["elapsed_ms"] + 1)
    assert payload_digest(other) == payload_digest(verify_doc)
    assert payload_digest(dict(verify_doc, witness_length=9)) != payload_digest(verify_doc)


# -- counting wrappers leave results unchanged -----------------------------
def _random_matrix(rng, n, field):
    return Matrix.from_rows(
        [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)], field
    )


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_counting_mat_mul_matches_the_unwrapped_call(field):
    rng = random.Random(5)
    tracer = Tracer()
    counted = tracer.counted("exact_linalg.mat_mul.calls", mat_mul, _mat_mul_hook)
    visits = useful = 0
    for _ in range(5):
        a, b = _random_matrix(rng, 5, field), _random_matrix(rng, 5, field)
        assert counted(a, b) == mat_mul(a, b)
        for i in range(5):
            for k in range(5):
                if a.rows[i][k]:
                    visits += 5
                    useful += sum(1 for v in b.rows[k] if v)
    assert tracer.counts["exact_linalg.mat_mul.calls"] == 5
    assert tracer.counts["exact_linalg.mat_mul.entry_visits"] == visits
    assert tracer.counts["exact_linalg.mat_mul.useful"] == useful
    assert 0 < useful < visits
    assert not tracer.hook_errors


def test_install_wraps_every_binding_and_uninstall_restores():
    original = exact_linalg.mat_mul
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert exact_linalg.mat_mul is not original
        assert lengths.mat_mul is exact_linalg.mat_mul
        a = Matrix.identity(4, QQ)
        assert exact_linalg.mat_mul(a, a) == original(a, a)
        assert tracer.counts["exact_linalg.mat_mul.calls"] == 1
    finally:
        tracer.uninstall()
    assert exact_linalg.mat_mul is original and lengths.mat_mul is original


def test_a_failing_counter_hook_leaves_the_call_alone():
    def broken(counts, args, result):
        raise KeyError("changed shape")

    tracer = Tracer()
    wrapped = tracer.counted("calls", lambda x: x + 1, broken)
    assert wrapped(1) == 2
    assert tracer.counts["calls"] == 1
    assert tracer.hook_errors == {"broken: KeyError('changed shape')"}
    assert tracer.spans == []


def test_chain_insert_count_matches_the_echelon():
    system = witness_system(ConstructionParams(8, 1, 5, 2), QQ)
    inserts = []
    real_insert = exact_linalg._Echelon.insert
    exact_linalg._Echelon.insert = lambda self, vec: inserts.append(1) or real_insert(self, vec)
    try:
        tracer = Tracer()
        tracer.install()
        try:
            lengths.li_chain(system)
        finally:
            tracer.uninstall()
    finally:
        exact_linalg._Echelon.insert = real_insert
    assert tracer.counts["lengths.chain.inserts"] == len(inserts)
    assert tracer.counts["lengths.chain.runs"] == 1


def test_traced_parallel_sweep_brings_worker_spans_home(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        argv = ["sweep", "--family", "bkm", "--n", "5", "--field", "gf:7",
                "--samples", "1", "--jobs", "2", "--out", str(tmp_path / "s.json")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    tasks = [s for s in tracer.spans if s[0] == "cli.sweep.task"]
    assert len(tasks) == 6 and all(s[5] for s in tasks)
    assert any(s[0] == "commute.centralizer" and s[5] for s in tracer.spans)
    assert json.loads((tmp_path / "s.json").read_text())["summary"]["pass"] == 6


# -- workload plans ---------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plans_repeat_per_seed(name, tmp_path):
    w = WORKLOADS[name]
    a = w.plan(random.Random(7), str(tmp_path))
    assert a == w.plan(random.Random(7), str(tmp_path))
    assert len({c.key for c in a}) == len(a)


@pytest.mark.parametrize("classes", [CERTIFY_CLASSES, SAMPLE_CLASSES])
def test_tuple_classes_hold_valid_tuples(classes):
    for family, pool in classes:
        assert len(pool) >= 2
        valid = valid_tuples(family, pool[0]["n"])
        assert all(t in valid for t in pool)
