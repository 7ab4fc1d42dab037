import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import subalg.cli as cli
import subalg.constructions as constructions
import subalg.exact_linalg as exact_linalg
import subalg.lengths as lengths
import subalg.radical as radical
from subalg import (
    QQ,
    BkmParams,
    GeneratingSystem,
    Matrix,
    NotLocalForm,
    PrimeField,
    build_bkm,
    matrix_unit,
)
from subalg.cli import main
from subalg.jsonio import dumps, system_to_dict
from subalg.radical import Algebra
from subalg.verify import verify_system


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def without_timing(doc):
    doc = json.loads(json.dumps(doc))
    if isinstance(doc, dict):
        doc.pop("elapsed_ms", None)
        for r in doc.get("reports") or []:
            r.pop("elapsed_ms", None)
    return doc


def test_construct_writes_deterministic_json(capsys, tmp_path):
    argv = ("construct", "--family", "bkml", "--n", "8", "--m", "1", "--l", "5", "--k", "2")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n"] == 8
    assert [g["label"] for g in doc["generators"]] == sorted(
        g["label"] for g in doc["generators"]
    )
    out_path = tmp_path / "sys.json"
    rc3, out3, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert rc3 == 0 and out3 == ""
    assert out_path.read_text(encoding="utf-8") == out1


def test_construct_rejects_bad_params(capsys):
    rc, out, err = run_cli(
        capsys, "construct", "--family", "bkml", "--n", "8", "--m", "1", "--l", "4", "--k", "2"
    )
    assert rc == 2
    assert "violated" in err
    assert out == ""


def test_construct_rejects_bad_field(capsys):
    rc, _, _ = run_cli(capsys, "construct", "--n", "8", "--field", "gf:10")
    assert rc == 2


def test_verify_family_passes(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify", "--family", "bkml",
        "--n", "8", "--m", "1", "--l", "5", "--k", "2",
        "--samples", "3",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["algebra_dimension"] == 9
    assert doc["maximal"] is True
    assert doc["centralizer_dimension"] == 9
    assert doc["length_certified"] == 3
    assert doc["witness_length"] == 3
    assert doc["witness_chain_dims"] == [1, 5, 7, 9, 9]
    assert doc["radical_nilpotency"] == 4
    assert doc["bound_holds"] is True
    assert doc["samples"]["count"] == 3
    assert doc["samples"]["all_within_bound"] is True
    assert doc["params"] == {"n": 8, "m": 1, "l": 5, "k": 2}


def test_verify_is_deterministic_up_to_timing(capsys):
    argv = (
        "verify", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2",
        "--samples", "4", "--seed", "11",
    )
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert without_timing(json.loads(out1)) == without_timing(json.loads(out2))


def test_verify_bkm_reference(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2",
        "--samples", "0",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["algebra_dimension"] == 8
    assert doc["witness_length"] == 3
    assert doc["samples"] is None


def test_verify_file_of_noncommuting_generators_fails(capsys, tmp_path):
    bad = GeneratingSystem(
        (("a", matrix_unit(2, 1, 2, QQ)), ("b", matrix_unit(2, 2, 1, QQ)))
    )
    path = tmp_path / "bad.json"
    path.write_text(dumps(system_to_dict(bad)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert rc == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["commutative"] is False
    assert doc["family"] is None
    assert doc["length_certified"] is None


def test_verify_file_from_construct_passes(capsys, tmp_path):
    path = tmp_path / "bkm.json"
    rc, _, _ = run_cli(
        capsys, "construct", "--family", "bkm", "--n", "6", "--m", "1", "--k", "1",
        "--out", str(path),
    )
    assert rc == 0
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path), "--samples", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["maximal"] is True


def test_verify_needs_input_or_params(capsys):
    rc, _, err = run_cli(capsys, "verify")
    assert rc == 2
    assert "verify needs" in err


def test_length_report_with_word_check(capsys, tmp_path, witness_8152):
    path = tmp_path / "witness.json"
    path.write_text(dumps(system_to_dict(witness_8152)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "length", "--in", str(path), "--check-words")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dims"] == [1, 5, 7, 9, 9]
    assert doc["stabilization_step"] == 4
    assert doc["length"] == 3
    assert doc["target_dimension"] == 9
    assert doc["word_oracle"] == "verified"


def test_length_missing_file_is_usage_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "length", "--in", str(tmp_path / "absent.json"))
    assert rc == 2
    assert "cannot read" in err


def test_length_word_budget_is_enforced(capsys, monkeypatch, tmp_path, full_8152):
    monkeypatch.setattr(cli, "MAX_WORD_BUDGET", 10)
    path = tmp_path / "full.json"
    path.write_text(dumps(system_to_dict(full_8152)), encoding="utf-8")
    rc, _, err = run_cli(capsys, "length", "--in", str(path), "--check-words")
    assert rc == 2
    assert "words exceed the budget of 10" in err


def test_length_takes_no_word_budget_option(capsys, monkeypatch, tmp_path, full_8152):
    """The budget is the constant MAX_WORD_BUDGET; there is no flag to set it."""
    monkeypatch.setattr(cli, "_word_steps", lambda *a, **k: pytest.fail("enumerated"))
    path = tmp_path / "full.json"
    path.write_text(dumps(system_to_dict(full_8152)), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "length", "--in", str(path), "--check-words", "--word-budget", "5"
    )
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --word-budget 5" in err
    assert "Traceback" not in err
    assert cli.MAX_WORD_BUDGET == 1_000_000


def test_word_budget_is_checked_before_any_word_is_formed(
    capsys, monkeypatch, tmp_path
):
    """bkm (16,1,5) over GF(7) has 12 members and stabilizes at step 6, so
    its top step has 12**6 > 10**6 words; it is refused before step 0."""
    path = tmp_path / "bkm.json"
    system = build_bkm(BkmParams(16, 1, 5), PrimeField(7))
    path.write_text(dumps(system_to_dict(system)), encoding="utf-8")
    products = _count_calls(monkeypatch, exact_linalg.mat_mul)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "length", "--in", str(path), "--check-words")
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert "12**6 words exceed the budget of 1000000" in err
    assert products == []


def test_centralizer_from_family(capsys):
    rc, out, _ = run_cli(
        capsys, "centralizer", "--family", "bkm", "--n", "6", "--m", "1", "--k", "1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["dimension"] == 6
    assert [b["label"] for b in doc["basis"]] == [f"c{i}" for i in range(1, 7)]


def test_centralizer_from_file(capsys, tmp_path):
    sys_doc = system_to_dict(
        GeneratingSystem((("g", matrix_unit(3, 1, 2, QQ)),))
    )
    path = tmp_path / "one.json"
    path.write_text(dumps(sys_doc), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "centralizer", "--in", str(path))
    assert rc == 0
    assert json.loads(out)["dimension"] == 5


def test_sweep_filtered_grid(capsys):
    rc, out, err = run_cli(
        capsys, "sweep", "--family", "bkml", "--n", "6..7", "--samples", "2"
    )
    assert rc == 0
    doc = json.loads(out)
    got = [tuple(r["params"].values()) for r in doc["reports"]]
    assert [(p["n"], p["m"], p["l"], p["k"]) for p in (r["params"] for r in doc["reports"])] == [
        (6, 1, 4, 1),
        (7, 1, 4, 1),
        (7, 1, 5, 1),
        (7, 2, 5, 1),
    ]
    assert doc["skipped"] == []
    assert doc["summary"] == {"pass": 4, "fail": 0, "skipped": 0}
    assert "sweep: pass 4 fail 0 skipped 0" in err
    assert got  # params listed in lexicographic order


def test_sweep_explicit_grid_reports_skips(capsys):
    rc, out, _ = run_cli(
        capsys,
        "sweep", "--family", "bkml",
        "--n", "8", "--m", "1,2", "--l", "5", "--k", "2",
        "--samples", "0",
    )
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["params"] == {"n": 8, "m": 1, "l": 5, "k": 2}
    assert len(doc["skipped"]) == 1
    assert doc["skipped"][0]["params"] == {"n": 8, "m": 2, "l": 5, "k": 2}
    assert "violated" in doc["skipped"][0]["reason"]


def test_sweep_with_no_valid_tuples(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--family", "bkml", "--n", "5")
    assert rc == 2
    assert "no valid" in err


def test_sweep_explicit_grid_with_no_valid_tuples_names_the_violation(capsys, tmp_path):
    target = tmp_path / "sweep.json"
    rc, out, err = run_cli(
        capsys,
        "sweep", "--family", "bkm", "--n", "6", "--m", "1..2", "--k", "9",
        "--out", str(target),
    )
    assert rc == 2
    assert out == "" and not target.exists()
    assert "no valid" in err
    assert "k+m+1 <= n violated" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "1", "--k", "2", "--samples", "0"),
        ("construct", "--m", "1", "--k", "2"),
        ("centralizer", "--m", "1", "--k", "2"),
        ("sweep", "--m", "1", "--k", "2", "--samples", "0"),
        ("sweep", "--samples", "0"),
    ],
    ids=["verify", "construct", "centralizer", "sweep", "sweep-filtered"],
)
def test_family_bkm_refuses_l(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep with a stray --l enumerated its tuples")

    monkeypatch.setattr(cli, "valid_bkm_params", unreachable)
    monkeypatch.setattr(cli, "_PARAMS", {"bkml": unreachable, "bkm": unreachable})
    command, *rest = argv
    rc, out, err = run_cli(
        capsys, command, "--family", "bkm", "--n", "8", "--l", "2", *rest
    )
    assert (rc, out) == (2, "")
    assert "family bkm takes no --l" in err


def test_sweep_parallel_matches_serial(capsys):
    argv = ("sweep", "--family", "bkm", "--n", "4..5", "--samples", "1")
    rc1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    rc2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert without_timing(json.loads(out1)) == without_timing(json.loads(out2))


def _cli_env() -> dict:
    """The environment with the package under test on PYTHONPATH, also when
    pytest alone put src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("subalg")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "subalg.cli"]
    proc = subprocess.run(
        cmd + ["construct", "--family", "bkm", "--n", "4", "--m", "1", "--k", "1"],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4
    assert {g["label"] for g in doc["generators"]} >= {"I", "B"}


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the tasks
    of each call a worker would get, maps in-process."""

    workers: list = []
    calls: list = []

    def __init__(self, max_workers):
        _SerialPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        tasks = list(tasks)
        _SerialPool.calls = [
            tasks[i : i + chunksize] for i in range(0, len(tasks), chunksize)
        ]
        return map(fn, tasks)


@pytest.fixture
def serial_pool(monkeypatch):
    _SerialPool.workers = []
    _SerialPool.calls = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    return _SerialPool


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_turns_a_raising_tuple_into_a_failing_report(
    capsys, monkeypatch, serial_pool, jobs
):
    real = cli._family_report

    def flaky(family, params, field, samples, seed):
        if params == constructions.BkmParams(5, 1, 2):
            raise NotLocalForm("no local form")
        return real(family, params, field, samples, seed)

    monkeypatch.setattr(cli, "_family_report", flaky)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    rc, out, err = run_cli(
        capsys, "sweep", "--family", "bkm", "--n", "5", "--samples", "0", "--jobs", jobs
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["summary"] == {"pass": 5, "fail": 1, "skipped": 0}
    assert [r["params"] for r in doc["reports"]] == [
        {"n": 5, "m": m, "k": k} for m, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
    ]
    assert doc["reports"][1] == {
        "family": "bkm",
        "params": {"n": 5, "m": 1, "k": 2},
        "field": "rational",
        "error": "NotLocalForm: no local form",
        "pass": False,
    }
    assert "sweep: pass 5 fail 1 skipped 0" in err
    assert serial_pool.workers == ([] if jobs == "1" else [2])


def test_sweep_caps_jobs_at_tasks_and_cpus(capsys, monkeypatch, serial_pool):
    three = ("sweep", "--family", "bkm", "--n", "4", "--samples", "0")  # 3 tuples
    for cpus, argv, want in (
        (2, three + ("--jobs", "64"), [2]),
        (8, three + ("--jobs", "64"), [3]),
        (8, three + ("--jobs", "2"), [2]),
        (None, three + ("--jobs", "64"), []),
        (8, ("sweep", "--family", "bkm", "--n", "3", "--samples", "0", "--jobs", "8"), []),
    ):
        serial_pool.workers = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda c=cpus: c)
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert serial_pool.workers == want, (cpus, argv)


@pytest.mark.parametrize("jobs", [2, 3])
def test_sweep_hands_each_worker_one_strided_batch(
    capsys, monkeypatch, serial_pool, jobs
):
    """A deterministic count in place of a timing: the pool gets one call
    per worker, worker w the size-sorted tasks w, w + jobs, ..., and the
    reports come back in input order, as a serial sweep writes them."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    argv = ("sweep", "--family", "bkm", "--n", "5", "--samples", "1")  # 6 tuples
    rc, out, _ = run_cli(capsys, *argv, "--jobs", str(jobs))
    assert rc == 0
    tasks = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert serial_pool.workers == [jobs]
    assert [[(t[1].m, t[1].k) for t in call] for call in serial_pool.calls] == [
        tasks[w::jobs] for w in range(jobs)
    ]
    _, serial, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert without_timing(json.loads(out)) == without_timing(json.loads(serial))


def test_verify_file_with_unchecked_bound_fails(capsys, tmp_path):
    """span{I, E11} in M_2 is maximal but not local (its radical is 0), so
    the bound goes unchecked and fails."""
    diagonal = GeneratingSystem(
        (("I", Matrix.identity(2, QQ)), ("E11", matrix_unit(2, 1, 1, QQ)))
    )
    path = tmp_path / "diagonal.json"
    path.write_text(dumps(system_to_dict(diagonal)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path), "--samples", "3")
    assert rc == 1
    doc = json.loads(out)
    assert doc["maximal"] is True
    assert doc["radical_nilpotency"] is None
    assert doc["bound_holds"] is None
    assert doc["samples"] is None
    assert doc["pass"] is False


def test_verify_file_of_conjugated_witness_passes(capsys, tmp_path, witness_8152):
    """The witness conjugated by P = I + E(2,1): its RREF basis no longer
    shows the identity line apart from the radical, yet the radical is
    found and the bound checked."""
    p = Matrix.identity(8, QQ) + matrix_unit(8, 2, 1, QQ)
    p_inv = Matrix.identity(8, QQ) - matrix_unit(8, 2, 1, QQ)
    conjugated = GeneratingSystem(
        tuple((label, p * m * p_inv) for label, m in witness_8152.members)
    )
    path = tmp_path / "conjugated.json"
    path.write_text(dumps(system_to_dict(conjugated)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path), "--samples", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["maximal"] is True
    assert doc["radical_nilpotency"] == 4
    assert doc["bound_holds"] is True
    assert doc["samples"]["count"] == 3
    assert doc["samples"]["all_within_bound"] is True
    assert doc["pass"] is True


def test_verify_unreadable_input_is_usage_error(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "verify", "--in", str(tmp_path))
    assert (rc, out) == (2, "")
    assert "cannot read" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"field": "rational", "n": 2, "admit_empty_word": true, '
                       '"generators": [{"label": "\xe9", "entries": []}]}'.encode("latin-1"))
    rc, out, err = run_cli(capsys, "verify", "--in", str(latin1))
    assert (rc, out) == (2, "")
    assert "not UTF-8" in err


@pytest.mark.parametrize("command", ["verify", "length", "centralizer"])
def test_deeply_nested_input_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    rc, out, err = run_cli(capsys, command, "--in", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_verify_refuses_rational_literal_with_exponent_quickly(capsys, tmp_path):
    # Eighteen bytes that an exponent-reading parser turns into a
    # ten-million-digit integer.
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({
        "n": 2, "field": "rational", "admit_empty_word": True,
        "generators": [{"label": "a", "entries": [[1, 2, "1e10000000"]]}],
    }))
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert "bad value '1e10000000'" in err
    assert "Traceback" not in err


HUGE_PRIME = 10**18 + 3


@pytest.mark.parametrize("source", ["flag", "file"])
def test_modulus_above_the_maximum_is_refused_quickly(tmp_path, source):
    # A prime whose trial-division test would take minutes.
    field = f"gf:{HUGE_PRIME}"
    if source == "flag":
        argv = ["--family", "bkml", "--n", "8", "--m", "1", "--l", "5", "--k", "2"]
        argv += ["--field", field, "--samples", "0"]
    else:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 2, "field": field, "admit_empty_word": True,
            "generators": [{"label": "a", "entries": [[1, 2, "1"]]}],
        }))
        argv = ["--in", str(path)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "subalg.cli", "verify", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=30,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"modulus {HUGE_PRIME} exceeds the supported maximum" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["1_000", " 3 ", "\u0663", "+5/ 2", "1/7"])
def test_verify_refuses_prime_field_literal_outside_the_grammar(capsys, tmp_path, value):
    path = tmp_path / "gf7.json"
    path.write_text(json.dumps({
        "n": 2, "field": "gf:7", "admit_empty_word": True,
        "generators": [{"label": "a", "entries": [[1, 2, value]]}],
    }))
    rc, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (rc, out) == (2, "")
    assert f"bad value {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "field", ["gf: 7", "gf:+7", "gf:7 ", "gf:0007", "gf:\u0667", "gf:1_9"]
)
def test_field_descriptor_outside_its_canonical_spelling_is_refused(
    capsys, tmp_path, source, field
):
    # int() reads every one of these as 7 (or 19), yet only "gf:7" names GF(7)
    if source == "flag":
        argv = ["--family", "bkm", "--n", "4", "--m", "1", "--k", "1"]
        argv += ["--field", field, "--samples", "0"]
    else:
        path = tmp_path / "field.json"
        path.write_text(json.dumps({
            "n": 2, "field": field, "admit_empty_word": True,
            "generators": [{"label": "a", "entries": [[1, 2, "1"]]}],
        }))
        argv = ["--in", str(path)]
    rc, out, err = run_cli(capsys, "verify", *argv)
    assert (rc, out) == (2, "")
    assert f"bad field descriptor {field!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["rational", "gf:2", "gf:3", "gf:32003"])
def test_verify_file_of_noncommutative_local_algebra(capsys, tmp_path, field):
    """span{I, E12, E23} in M_3 is local with radical span{E12, E13, E23},
    whose cube is zero, on every field; over GF(3) the trace, being
    3 * chi, would find no radical."""
    f = exact_linalg.field_from_name(field)
    system = GeneratingSystem((
        ("I", Matrix.identity(3, f)),
        ("E12", matrix_unit(3, 1, 2, f)),
        ("E23", matrix_unit(3, 2, 3, f)),
    ))
    path = tmp_path / "upper.json"
    path.write_text(dumps(system_to_dict(system)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path), "--samples", "0")
    doc = json.loads(out)
    assert (doc["field"], doc["commutative"]) == (field, False)
    assert (doc["radical_nilpotency"], doc["bound_holds"]) == (3, True)
    assert (rc, doc["pass"]) == (1, False)


@pytest.mark.parametrize("field", ["rational", "gf:2", "gf:3", "gf:32003"])
def test_verify_file_of_exterior_algebra_compares_products_by_value(
    capsys, tmp_path, field
):
    """The exterior algebra of F^2 as its left multiplications in M_4, on
    the basis 1, e1, e2, e12: e1 * e2 = e12 and e2 * e1 = -e12 are both
    nonzero, so only their values show that it commutes over GF(2) alone.
    Its radical span{e1, e2, e12} has powers of dims (3, 1, 0) on every
    field."""
    f = exact_linalg.field_from_name(field)
    # L_e1: 1 -> e1, e2 -> e12; L_e2: 1 -> e2, e1 -> -e12
    l_e1 = Matrix.from_rows([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], f)
    l_e2 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]], f)
    system = GeneratingSystem((("L_e1", l_e1), ("L_e2", l_e2)))
    assert verify_system(system).radical.power_dims == (3, 1, 0)
    path = tmp_path / "exterior.json"
    path.write_text(dumps(system_to_dict(system)), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "verify", "--in", str(path))
    doc = json.loads(out)
    assert (doc["algebra_dimension"], doc["radical_nilpotency"]) == (4, 3)
    if field == "gf:2":
        assert (doc["commutative"], doc["maximal"], doc["witness_length"]) == (
            True, True, 2,
        )
        assert (rc, doc["pass"]) == (0, True)
    else:
        assert (doc["commutative"], doc["maximal"]) == (False, False)
        assert (rc, doc["pass"]) == (1, False)


@pytest.mark.parametrize("spelling", ["1_0", "+8", " 8", "08", "\u0668"])
@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "bkm", "--n", "{}", "--m", "1", "--k", "1"),
        ("construct", "--family", "bkm", "--n", "10", "--m", "{}", "--k", "1"),
        ("verify", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2", "--samples", "{}"),
        ("verify", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2", "--seed", "{}"),
        ("sweep", "--family", "bkm", "--n", "4", "--samples", "0", "--seed", "{}"),
        ("sweep", "--family", "bkm", "--n", "4", "--samples", "0", "--jobs", "{}"),
        ("sweep", "--family", "bkm", "--n", "4..{}", "--samples", "0"),
        ("sweep", "--family", "bkm", "--n", "4,{}", "--samples", "0"),
    ],
)
def test_integer_flags_take_only_canonical_spellings(capsys, argv, spelling):
    """int() would take each spelling as 8 or 10; a flag takes an integer
    only as str() writes it."""
    rc, out, err = run_cli(capsys, *(a.format(spelling) for a in argv))
    assert (rc, out) == (2, "")
    assert f"not an integer: {spelling!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2", "--samples", "-3"),
        ("sweep", "--family", "bkm", "--n", "4", "--samples", "-3"),
        ("sweep", "--family", "bkm", "--n", "4", "--samples", "0", "--jobs", "-4"),
        ("sweep", "--family", "bkm", "--n", "4", "--samples", "0", "--jobs", "0"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "must be >=" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "bkm", "--n", "100000", "--m", "1", "--k", "1"),
        ("verify", "--family", "bkm", "--n", "257", "--m", "1", "--k", "1"),
        ("centralizer", "--family", "bkm", "--n", "257", "--m", "1", "--k", "1"),
        ("sweep", "--family", "bkm", "--n", "5000", "--samples", "0"),
        ("sweep", "--family", "bkm", "--n", "6..10000000000000", "--samples", "0"),
        ("sweep", "--family", "bkm", "--n", "6,257", "--samples", "0"),
        ("sweep", "--family", "bkm", "--n=-1000000000..8", "--samples", "0"),
    ],
)
def test_family_n_above_max_n_is_refused_before_building(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused n reached the construction")

    monkeypatch.setattr(cli, "_build_family", unreachable)
    monkeypatch.setattr(cli, "valid_bkm_params", unreachable)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "exceeds the supported maximum 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "bkm", "--n", "6", "--m", "1", "--k", "1..100000000000"),
        ("--family", "bkm", "--n", "6", "--m", "1,257", "--k", "1"),
        ("--family", "bkml", "--n", "8", "--m", "1", "--l", "257", "--k", "2"),
    ],
)
def test_sweep_parameter_ranges_above_max_n_are_refused(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("swept"))
    rc, out, err = run_cli(capsys, "sweep", *argv, "--samples", "0")
    assert (rc, out) == (2, "")
    assert "exceeds the supported maximum 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "bkml", "--n", "1..256"),
        ("--family", "bkml", "--n", "8", "--m", "1..256", "--l", "1..256", "--k", "1..256"),
        ("--family", "bkm", "--n", "1..67"),
    ],
)
def test_sweep_walking_too_many_combinations_is_refused_before_enumerating(
    capsys, monkeypatch, argv
):
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized sweep enumerated its tuples")

    monkeypatch.setattr(cli, "valid_bkml_params", unreachable)
    monkeypatch.setattr(cli, "valid_bkm_params", unreachable)
    monkeypatch.setattr(cli, "_PARAMS", {"bkml": unreachable, "bkm": unreachable})
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "sweep", *argv, "--samples", "0")
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert f"above the supported maximum {cli.MAX_SWEEP_COMBINATIONS}" in err


def test_family_n_at_max_n_is_accepted():
    parser = cli._build_parser()
    args = parser.parse_args(["construct", "--n", "256", "--m", "1", "--k", "1"])
    assert args.n == cli.MAX_N == 256
    args = parser.parse_args(["sweep", "--n", "250..256"])
    assert args.n == tuple(range(250, 257))


def _count_calls(monkeypatch, real):
    """Records the first argument of each call of a package function, at
    every module binding of it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "subalg" or name.startswith("subalg."):
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, counting)
    return calls


def _plan_chain_runs(monkeypatch):
    """Records (algebra, plan, result) of each plan the sampler screens."""
    runs = []
    real = lengths._plan_chain

    def recording(alg, plan):
        report = real(alg, plan)
        runs.append((alg, plan, report))
        return report

    monkeypatch.setattr(lengths, "_plan_chain", recording)
    return runs


@pytest.fixture
def chain_runs(monkeypatch):
    """Counts span-chain runs, wherever in the package they are started."""
    return _count_calls(monkeypatch, lengths._chain)


def test_verify_runs_each_chain_once(
    capsys, monkeypatch, tmp_path, full_8152, chain_runs
):
    """The system's closure chain runs in n*n coordinates, the witness's on
    the closure's table, each once."""
    coord_chains = _count_calls(monkeypatch, lengths._coord_chain)
    path = tmp_path / "full.json"
    path.write_text(dumps(system_to_dict(full_8152)), encoding="utf-8")
    rc, _, _ = run_cli(capsys, "verify", "--in", str(path), "--samples", "0")
    assert rc == 0
    assert (len(chain_runs), len(coord_chains)) == (1, 0)
    chain_runs.clear()
    rc, _, _ = run_cli(
        capsys, "verify", "--family", "bkml",
        "--n", "8", "--m", "1", "--l", "5", "--k", "2", "--samples", "0",
    )
    assert rc == 0
    assert [s.labels[:2] for s in chain_runs] == [("I", "B1")]
    assert len(coord_chains) == 1


@pytest.mark.parametrize(
    "family, args",
    [
        ("bkml", ("--n", "8", "--m", "1", "--l", "5", "--k", "2")),
        ("bkm", ("--n", "8", "--m", "2", "--k", "3")),
    ],
)
def test_verify_family_builds_its_system_once(capsys, monkeypatch, family, args):
    """The witness is filtered from the full system already built, so one
    ``verify --family`` builds the family's system exactly once."""
    two_chain = _count_calls(monkeypatch, constructions.build_bkml)
    one_chain = _count_calls(monkeypatch, constructions.build_bkm)
    rc, _, _ = run_cli(capsys, "verify", "--family", family, *args, "--samples", "0")
    assert rc == 0
    assert len(two_chain) + len(one_chain) == 1


def test_verify_builds_one_table_and_samples_without_matrices(
    capsys, monkeypatch, full_8152
):
    # one Algebra per verify call, whose radical (one character) is found
    # once for the bound and the samples together
    tables = []
    real_init = Algebra.__init__
    monkeypatch.setattr(
        Algebra,
        "__init__",
        lambda self, *a, **k: tables.append(a[0]) or real_init(self, *a, **k),
    )
    radicals = _count_calls(monkeypatch, radical._character)
    rc, _, _ = run_cli(
        capsys, "verify", "--family", "bkml",
        "--n", "8", "--m", "1", "--l", "5", "--k", "2", "--samples", "5",
    )
    assert rc == 0
    assert (len(tables), len(radicals)) == (1, 1)

    closure = lengths.algebra_closure(full_8152)
    coords = Algebra(closure)
    products = _count_calls(monkeypatch, lengths._vec_mul)
    chains = _count_calls(monkeypatch, lengths._chain)
    coord_chains = _count_calls(monkeypatch, lengths._coord_chain)
    candidates = _count_calls(monkeypatch, lengths._plan)
    screened = _plan_chain_runs(monkeypatch)
    pairs = lengths._sample_reports(coords, 5, seed=5)
    assert len(pairs) == 5
    assert len(candidates) > 5
    # every candidate is screened once, and only the 5 accepted ones chained
    assert len(screened) == len(candidates)
    assert sum(1 for *_, report in screened if report is not None) == 5
    assert (len(products), len(chains), len(coord_chains)) == (0, 0, 0)
    lengths.sample_generating_systems(closure, 5, seed=5)
    # the table forms row_p * row_q only when a column of row_p is a
    # nonempty row of row_q; every other basis product is zero
    n = closure.n
    basis = list(closure.pivot_rows.values())
    cols = [{c % n for c in row} for row in basis]
    nonempty_rows = [{c // n for c in row} for row in basis]
    overlapping = sum(1 for cp in cols for rq in nonempty_rows if cp & rq)
    assert 0 < overlapping < closure.dim**2
    assert len(products) == overlapping


def test_verify_runs_one_coordinate_chain_per_sample(capsys, monkeypatch):
    """Each candidate is screened once and 25 of them are chained, on the
    annihilator of L_i; the witness alone runs ``_coord_chain``."""
    candidates = _count_calls(monkeypatch, lengths._plan)
    coord_chains = _count_calls(monkeypatch, lengths._coord_chain)
    screened = _plan_chain_runs(monkeypatch)
    rc, out, _ = run_cli(
        capsys, "verify", "--family", "bkml", "--n", "8", "--m", "1", "--l", "5",
        "--k", "2", "--field", "gf:7", "--samples", "25", "--seed", "2",
    )
    assert rc == 0
    assert json.loads(out)["samples"]["count"] == 25
    assert sum(1 for *_, report in screened if report is not None) == 25
    assert len(screened) == len(candidates) > 25
    assert len(coord_chains) == 1


@pytest.mark.parametrize(
    "family",
    [
        ("bkml", "--n", "8", "--m", "1", "--l", "5", "--k", "2"),
        ("bkm", "--n", "8", "--m", "2", "--k", "2"),
    ],
    ids=["bkml", "bkm"],
)
def test_verify_samples_build_no_matrix_and_no_row_refused_by_count(
    capsys, monkeypatch, family
):
    """A deterministic work count in place of a wall-clock gate: verify's
    samples become no matrix, no plan has fewer members than the rank
    modulo F*I + J^2, each plan is screened once, and rows are built once
    each, only for the accepted plans whose chain forms a product, those
    whose L_1 is not yet A.  At bkm (8,2,2) that rank is above ceil(d/2)."""
    matrices = []
    real_matrix = Algebra.matrix
    monkeypatch.setattr(
        Algebra,
        "matrix",
        lambda self, x: matrices.append(x) or real_matrix(self, x),
    )
    plans = []
    real_plan = lengths._plan
    monkeypatch.setattr(
        lengths, "_plan", lambda *a: plans.append(real_plan(*a)) or plans[-1]
    )
    rows = _count_calls(monkeypatch, lengths._plan_row)
    screened = _plan_chain_runs(monkeypatch)
    rc, out, _ = run_cli(
        capsys, "verify", "--family", *family, "--field", "gf:7", "--samples", "25",
    )
    assert rc == 0
    assert json.loads(out)["samples"]["count"] == 25
    assert matrices == []
    alg = screened[0][0]
    rank = alg.d - len(alg.modulus)
    assert min(len(p.chosen) for p in plans) >= rank
    assert [plan for _, plan, _ in screened] == plans
    accepted = [(p, report) for _, p, report in screened if report is not None]
    assert len(accepted) == 25
    # rows only where a product needs them: L_1 is not yet A
    chained = [p for p, report in accepted if report.dims[1] < alg.d]
    assert 0 < len(chained) < 25
    assert len(rows) == sum(len(p.chosen) for p in chained)


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_samples_above_max_samples_are_refused(capsys, monkeypatch, command):
    monkeypatch.setattr(lengths, "_plan", lambda *a: pytest.fail("sampled"))
    t0 = time.perf_counter()
    rc, out, err = run_cli(
        capsys, command, "--family", "bkm", "--n", "8", "--m", "1", "--k", "2",
        "--samples", "1000000000",
    )
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert f"exceeds the supported maximum {cli.MAX_SAMPLES}" in err
    assert "Traceback" not in err
    assert cli.MAX_SAMPLES == 10_000
