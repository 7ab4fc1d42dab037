import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    GeneratingSystem,
    InvalidGeneratorFile,
    Matrix,
    PrimeField,
    build_bkm,
    build_bkml,
    matrix_unit,
)
import subalg
from subalg.cli import main
from subalg.jsonio import (
    MAX_N,
    dumps,
    load_system,
    matrix_entries,
    system_from_dict,
    system_to_dict,
)


def test_matrix_entries_are_sparse_and_sorted():
    m = Matrix.from_rows([[0, "1/2"], [3, 0]], QQ)
    assert matrix_entries(m) == [[1, 2, "1/2"], [2, 1, "3"]]
    assert matrix_entries(Matrix.zero(2, QQ)) == []


def test_round_trip_preserves_every_generator(full_8152):
    doc = system_to_dict(full_8152)
    back = system_from_dict(doc)
    assert back.n == full_8152.n
    assert back.field == full_8152.field
    assert back.admit_empty_word == full_8152.admit_empty_word
    assert dict(back.members) == dict(full_8152.members)
    # generators are listed sorted by label
    labels = [g["label"] for g in doc["generators"]]
    assert labels == sorted(labels)


def test_round_trip_over_prime_field():
    sys = build_bkm(BkmParams(6, 1, 1), PrimeField(7))
    back = system_from_dict(system_to_dict(sys))
    assert back.field == PrimeField(7)
    assert dict(back.members) == dict(sys.members)


def test_dumps_is_byte_deterministic(full_8152):
    a = dumps(system_to_dict(full_8152))
    b = dumps(system_to_dict(build_bkml(ConstructionParams(8, 1, 5, 2), QQ)))
    assert a == b
    assert a.endswith("\n")
    # key order of the input dict does not matter
    shuffled = json.loads(a)
    assert dumps(dict(reversed(list(shuffled.items())))) == a


def test_load_system_round_trip(tmp_path, witness_8152):
    path = tmp_path / "witness.json"
    path.write_text(dumps(system_to_dict(witness_8152)), encoding="utf-8")
    loaded = load_system(path)
    assert dict(loaded.members) == dict(witness_8152.members)


def test_load_system_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidGeneratorFile):
        load_system(path)


def _valid_doc():
    sys = GeneratingSystem((("g", matrix_unit(2, 1, 2, QQ)),))
    return system_to_dict(sys)


def test_schema_violations_are_reported():
    doc = _valid_doc()

    bad = dict(doc)
    del bad["field"]
    with pytest.raises(InvalidGeneratorFile, match="missing keys"):
        system_from_dict(bad)

    bad = dict(doc, comment="hi")
    with pytest.raises(InvalidGeneratorFile, match="unexpected keys"):
        system_from_dict(bad)

    for n in (0, True, 2.0, "2"):
        with pytest.raises(InvalidGeneratorFile, match="positive integer"):
            system_from_dict(dict(doc, n=n))

    with pytest.raises(InvalidGeneratorFile, match="field"):
        system_from_dict(dict(doc, field="gf:9"))

    with pytest.raises(InvalidGeneratorFile, match="boolean"):
        system_from_dict(dict(doc, admit_empty_word="yes"))

    with pytest.raises(InvalidGeneratorFile, match="must be a list"):
        system_from_dict(dict(doc, generators="nope"))

    with pytest.raises(InvalidGeneratorFile, match="top level"):
        system_from_dict([1, 2, 3])


def test_generator_violations_are_reported():
    doc = _valid_doc()

    bad = dict(doc, generators=[{"label": "g"}])
    with pytest.raises(InvalidGeneratorFile, match="label and entries"):
        system_from_dict(bad)

    bad = dict(doc, generators=[{"label": "", "entries": []}])
    with pytest.raises(InvalidGeneratorFile, match="bad generator label"):
        system_from_dict(bad)

    for entries in (5, None, {}, "[]"):
        bad = dict(doc, generators=[{"label": "g", "entries": entries}])
        with pytest.raises(InvalidGeneratorFile, match="entries must be a list"):
            system_from_dict(bad)

    for triple in ([True, 2, "1"], [1, False, "1"], [1, "2", "1"], [1.0, 2, "1"]):
        bad = dict(doc, generators=[{"label": "g", "entries": [triple]}])
        with pytest.raises(InvalidGeneratorFile, match="indices must be integers"):
            system_from_dict(bad)

    bad = dict(doc, generators=[{"label": "g", "entries": [[1, 3, "1"]]}])
    with pytest.raises(InvalidGeneratorFile, match="outside"):
        system_from_dict(bad)

    bad = dict(
        doc, generators=[{"label": "g", "entries": [[1, 2, "1"], [1, 2, "2"]]}]
    )
    with pytest.raises(InvalidGeneratorFile, match="duplicate entry"):
        system_from_dict(bad)

    bad = dict(doc, generators=[{"label": "g", "entries": [[1, 2, 1]]}])
    with pytest.raises(InvalidGeneratorFile, match="must be strings"):
        system_from_dict(bad)

    bad = dict(doc, generators=[{"label": "g", "entries": [[1, 2, "x"]]}])
    with pytest.raises(InvalidGeneratorFile, match="bad value"):
        system_from_dict(bad)

    gen = {"label": "g", "entries": [[1, 2, "1"]]}
    bad = dict(doc, generators=[gen, dict(gen)])
    with pytest.raises(InvalidGeneratorFile, match="duplicate generator labels"):
        system_from_dict(bad)

    bad = dict(doc, generators=[])
    with pytest.raises(InvalidGeneratorFile, match="empty"):
        system_from_dict(bad)


def test_malformed_entries_exit_2_without_traceback(tmp_path):
    doc = dict(_valid_doc(), generators=[{"label": "g", "entries": 5}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(subalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "subalg.cli", "length", "--in", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "entries must be a list" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fraction_values_parse_in_both_fields():
    doc = _valid_doc()
    doc["generators"] = [{"label": "g", "entries": [[1, 2, "2/3"]]}]
    sys = system_from_dict(doc)
    assert sys.matrices[0].entry(1, 2) == QQ.parse("2/3")
    doc["field"] = "gf:7"
    sys = system_from_dict(doc)
    assert sys.matrices[0].entry(1, 2) == PrimeField(7).from_int(3)


def test_oversized_n_is_refused_before_allocation(tmp_path, capsys):
    doc = {
        "n": 10**9,
        "field": "rational",
        "admit_empty_word": True,
        "generators": [{"label": "g", "entries": [[1, 2, "1"]]}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGeneratorFile, match="exceeds the supported maximum"):
            load_system(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["verify", "--in", str(path)]) == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err
    assert system_from_dict(dict(doc, n=MAX_N)).n == MAX_N
    with pytest.raises(InvalidGeneratorFile):
        system_from_dict(dict(doc, n=MAX_N + 1))
