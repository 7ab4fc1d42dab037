"""Golden corpus: frozen `sweep` and `centralizer` documents.

Each case reruns one CLI command, drops every ``elapsed_ms`` field, and
compares the re-serialized document byte for byte with its file under
``tests/golden/``.  The sweeps cover both families at every n <= 10 over
the four test fields with sampling on, so any change to a verdict, a
dimension, a chain, a sampled length or the JSON layout shows up here.

Regenerate the files only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from subalg.cli import main
from subalg.jsonio import dumps

GOLDEN = Path(__file__).with_name("golden")
FIELDS = ("rational", "gf:2", "gf:7", "gf:32003")


def _cases() -> dict:
    cases = {}
    for family in ("bkml", "bkm"):
        for field in FIELDS:
            name = f"sweep-{family}-{field.replace(':', '')}.json"
            cases[name] = (
                "sweep", "--family", family, "--n", "1..10", "--field", field,
                "--samples", "5", "--seed", "0", "--jobs", "1",
            )
    cases["centralizer-bkml-8-1-5-2.json"] = (
        "centralizer", "--family", "bkml", "--n", "8", "--m", "1", "--l", "5", "--k", "2",
    )
    cases["centralizer-bkm-8-1-2.json"] = (
        "centralizer", "--family", "bkm", "--n", "8", "--m", "1", "--k", "2",
    )
    return cases


CASES = _cases()


def strip_elapsed(obj):
    """obj without any elapsed_ms field, at every level."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def render(argv, workdir) -> str:
    """The command's document without timing, serialized as the CLI does."""
    out = Path(workdir) / "out.json"
    rc = main(list(argv) + ["--out", str(out)])
    assert rc == 0, f"{' '.join(argv)} exited {rc}"
    return dumps(strip_elapsed(json.loads(out.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert render(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in sorted(CASES.items()):
            (GOLDEN / name).write_text(render(argv, workdir), encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
