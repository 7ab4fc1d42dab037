"""Generator-set files and deterministic JSON output.

A generator-set file is a JSON object with keys n, field, admit_empty_word
and generators; each generator has a label and a sparse entry list of
1-based [row, col, "value"] triples.  Values are decimal integers or
"num/den" strings.  All JSON emitted by this package is UTF-8 with sorted
keys and a trailing newline, and generators are sorted by label, so equal
inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from .constructions import GeneratingSystem
from .errors import InvalidGeneratorFile, InvalidParams
from .exact_linalg import Field, Matrix, field_from_name

SCHEMA_KEYS = {"n", "field", "admit_empty_word", "generators"}

# Largest matrix size a generator-set file may declare.  Certification
# solves a system in n*n unknowns, so a file at this bound already asks for
# a 65536-unknown centralizer; a larger n is refused before anything is
# allocated for it.
MAX_N = 256


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matrix_entries(m: Matrix) -> list:
    """Sparse [i, j, "value"] triples, sorted by (i, j)."""
    f = m.field
    return [
        [i + 1, j + 1, f.fmt(row[j])]
        for i, row in enumerate(m.sparse_rows)
        for j in sorted(row)
    ]


def system_to_dict(system: GeneratingSystem) -> dict:
    gens = [
        {"label": label, "entries": matrix_entries(m)}
        for label, m in sorted(system.members, key=lambda lm: lm[0])
    ]
    return {
        "n": system.n,
        "field": system.field.name,
        "admit_empty_word": system.admit_empty_word,
        "generators": gens,
    }


def _field_from_dict(doc: dict) -> Field:
    name = doc["field"]
    if not isinstance(name, str):
        raise InvalidGeneratorFile(f"field must be a string, got {name!r}")
    try:
        return field_from_name(name)
    except InvalidParams as exc:
        raise InvalidGeneratorFile(f"bad field {name!r}: {exc}") from None


def system_from_dict(doc: dict) -> GeneratingSystem:
    if not isinstance(doc, dict):
        raise InvalidGeneratorFile("top level must be a JSON object")
    missing = SCHEMA_KEYS - doc.keys()
    if missing:
        raise InvalidGeneratorFile(f"missing keys: {sorted(missing)}")
    extra = doc.keys() - SCHEMA_KEYS
    if extra:
        raise InvalidGeneratorFile(f"unexpected keys: {sorted(extra)}")
    n = doc["n"]
    # JSON's true and false load as bool, a subclass of int: match the type
    if type(n) is not int or n < 1:
        raise InvalidGeneratorFile(f"n must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise InvalidGeneratorFile(f"n = {n} exceeds the supported maximum {MAX_N}")
    field = _field_from_dict(doc)
    admit = doc["admit_empty_word"]
    if not isinstance(admit, bool):
        raise InvalidGeneratorFile("admit_empty_word must be a boolean")
    gens = doc["generators"]
    if not isinstance(gens, list):
        raise InvalidGeneratorFile("generators must be a list")
    members = []
    for gen in gens:
        if not isinstance(gen, dict) or set(gen) != {"label", "entries"}:
            raise InvalidGeneratorFile(
                "each generator needs exactly the keys label and entries"
            )
        label = gen["label"]
        if not isinstance(label, str) or not label:
            raise InvalidGeneratorFile(f"bad generator label {label!r}")
        entries = gen["entries"]
        if not isinstance(entries, list):
            raise InvalidGeneratorFile(f"generator {label!r}: entries must be a list")
        rows = tuple({} for _ in range(n))
        seen = set()
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise InvalidGeneratorFile(
                    f"generator {label!r}: entries must be [i, j, value] triples"
                )
            i, j, raw = entry
            if not (type(i) is int and type(j) is int):
                raise InvalidGeneratorFile(
                    f"generator {label!r}: indices must be integers"
                )
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidGeneratorFile(
                    f"generator {label!r}: entry ({i}, {j}) outside 1..{n}"
                )
            if (i, j) in seen:
                raise InvalidGeneratorFile(
                    f"generator {label!r}: duplicate entry at ({i}, {j})"
                )
            seen.add((i, j))
            if not isinstance(raw, str):
                raise InvalidGeneratorFile(
                    f"generator {label!r}: values must be strings, got {raw!r}"
                )
            try:
                value = field.parse(raw)
            except InvalidParams as exc:
                raise InvalidGeneratorFile(
                    f"generator {label!r}: bad value {raw!r} ({exc})"
                ) from None
            if value:
                rows[i - 1][j - 1] = value
        members.append((label, Matrix(n, field, rows)))
    labels = [lm[0] for lm in members]
    if len(set(labels)) != len(labels):
        raise InvalidGeneratorFile(f"duplicate generator labels: {sorted(labels)}")
    if not members:
        raise InvalidGeneratorFile("generators list is empty")
    return GeneratingSystem(tuple(members), admit_empty_word=admit)


def load_system(path) -> GeneratingSystem:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidGeneratorFile(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise InvalidGeneratorFile(f"{path}: not UTF-8 ({exc.reason})") from None
        except RecursionError:
            raise InvalidGeneratorFile(f"{path}: JSON nested too deeply") from None
    return system_from_dict(doc)
