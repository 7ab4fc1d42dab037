"""Builders for two families of maximal commutative matrix subalgebras.

The two-chain family (``bkml``) lives in n-by-n matrices and is generated
by the identity, two shift chains of length k+1 starting at rows m and l,
and matrix units E(i, j) with i drawn from rows 1..m plus row l, and j
drawn from the columns strictly between the two chains plus the columns to
the right of the second chain.  The one-chain family (``bkm``) keeps a
single shift chain at row m and the units E(i, j) with i <= m and
j >= m+k+1.

All indices are 1-based.  Generator labels are stable: "I" for the
identity, "B1"/"B2" (or "B") for the chains, "E_i_j" for units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EmptySystem,
    IndexOutOfRange,
    InvalidParams,
    UnknownCoefficientKey,
)
from .exact_linalg import QQ, Field, Matrix, _check_compatible, matrix_unit


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (n, m, l, k) of the two-chain family."""

    n: int
    m: int
    l: int
    k: int

    def __post_init__(self):
        for name in ("n", "m", "l", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidParams(f"{name} >= 1 violated ({name}={v})")
        if not self.l > self.m + self.k + 1:
            raise InvalidParams(
                f"l > m+k+1 violated (l={self.l}, m+k+1={self.m + self.k + 1})"
            )
        if not self.l + self.k + 1 <= self.n:
            raise InvalidParams(
                f"l+k+1 <= n violated (l+k+1={self.l + self.k + 1}, n={self.n})"
            )


@dataclass(frozen=True)
class BkmParams:
    """Parameters (n, m, k) of the one-chain family."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        for name in ("n", "m", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidParams(f"{name} >= 1 violated ({name}={v})")
        if not self.k + self.m + 1 <= self.n:
            raise InvalidParams(
                f"k+m+1 <= n violated (k+m+1={self.k + self.m + 1}, n={self.n})"
            )


@dataclass(frozen=True)
class IndexSets:
    """Row and column index sets that place the unit generators."""

    row_indices: tuple
    col_indices: tuple


def index_sets(p: ConstructionParams) -> IndexSets:
    rows = tuple(range(1, p.m + 1)) + (p.l,)
    cols = tuple(range(p.m + p.k + 1, p.l)) + tuple(range(p.l + p.k + 1, p.n + 1))
    return IndexSets(rows, cols)


def shift_matrix(n: int, start: int, k: int, field: Field = QQ) -> Matrix:
    """Sum of E(start+h, start+h+1) for h in 0..k: a chain of k+1 ones."""
    if start < 1 or start + k + 1 > n:
        raise IndexOutOfRange(
            f"chain rows {start}..{start + k} need columns up to {start + k + 1}, n={n}"
        )
    o = field.one()
    rows = tuple({} for _ in range(n))
    for h in range(k + 1):
        rows[start + h - 1][start + h] = o
    return Matrix(n, field, rows)


@dataclass(frozen=True)
class GeneratingSystem:
    """At least one labeled matrix over one field, with an empty-word
    convention; ``n`` and ``field`` are the first member's.

    When ``admit_empty_word`` is true the span chain starts from the
    identity, matching the usual convention for unital algebras.
    """

    members: tuple
    admit_empty_word: bool = True

    def __post_init__(self):
        if not self.members:
            raise EmptySystem("a generating system needs at least one member")
        labels = [label for label, _ in self.members]
        if len(set(labels)) != len(labels):
            raise InvalidParams(f"duplicate generator labels: {sorted(labels)}")
        first = self.members[0][1]
        for _, m in self.members[1:]:
            _check_compatible(first, m)

    @property
    def n(self) -> int:
        return self.members[0][1].n

    @property
    def field(self) -> Field:
        return self.members[0][1].field

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.members)

    @property
    def matrices(self) -> tuple:
        return tuple(m for _, m in self.members)

    def identity(self) -> Matrix:
        return Matrix.identity(self.n, self.field)


def _unit_members(n, pairs, field):
    return [(f"E_{i}_{j}", matrix_unit(n, i, j, field)) for i, j in pairs]


def build_bkml(p: ConstructionParams, field: Field = QQ) -> GeneratingSystem:
    """Full generating system of the two-chain family: I, B1, B2, units."""
    sets = index_sets(p)
    pairs = [(i, j) for i in sets.row_indices for j in sets.col_indices]
    members = [
        ("I", Matrix.identity(p.n, field)),
        ("B1", shift_matrix(p.n, p.m, p.k, field)),
        ("B2", shift_matrix(p.n, p.l, p.k, field)),
    ] + _unit_members(p.n, pairs, field)
    return GeneratingSystem(tuple(members), admit_empty_word=True)


def build_bkm(p: BkmParams, field: Field = QQ) -> GeneratingSystem:
    """Full generating system of the one-chain family: I, B, units."""
    pairs = [
        (i, j)
        for i in range(1, p.m + 1)
        for j in range(p.m + p.k + 1, p.n + 1)
    ]
    members = [
        ("I", Matrix.identity(p.n, field)),
        ("B", shift_matrix(p.n, p.m, p.k, field)),
    ] + _unit_members(p.n, pairs, field)
    return GeneratingSystem(tuple(members), admit_empty_word=True)


def _without(system: GeneratingSystem, *labels) -> GeneratingSystem:
    """The system with the members of the given labels left out."""
    kept = tuple(m for m in system.members if m[0] not in labels)
    return GeneratingSystem(kept, admit_empty_word=system.admit_empty_word)


def _witness_of(system: GeneratingSystem, p) -> GeneratingSystem:
    """The witness inside ``system``, the full system of either family at p:
    it without I and the unit E(s, s+k+1) of each chain row s (m, and l
    for two chains)."""
    rows = (p.m, p.l) if isinstance(p, ConstructionParams) else (p.m,)
    return _without(system, "I", *(f"E_{s}_{s + p.k + 1}" for s in rows))


def witness_system(p: ConstructionParams, field: Field = QQ) -> GeneratingSystem:
    """The short system whose length attains k+1 for the two-chain family.

    It is ``build_bkml`` without I, E(m, m+k+1) and E(l, l+k+1); those two
    units reappear as the (k+1)-st chain powers, which is what forces the
    length up to k+1.
    """
    return _witness_of(build_bkml(p, field), p)


def witness_system_bkm(p: BkmParams, field: Field = QQ) -> GeneratingSystem:
    """One-chain analogue of ``witness_system``: ``build_bkm`` without I and
    E(m, m+k+1)."""
    return _witness_of(build_bkm(p, field), p)


def coefficient_template(p: ConstructionParams) -> tuple:
    """Valid keys for ``assemble_element``: gamma, alpha_s, lambda_t, mu_i_j."""
    sets = index_sets(p)
    keys = ["gamma"]
    keys += [f"alpha_{s}" for s in range(1, p.k + 2)]
    keys += [f"lambda_{t}" for t in range(1, p.k + 2)]
    keys += [f"mu_{i}_{j}" for i in sets.row_indices for j in sets.col_indices]
    return tuple(keys)


def assemble_element(p: ConstructionParams, coeffs: dict, field: Field = QQ) -> Matrix:
    """General element: gamma*I + sum alpha_s*B1^s + sum lambda_t*B2^t + sum mu_i_j*E(i,j).

    Keys absent from ``coeffs`` default to zero; keys outside the template
    raise UnknownCoefficientKey.
    """
    template = set(coefficient_template(p))
    for key in coeffs:
        if key not in template:
            raise UnknownCoefficientKey(f"unknown coefficient key {key!r}")
    result = Matrix.zero(p.n, field)

    def coeff(key):
        return field.coerce(coeffs.get(key, 0))

    c = coeff("gamma")
    if c:
        result = result + Matrix.identity(p.n, field).scale(c)
    b1 = shift_matrix(p.n, p.m, p.k, field)
    b2 = shift_matrix(p.n, p.l, p.k, field)
    for prefix, base in (("alpha", b1), ("lambda", b2)):
        power = base
        for s in range(1, p.k + 2):
            c = coeff(f"{prefix}_{s}")
            if c:
                result = result + power.scale(c)
            if s <= p.k:
                power = power * base
    sets = index_sets(p)
    for i in sets.row_indices:
        for j in sets.col_indices:
            c = coeff(f"mu_{i}_{j}")
            if c:
                result = result + matrix_unit(p.n, i, j, field).scale(c)
    return result


def dimension_formula(p: ConstructionParams) -> int:
    """Dimension of the two-chain algebra: 1 + 2k + (m+1)*((l-m-k-1)+(n-l-k))."""
    return 1 + 2 * p.k + (p.m + 1) * ((p.l - p.m - p.k - 1) + (p.n - p.l - p.k))


def dimension_formula_bkm(p: BkmParams) -> int:
    """Dimension of the one-chain algebra: 1 + k + m*(n-m-k)."""
    return 1 + p.k + p.m * (p.n - p.m - p.k)


def valid_bkml_params(n: int) -> list:
    """All valid (n, m, l, k) tuples for this n, ordered by (m, l, k)."""
    out = []
    for m in range(1, n + 1):
        for l in range(1, n + 1):
            for k in range(1, n + 1):
                if l > m + k + 1 and l + k + 1 <= n:
                    out.append(ConstructionParams(n, m, l, k))
    return out


def valid_bkm_params(n: int) -> list:
    """All valid (n, m, k) tuples for this n, ordered by (m, k)."""
    out = []
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            if k + m + 1 <= n:
                out.append(BkmParams(n, m, k))
    return out

