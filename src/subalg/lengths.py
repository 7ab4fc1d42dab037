"""Span chains of generating systems and lengths against a target algebra.

For a system S, L_i is the span of all products of at most i members
(together with the identity when the empty word is admitted).  The chain
L_0 <= L_1 <= ... stabilizes; the smallest i with L_i equal to the target
is the length of S.  Each step only multiplies members against the basis
vectors that are new since the previous step: products against older basis
vectors were already absorbed one step earlier, so nothing is lost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .constructions import GeneratingSystem
from .errors import (
    BudgetExceeded,
    EmptySystem,
    NotASubalgebra,
    NotGenerating,
    SamplingExhausted,
)
from .exact_linalg import (
    Matrix,
    Subspace,
    _check_compatible,
    _Echelon,
    mat_mul,
    unvectorize,
    vectorize,
)


@dataclass(frozen=True)
class LengthReport:
    """Chain dimensions, the step where growth stopped, and the length.

    ``dims`` lists dim L_0 through dim L_s where s is the first step whose
    span equals the previous one.  ``length`` is None when the chain
    stabilized without reaching the requested target.
    """

    dims: tuple
    stabilization_step: int
    length: int | None
    target_dim: int


def _chain(system: GeneratingSystem, target: Subspace | None = None):
    """Run the span chain to stabilization; returns (report, per-step spans)."""
    if not system.members and not system.admit_empty_word:
        raise EmptySystem("no members and the empty word is not admitted")
    if target is not None:
        _check_compatible(system, target)
    n, f = system.n, system.field
    ech = _Echelon(f)
    if system.admit_empty_word:
        ech.insert(vectorize(system.identity()))
    spans = [ech.to_subspace(n)]
    dims = [ech.dim]
    length = 0 if target is not None and spans[0] == target else None
    prev_rows = spans[0].pivot_rows
    mats = system.matrices
    frontier: list = []
    step = 0
    while True:
        step += 1
        if step == 1:
            for m in mats:
                ech.insert(vectorize(m))
        else:
            for fmat in frontier:
                for g in mats:
                    ech.insert(vectorize(mat_mul(g, fmat)))
        cur = ech.to_subspace(n)
        spans.append(cur)
        dims.append(cur.dim)
        if target is not None and length is None and cur == target:
            length = step
        if dims[-1] == dims[-2]:
            stabilization = step
            break
        frontier = [
            unvectorize(row, n, f)
            for p, row in cur.pivot_rows.items()
            if p not in prev_rows
        ]
        prev_rows = cur.pivot_rows
    if target is None:
        length = stabilization - 1
        target_dim = dims[-1]
    else:
        target_dim = target.dim
    return LengthReport(tuple(dims), stabilization, length, target_dim), spans


def li_chain(system: GeneratingSystem, target: Subspace | None = None) -> LengthReport:
    """Chain report for S; with a target, ``length`` is measured against it."""
    report, _ = _chain(system, target)
    return report


def li_chain_spans(system: GeneratingSystem) -> list:
    """The spans L_0, ..., L_s themselves, one per chain step."""
    _, spans = _chain(system)
    return spans


def algebra_closure(system: GeneratingSystem) -> Subspace:
    """The full span the chain stabilizes at: the algebra S generates."""
    _, spans = _chain(system)
    return spans[-1]


def _require_mult_closed(space: Subspace, what: str = "target") -> None:
    mats = space.basis_matrices()
    if not all(space.contains_matrix(mat_mul(x, y)) for x in mats for y in mats):
        raise NotASubalgebra(
            f"{what} is not multiplicatively closed: some basis product leaves it"
        )


def length_of_system(system: GeneratingSystem, target: Subspace) -> int:
    """Smallest i with L_i equal to the target; the target must be an algebra."""
    _require_mult_closed(target)
    report, _ = _chain(system, target)
    if report.length is None:
        raise NotGenerating(
            f"chain stabilized at dimension {report.dims[-1]} without reaching "
            f"the target of dimension {target.dim}"
        )
    return report.length


def enumerate_words(
    system: GeneratingSystem, max_len: int, budget: int = 1_000_000
) -> list:
    """All products of at most max_len members, in index-lexicographic order.

    The identity is listed first when the empty word is admitted.  Raises
    BudgetExceeded when the number of words of the top length,
    len(members) ** max_len, exceeds the budget.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    base = len(system.members)
    if base**max_len > budget:
        raise BudgetExceeded(
            f"{base}**{max_len} words exceed the budget of {budget}"
        )
    mats = system.matrices
    words: list[Matrix] = []
    if system.admit_empty_word:
        words.append(system.identity())
    current = [system.identity()]
    for _ in range(max_len):
        nxt = []
        for prefix in current:
            for g in mats:
                nxt.append(mat_mul(prefix, g))
        words.extend(nxt)
        current = nxt
    return words


def _random_unit(rng: random.Random, field):
    # A handful of invertible scalars; over GF(p) any nonzero residue.
    if hasattr(field, "p"):
        return field.from_int(rng.randrange(1, field.p))
    return field.parse(rng.choice(("1", "-1", "2", "-2", "1/2")))


def _recombined_basis(rng: random.Random, target: Subspace) -> list:
    """Random invertible mix of the target basis.

    Built as sparse unit-triangular passes, a row scaling by units, and a
    shuffle, so the mix is invertible over every field by construction.
    """
    f = target.field
    rows = [dict(r) for r in target.pivot_rows.values()]
    d = len(rows)
    density = min(1.0, 3.0 / max(d - 1, 1))
    one = f.one()
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                f.axpy(rows[i], one, rows[j])
    for i in range(d - 1, -1, -1):
        for j in range(i):
            if rng.random() < density:
                f.axpy(rows[i], one, rows[j])
    rows = [f.scale(row, _random_unit(rng, f)) for row in rows]
    rng.shuffle(rows)
    return [unvectorize(row, target.n, f) for row in rows]


def sample_generating_systems(
    target: Subspace,
    count: int,
    seed: int,
    max_rejections: int = 1000,
) -> list:
    """Deterministic random generating systems of the target algebra.

    Each sample takes a random subset of a randomly recombined basis of the
    target and keeps it only if its chain closes back to the target;
    failures count as rejections, capped per sample.  Returns
    (system, LengthReport) pairs: the report of the chain that accepted the
    system, whose length is the system's length against the target.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _require_mult_closed(target)
    ident = Matrix.identity(target.n, target.field)
    if not target.contains_matrix(ident):
        raise NotASubalgebra("target must contain the identity")
    rng = random.Random(seed)
    d = target.dim
    out = []
    for _ in range(count):
        rejections = 0
        while True:
            gens = _recombined_basis(rng, target)
            order = list(range(d))
            rng.shuffle(order)
            size = rng.randint((d + 1) // 2, d)
            chosen = sorted(order[:size])
            system = GeneratingSystem(
                tuple((f"g{pos + 1}", gens[idx]) for pos, idx in enumerate(chosen)),
                admit_empty_word=True,
            )
            report, spans = _chain(system)
            if spans[-1] == target:
                out.append((system, report))
                break
            rejections += 1
            if rejections >= max_rejections:
                raise SamplingExhausted(
                    f"no generating subset found within {max_rejections} rejections"
                )
    return out
