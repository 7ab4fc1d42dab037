"""Span chains of generating systems and lengths against a target algebra.

For a system S, L_i is the span of all products of at most i members
(together with the identity when the empty word is admitted).  The chain
L_0 <= L_1 <= ... stabilizes; the smallest i with L_i equal to the target
is the length of S.  Each step only multiplies members against the vectors
that grew the span at the previous step: products against older vectors
were already absorbed one step earlier, so nothing is lost.  At step 2
those vectors are members, and in a commutative algebra g_i * g_j =
g_j * g_i, so a chain in its coordinates forms each pair once.

Chains of systems known to lie inside an algebra A of dimension d run in
A's own coordinates, on its structure-constant table (``radical.Algebra``),
which turns every product inside A into a bilinear form on d-vectors.
Chain dimensions do not depend on the coordinates, so a
chain run there reports what the n*n-coordinate chain would, without
forming a matrix.  Only its dimensions are read, so its span is never
brought to RREF; a chain in n*n coordinates returns its spans, so it
builds their canonical rows (``exact_linalg._Echelon.canonical``) once per
step.

The table's products, and those of a chain in n*n coordinates, go through
the row-sparse kernel ``exact_linalg._vec_mul``: the basis rows, or the
members and each frontier row, are grouped by matrix row once, and no
product builds a ``Matrix``.  Each nonzero table product is reduced
against A.

A chain multiplies a vector x only by the members g for which g * x can
be nonzero, listed in ascending order by one rule per coordinate system
(``exact_linalg._lefts_meeting``, ``Algebra.lefts_meeting``).  A skipped
product is zero and would insert nothing, so each step inserts the same
nonzero vectors, in the same order, as multiplying every pair would.

The sampler plans each candidate's draws before any arithmetic, in O(d)
calls to its rng and with no refusal by member count; accepted
candidates follow the law of a dense draw (``_Plan`` says why).  It
builds only the chosen rows, unscaled: scaling by units changes no span,
so the chain runs on them as they are.  That chain is screened: after
step 1 it inserts F*I + J^2 into a copy of L_1 and goes on only when the
copy fills A.  Only ``sample_generating_systems`` draws units, from a
stream seeded by (seed, sample index), and forms matrices.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
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
    _by_row,
    _Echelon,
    _lefts_meeting,
    _vec_mul,
    mat_mul,
    vectorize,
)
from .radical import Algebra


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


def _grow(ech: _Echelon, vecs, full: int | None = None) -> list:
    """Insert vecs into ech, which consumes them, until it reaches
    dimension ``full``; returns a copy of each vector that grew the span."""
    grown = []
    for vec in vecs:
        kept = dict(vec)
        if ech.insert(vec):
            grown.append(kept)
            if ech.dim == full:
                break
    return grown


def _chain(system: GeneratingSystem):
    """Run the span chain to stabilization; returns (report, per-step spans),
    the report's length measured against the span it stabilizes at."""
    if not system.members and not system.admit_empty_word:
        raise EmptySystem("no members and the empty word is not admitted")
    n, f = system.n, system.field
    ech = _Echelon(f)
    if system.admit_empty_word:
        ech.insert(vectorize(system.identity()))
    spans = [ech.to_subspace(n)]
    vecs = [vectorize(m) for m in system.matrices]
    members = [_by_row(vec, n) for vec in vecs]
    lefts = _lefts_meeting(members)
    while True:
        frontier = [_by_row(x, n) for x in _grow(ech, vecs)]
        spans.append(ech.to_subspace(n))
        if spans[-1].dim == spans[-2].dim:
            break
        vecs = (_vec_mul(members[i], x, n, f) for x in frontier for i in lefts(x))
    dims = tuple(s.dim for s in spans)
    stabilization = len(spans) - 1
    return LengthReport(dims, stabilization, stabilization - 1, dims[-1]), spans


def li_chain(system: GeneratingSystem, target: Subspace | None = None) -> LengthReport:
    """Chain report for S; with a target, ``length`` is the first i with L_i
    equal to it, None when no span is."""
    if target is not None:
        _check_compatible(system, target)
    report, spans = _chain(system)
    if target is None:
        return report
    length = spans.index(target) if target in spans else None
    return LengthReport(report.dims, report.stabilization_step, length, target.dim)


def li_chain_spans(system: GeneratingSystem) -> list:
    """The spans L_0, ..., L_s themselves, one per chain step."""
    _, spans = _chain(system)
    return spans


def algebra_closure(system: GeneratingSystem) -> Subspace:
    """The full span the chain stabilizes at: the algebra S generates."""
    _, spans = _chain(system)
    return spans[-1]


def _coord_chain(
    alg: Algebra, members: list, admit_empty_word: bool, screen: bool = False
) -> LengthReport | None:
    """The span chain of members of A, given by coordinates, against A.

    Step 1 inserts copies of the members and stops as soon as the span
    fills A.  With ``screen`` the chain stops there, returning None, unless
    L_1 spans A together with F*I + J^2 (``alg.modulus``): by Nakayama's
    lemma, members with the identity admitted generate the local A exactly
    then.  The rows of F*I + J^2 go into a copy of L_1's accumulator.

    Each later step multiplies the members by the vectors that grew the span
    at the step before, each vector x only by the members g for which the
    table stores some product in the supports of g and x.  At step 2 those
    vectors are the grown members, so in a commutative A each unordered
    pair of them is multiplied once.  A step stops as soon as the span
    fills A; the step after it, which can only repeat A, is recorded
    without being run.
    """
    d = alg.d
    ech = _Echelon(alg.field)
    if admit_empty_word:
        ech.insert(dict(alg.identity))
    dims = [ech.dim]
    grown = [i for i, g in enumerate(members) if ech.dim < d and ech.insert(dict(g))]
    dims.append(ech.dim)
    if screen:
        probe = _Echelon(alg.field, ech.rows)
        for row in alg.modulus.values():
            if probe.dim == d:
                break
            probe.insert(dict(row))
        if probe.dim < d:
            return None
    mul, lefts = alg.mul, alg.lefts_meeting(members)
    # step 2 on a commutative table: g_i * g_j for grown i <= j only
    firsts = set(grown) if alg.commutative else None
    vecs = (
        mul(members[i], members[j])
        for j in grown
        for i in lefts(members[j])
        if firsts is None or (i <= j and i in firsts)
    )
    while dims[-1] != dims[-2]:
        if dims[-1] == d:
            dims.append(d)
            break
        frontier = _grow(ech, vecs, full=d)
        dims.append(ech.dim)
        vecs = (mul(members[i], x) for x in frontier for i in lefts(x))
    length = dims.index(d) if d in dims else None
    return LengthReport(tuple(dims), len(dims) - 1, length, d)


def _target_chain(system: GeneratingSystem, alg: Algebra) -> LengthReport:
    """``li_chain(system, target=A)`` for the algebra A of ``alg``.

    It runs on A's table when every member lies in A, and the identity too
    when the empty word is admitted; otherwise in n*n coordinates.
    """
    _check_compatible(system, alg.space)
    members = [alg.coordinates(vectorize(m)) for m in system.matrices]
    if system.admit_empty_word:
        on_table = alg.identity is not None
    else:
        # with neither members nor the empty word, li_chain raises EmptySystem
        on_table = bool(members)
    if not on_table or None in members:
        return li_chain(system, target=alg.space)
    return _coord_chain(alg, members, system.admit_empty_word)


def length_of_system(system: GeneratingSystem, target: Subspace) -> int:
    """Smallest i with L_i equal to the target; the target must be an
    algebra (building its table raises NotASubalgebra otherwise)."""
    report = _target_chain(system, Algebra(target))
    if report.length is None:
        raise NotGenerating(
            f"chain stabilized at dimension {report.dims[-1]} without reaching "
            f"the target of dimension {target.dim}"
        )
    return report.length


def _words(prefix: Matrix, mats: tuple, length: int):
    """prefix times each product of ``length`` of ``mats``, in
    index-lexicographic order.  Words are formed depth first, so only the
    prefixes of the current word are held."""
    if length == 0:
        yield prefix
        return
    for g in mats:
        yield from _words(mat_mul(prefix, g), mats, length - 1)


def _word_steps(system: GeneratingSystem, max_len: int, budget: int):
    """For i = 0, ..., max_len, an iterator over the products of exactly i
    members (at i = 0 the identity, when the empty word is admitted), each
    formed as it is read.  Raises BudgetExceeded, before any word is
    formed, when the number of words of the top length,
    len(members) ** max_len, exceeds the budget."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    base = len(system.members)
    if base**max_len > budget:
        raise BudgetExceeded(f"{base}**{max_len} words exceed the budget of {budget}")
    identity, mats = system.identity(), system.matrices
    for i in range(max_len + 1):
        yield _words(identity, mats, i) if i or system.admit_empty_word else []


def _unit_draw(rng: random.Random, f):
    # A handful of invertible scalars; over GF(p) any nonzero residue.
    if hasattr(f, "p"):
        return f.from_int(rng.randrange(1, f.p))
    return f.parse(rng.choice(("1", "-1", "2", "-2", "1/2")))


def _kept(rng: random.Random, rows: list, density: float) -> list:
    """For each range in rows, its elements kept by independent trials of
    probability ``density``.  They are drawn by geometric skips over the
    ranges laid end to end (Batagelj and Brandes, Phys. Rev. E 71, 036113,
    2005): one ``rng.random`` call per kept element, plus one."""
    if density >= 1.0:
        return [list(r) for r in rows]
    log, draw, log_miss = math.log, rng.random, math.log(1.0 - density)
    kept = []
    pos = int(log(1.0 - draw()) / log_miss)
    for r in rows:
        row = []
        while pos < len(r):
            row.append(r[pos])
            pos += 1 + int(log(1.0 - draw()) / log_miss)
        pos -= len(r)
        kept.append(row)
    return kept


# Every draw of one candidate: a random invertible mix of the d unit
# coordinate vectors, and its members.  Row i of the mix gains rows
# first[i] (all above it) in an ascending unit-triangular pass, then rows
# second[i] (all below it) in a descending one; chosen lists the member
# rows in order.  Accepted candidates follow the law of a dense draw with
# one trial per pair, a count uniform on [ceil(d/2), d] and a shuffled
# basis read at sorted random positions: geometric skips make the same
# independent trials at density min(1, 3/(d-1)); a count uniform on
# [max(r, ceil(d/2)), d] is that count given that it reaches the rank r
# modulo F*I + J^2, below which no candidate generates; and rng.sample's
# ordered subset is uniform, as the read-off one is.  Units scale the
# members only where they become matrices.
_Plan = namedtuple("_Plan", "first second chosen")


def _plan(rng: random.Random, d: int, rank: int) -> _Plan:
    """Draws one candidate of d coordinates with at least ``rank`` members,
    with no arithmetic; about 5d calls to the rng, not d*d."""
    density = min(1.0, 3.0 / max(d - 1, 1))
    first = _kept(rng, [range(i + 1, d) for i in range(d)], density)
    second = _kept(rng, [range(i) for i in range(d)], density)
    size = rng.randint(max(rank, (d + 1) // 2), d)
    return _Plan(first, second, rng.sample(range(d), size))


def _plan_row(plan: _Plan, i: int, f) -> dict:
    """Row i of the plan's mix, unscaled.  It is built alone: when the
    ascending pass reaches row i, the rows above it are still unit vectors,
    and when the descending pass does, the rows below it hold their
    ascending sums."""
    one, first = f.one(), plan.first
    row = dict.fromkeys([i, *first[i]], one)
    for j in plan.second[i]:
        f.axpy(row, one, dict.fromkeys([j, *first[j]], one))
    return row


def _sample_reports(
    alg: Algebra, count: int, seed: int, max_rejections: int = 1000
) -> list:
    """(rows, LengthReport) of ``count`` seeded random generating systems
    of the local algebra A, each member an unscaled row, with no matrix
    formed.

    A candidate generates A exactly when it spans A modulo F*I + J^2
    (``alg.modulus``; Nakayama's lemma), so every plan has at least that
    rank of members.  Only its chosen rows are built, unscaled: scaling
    members by units changes no span.  Each candidate runs one screened
    chain (``_coord_chain``), which stops after step 1 unless it generates
    A.  Refusals by the screen are capped at ``max_rejections`` per sample.
    """
    rng = random.Random(seed)
    f, d = alg.field, alg.d
    rank = d - len(alg.modulus)
    out = []
    for _ in range(count):
        for _ in range(max(max_rejections, 1)):
            plan = _plan(rng, d, rank)
            members = [_plan_row(plan, i, f) for i in plan.chosen]
            report = _coord_chain(alg, members, True, screen=True)
            if report is not None:
                break
        else:
            raise SamplingExhausted(
                f"no generating subset found within {max_rejections} rejections"
            )
        if report.length is None:
            raise NotGenerating(
                f"a candidate spanning the target modulo F*I + J^2 "
                f"generates only dimension {report.dims[-1]} of {d}"
            )
        out.append((members, report))
    return out


def sample_generating_systems(
    target: Subspace, count: int, seed: int, max_rejections: int = 1000
) -> list:
    """Deterministic random generating systems of the local target algebra.

    Each sample of ``_sample_reports``, the rows of a random subset of a
    random mix of the target's basis, becomes matrices with its members
    scaled by units drawn from a stream of its own, seeded by (seed, sample
    index).  Its chain copied the rows, so they are as built.  Returns
    (system, LengthReport) pairs, the report giving its length.

    Raises NotASubalgebra when the target is not closed or lacks the
    identity, and then NotLocalForm when it is not local.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    alg = Algebra(target)
    if alg.identity is None:
        raise NotASubalgebra("target must contain the identity")
    f, out = target.field, []
    pairs = _sample_reports(alg, count, seed, max_rejections)
    for index, (rows, report) in enumerate(pairs):
        units = random.Random(f"{seed}:{index}")
        rows = [f.scale(row, _unit_draw(units, f)) for row in rows]
        labelled = tuple((f"g{i + 1}", alg.matrix(x)) for i, x in enumerate(rows))
        out.append((GeneratingSystem(labelled, admit_empty_word=True), report))
    return out
