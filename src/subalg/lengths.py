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
candidates follow the law of a dense draw (``_Plan`` says why).  The
chosen rows are rows of the plan's invertible mix, so its chain runs on
the annihilator of L_i, not on an echelon of it: L_1 is known from two
triangular solves per unchosen row, with no elimination, and a product
grows the span exactly when one of the few functionals left is nonzero
on it.  The chain is screened: it inserts F*I + J^2 into a copy of L_1
and goes on only when the copy fills A.  The chosen rows are built,
unscaled, only where a product needs them: scaling by units changes no
span.  Only ``sample_generating_systems`` draws units, from a stream
seeded by (seed, sample index), and forms matrices.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass

from .constructions import GeneratingSystem
from .errors import (
    BudgetExceeded,
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


def _grow(acc, vecs, full: int | None = None) -> list:
    """Insert vecs into an accumulator (``_Echelon``, ``_Annihilator``)
    until it reaches dimension ``full``, drawing none when it is full on
    entry or after the insert that fills it; returns the vectors that grew
    the span.  It is the package's only loop that fills an accumulator up
    to a dimension."""
    grown = []
    for vec in () if acc.dim == full else vecs:
        if acc.insert(vec):
            grown.append(vec)
            if acc.dim == full:
                break
    return grown


def _chain(system: GeneratingSystem):
    """Run the span chain of a system, which has at least one member, to
    stabilization; returns (report, per-step spans), the report's length
    measured against the span it stabilizes at."""
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


def _coord_chain(alg: Algebra, members: list, admit_empty_word: bool) -> LengthReport:
    """The span chain of members of A, given by coordinates, against A.

    Step 1 inserts the members into an echelon and stops as soon as the
    span fills A; the members that grew it go on to step 2, and the
    echelon serves the later steps (``_later_steps``).
    """
    d = alg.d
    ech = _Echelon(alg.field)
    if admit_empty_word:
        ech.insert(alg.identity)
    dims = [ech.dim]
    grown = [i for i, g in enumerate(members) if ech.dim < d and ech.insert(g)]
    dims.append(ech.dim)
    return _later_steps(alg, members, ech, grown, dims)


def _later_steps(alg: Algebra, members: list, acc, grown, dims: list) -> LengthReport:
    """Steps 2 on of the chain of members of A, from the accumulator ``acc``
    of L_1 (an ``_Echelon`` or an ``_Annihilator``), the positions of the
    members that go on to step 2, and dims [dim L_0, dim L_1].

    Each step multiplies the members by the vectors that grew the span at
    the step before, each vector x only by the members g for which the
    table stores some product in the supports of g and x.  At step 2 those
    vectors are the members in ``grown``, so in a commutative A each
    unordered pair of them is multiplied once.  A step stops as soon as the
    span fills A; the step after it, which can only repeat A, forms no
    product, since ``_grow`` draws nothing once the span is full.
    """
    d = alg.d
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
        frontier = _grow(acc, vecs, full=d)
        dims.append(acc.dim)
        vecs = (mul(members[i], x) for x in frontier for i in lefts(x))
    length = dims.index(d) if d in dims else None
    return LengthReport(tuple(dims), len(dims) - 1, length, d)


def _target_chain(system: GeneratingSystem, alg: Algebra) -> LengthReport:
    """``li_chain(system, target=A)`` for the algebra A of ``alg``.

    It runs on A's table, from at least one member, when every member lies
    in A, and the identity too when the empty word is admitted; otherwise
    in n*n coordinates.
    """
    _check_compatible(system, alg.space)
    members = [alg.coordinates(vectorize(m)) for m in system.matrices]
    if None in members or (system.admit_empty_word and alg.identity is None):
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


class _Annihilator:
    """A span in F^d held by its annihilator: ``functionals``, independent
    sparse maps vanishing on it, d - dim of them; it serves as an
    ``exact_linalg._Echelon`` does.  A functional matters up to a nonzero
    factor, so no inverse is taken, and it is replaced, never changed in
    place, so a copy shares them."""

    def __init__(self, field, d: int, functionals):
        self.field = field
        self.d = d
        self.functionals = list(functionals)

    @property
    def dim(self) -> int:
        return self.d - len(self.functionals)

    def _at(self, phi: dict, vec: dict):
        """phi(vec) as a canonical scalar."""
        if len(vec) < len(phi):
            phi, vec = vec, phi
        get = vec.get
        return self.field.coerce(
            sum(v * w for k, v in phi.items() if (w := get(k)) is not None)
        )

    def insert(self, vec: dict) -> bool:
        """Add vec, left as it is; True when the dimension grew.  The first
        functional phi with v = phi(vec) != 0 is dropped and each later psi
        with w = psi(vec) != 0 becomes v*psi - w*phi, divided by the gcd of
        its entries when they are ints: a nonzero factor on every field
        (residues below p have a gcd below p) that keeps Q's primitive."""
        f, phis = self.field, self.functionals
        for k, phi in enumerate(phis):
            v = self._at(phi, vec)
            if v:
                break
        else:
            return False
        del phis[k]
        for j in range(k, len(phis)):
            w = self._at(phis[j], vec)
            if w:
                psi = f.scale(phis[j], v)
                f.axpy(psi, f.neg(w), phi)
                values = psi.values()
                if all(type(c) is int for c in values) and (g := math.gcd(*values)) > 1:
                    psi = {i: c // g for i, c in psi.items()}
                phis[j] = psi
        return True

    def copy(self) -> "_Annihilator":
        return _Annihilator(self.field, self.d, self.functionals)


def _plan_annihilator(plan: _Plan, d: int, f) -> list:
    """The d - |chosen| independent functionals vanishing on the plan's
    chosen rows: the columns of M^-1 at the unchosen indices, for the mix
    M = (I + S)(I + F) with S strictly lower (``plan.second``) and F
    strictly upper (``plan.first``).  Each is a forward solve of
    (I + S) z = e_u from u on, then a backward solve of (I + F) y = z
    (sparse triangular solves, after Gilbert and Peierls, SIAM J. Sci.
    Stat. Comput. 9(5), 1988); both factors are unit triangular, so no
    division is made and over Q the entries are ints."""
    first, second, chosen = plan.first, plan.second, set(plan.chosen)
    reduce, out = f.from_int, []
    for u in range(d):
        if u in chosen:
            continue
        z = [0] * d
        z[u] = 1
        for i in range(u + 1, d):
            s = 0
            for j in second[i]:
                s += z[j]
            if s:
                z[i] = reduce(-s)
        for i in range(d - 1, -1, -1):
            s = z[i]
            for j in first[i]:
                s -= z[j]
            z[i] = reduce(s) if s else 0
        out.append({j: v for j, v in enumerate(z) if v})
    return out


def _plan_chain(alg: Algebra, plan: _Plan) -> LengthReport | None:
    """The LengthReport of the plan's candidate, identity admitted, or None
    when it does not generate the local A.

    Its chain runs on an ``_Annihilator`` from ``_plan_annihilator``, so no
    chosen row is eliminated; the identity gives L_1.  By Nakayama's lemma
    the candidate generates A exactly when L_1 and F*I + J^2
    (``alg.modulus``) span A, which ``_grow`` screens on a copy of the
    accumulator.  Rows are built only for a product, when L_1 is not A.
    Every member goes on to step 2: the chosen rows are independent, so at
    most one lies in the span of I and those before it, and its products
    lie in L_2 already.
    """
    f, d = alg.field, alg.d
    ann = _Annihilator(f, d, _plan_annihilator(plan, d, f))
    ann.insert(alg.identity)
    probe = ann.copy()
    _grow(probe, alg.modulus.values(), full=d)
    if probe.dim < d:
        return None
    rows = [_plan_row(plan, i, f) for i in plan.chosen] if ann.dim < d else []
    return _later_steps(alg, rows, ann, range(len(rows)), [1, ann.dim])


# Plans screened per sample before SamplingExhausted.  Every plan has at
# least the rank of A modulo F*I + J^2 in members and most pass, so the
# cap only turns an endless run of refusals into an error.
MAX_REJECTIONS = 1000


def _sample_reports(alg: Algebra, count: int, seed: int) -> list:
    """(plan, LengthReport) of ``count`` seeded random generating systems
    of the local algebra A, with no matrix formed; a plan's members are its
    chosen rows (``_plan_row``), unscaled, since scaling by units changes
    no span.

    A candidate generates A exactly when it spans A modulo F*I + J^2
    (``alg.modulus``; Nakayama's lemma), so every plan has at least that
    rank of members.  Each plan is screened, and an accepted one chained,
    by ``_plan_chain``.  Refusals by the screen are capped at
    ``MAX_REJECTIONS`` per sample.
    """
    rng = random.Random(seed)
    d = alg.d
    rank = d - len(alg.modulus)
    out = []
    for _ in range(count):
        for _ in range(MAX_REJECTIONS):
            plan = _plan(rng, d, rank)
            report = _plan_chain(alg, plan)
            if report is not None:
                break
        else:
            raise SamplingExhausted(
                f"no generating subset found within {MAX_REJECTIONS} rejections"
            )
        if report.length is None:
            raise NotGenerating(
                f"a candidate spanning the target modulo F*I + J^2 "
                f"generates only dimension {report.dims[-1]} of {d}"
            )
        out.append((plan, report))
    return out


def sample_generating_systems(target: Subspace, count: int, seed: int) -> list:
    """Deterministic random generating systems of the local target algebra.

    Each sample of ``_sample_reports``, the rows of a random subset of a
    random mix of the target's basis, becomes matrices with its members
    scaled by units drawn from a stream of its own, seeded by (seed, sample
    index).  Returns (system, LengthReport) pairs, the report giving its
    length.

    Raises NotASubalgebra when the target is not closed or lacks the
    identity, and then NotLocalForm when it is not local.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    alg = Algebra(target)
    if alg.identity is None:
        raise NotASubalgebra("target must contain the identity")
    f, out = target.field, []
    pairs = _sample_reports(alg, count, seed)
    for index, (plan, report) in enumerate(pairs):
        units = random.Random(f"{seed}:{index}")
        rows = [
            f.scale(_plan_row(plan, i, f), _unit_draw(units, f)) for i in plan.chosen
        ]
        labelled = tuple((f"g{i + 1}", alg.matrix(x)) for i, x in enumerate(rows))
        out.append((GeneratingSystem(labelled, admit_empty_word=True), report))
    return out
