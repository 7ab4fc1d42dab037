"""Commutativity tests, centralizers, and the maximality verdict.

A subalgebra A of dimension d is maximal commutative exactly when it is
commutative and equals the centralizer of its own generators.  Both are
read off A's structure-constant table and one rank: A is commutative when
its table is symmetric, and then A lies in the centralizer, so the two are
equal exactly when the centralizer's constraint rows have rank n*n - d.
That rank is read off the accumulator's row-echelon form, with no
canonical row built; the constraints are brought to RREF only for a
centralizer basis.  A constraint row is copied from a column and a negated
row of a generator, so building it needs no field multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import GeneratingSystem
from .errors import DimensionMismatch
from .exact_linalg import Subspace, _check_compatible, _Echelon, kernel, mat_mul
from .lengths import algebra_closure
from .radical import Algebra


def is_commutative(mats) -> tuple:
    """(True, None) if all pairs commute, else (False, first bad pair)."""
    mats = list(mats)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
                return False, (mats[a], mats[b])
    return True, None


def _constraint_rows(mats):
    """The rows of X*G - G*X = 0 for every G in ``mats``: the constraints
    whose kernel is the centralizer.  The matrices must be at least one, of
    one size and field.

    One sparse row per generator and output position (i, j) of X*G - G*X:
    it reads column j of G and row i of G, so positions where both are
    empty give no row and are not visited.  A row is column j of G beside
    the negated row i of G, which share one coordinate, X[i, j], and only
    when G[i, i] and G[j, j] are both nonzero, so no row needs a multiply.
    """
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("centralizer needs at least one matrix")
    first = mats[0]
    n, f = first.n, first.field
    for m in mats[1:]:
        _check_compatible(first, m)
    for g in mats:
        grows = g.sparse_rows
        gcols = [{} for _ in range(n)]
        for k, grow in enumerate(grows):
            for j, v in grow.items():
                gcols[j][k] = v
        cols = [j for j in range(n) if gcols[j]]
        for i, gi in enumerate(grows):
            at = i * n
            neg = [(k * n, f.neg(v)) for k, v in gi.items()]
            gii = gi.get(i)
            for j in range(n) if gi else cols:
                gj = gcols[j]
                # (X*G)[i, j] = sum_k X[i, k] G[k, j], (G*X)[i, j] = sum_k G[i, k] X[k, j]
                row = {at + k: v for k, v in gj.items()}
                for kn, v in neg:
                    row[kn + j] = v
                if gii is not None and j in gj:
                    v = f.sub(gj[j], gii)
                    if v:
                        row[at + j] = v
                    else:
                        del row[at + j]
                if row:
                    yield row


def centralizer(mats) -> Subspace:
    """All X with X*G = G*X for every given G, as a canonical subspace."""
    mats = list(mats)
    rows = list(_constraint_rows(mats))
    return kernel(rows, mats[0].n, mats[0].field)


@dataclass(frozen=True)
class MaximalityVerdict:
    """Outcome of the maximal-commutativity check for one system."""

    algebra_dim: int
    centralizer_dim: int
    is_commutative: bool
    is_maximal: bool
    counterexample: object = None


def is_maximal_commutative(system: GeneratingSystem) -> MaximalityVerdict:
    """Verdict for the algebra generated by the system.

    The counterexample is a non-commuting member pair when commutativity
    fails, otherwise the first centralizer basis element (in RREF order)
    that falls outside the generated algebra.
    """
    return _maximality(system.matrices, Algebra(algebra_closure(system)))


def _maximality(mats, alg: Algebra) -> MaximalityVerdict:
    """The maximality step: the generators ``mats`` against the algebra A
    of dimension d that they generate, with its table (``alg``).

    A is commutative exactly when its table is symmetric; only when it is
    not are member pairs multiplied, to name the first pair that does not
    commute.  A commutative A lies in the centralizer C(S), so C(S) = A
    once the constraint rows inserted reach rank n*n - d, and the rest are
    skipped.  Ranks build no canonical row; only when the full rank falls
    short are the constraints brought to RREF, for the kernel basis and
    its first element outside A.
    """
    closure, d = alg.space, alg.d
    ncoords = closure.n * closure.n
    commutes, pair = (True, None) if alg.commutative else is_commutative(mats)
    rank = _Echelon(closure.field)
    for row in _constraint_rows(mats):
        if commutes and rank.dim == ncoords - d:
            break
        rank.insert(row)
    cent_dim = ncoords - rank.dim
    if not commutes:
        return MaximalityVerdict(d, cent_dim, False, False, pair)
    if cent_dim == d:
        return MaximalityVerdict(d, d, True, True, None)
    cent = kernel(_constraint_rows(mats), closure.n, closure.field)
    outside = next(
        m for m in cent.basis_matrices() if not closure.contains_matrix(m)
    )
    return MaximalityVerdict(d, cent_dim, True, False, outside)
