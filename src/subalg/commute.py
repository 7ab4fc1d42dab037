"""Commutativity tests, centralizers, and the maximality verdict.

A subalgebra A of dimension d is maximal commutative exactly when it is
commutative and equals the centralizer of its own generators.  Both are
read off A's structure-constant table and one rank: A is commutative when
its table is symmetric, and then A lies in the centralizer, so the two are
equal exactly when the centralizer's constraints have rank n*n - d.

Most constraints of a sparse generator have one entry and only say that a
coordinate of X is zero.  They are read off the generator's sparsity
pattern as a set of zero coordinates, with no row built.  Their unit rows
seed the rank's accumulator, already in row-echelon form, and
``lengths._grow`` fills it with the other rows as built; the rank is read
off with no canonical row built.  The constraints are brought to RREF
only for a centralizer basis.  A constraint row is copied from a column
and a negated row of a generator, so building it needs no field multiply.
"""

from __future__ import annotations

from .constructions import GeneratingSystem
from .errors import DimensionMismatch
from .exact_linalg import Record, Subspace, _check_compatible, _Echelon, kernel, mat_mul
from .lengths import _grow, algebra_closure
from .radical import Algebra


def is_commutative(mats) -> tuple:
    """(True, None) if all pairs commute, else (False, first bad pair)."""
    mats = list(mats)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
                return False, (mats[a], mats[b])
    return True, None


def _constraints(mats):
    """The constraints X*G - G*X = 0 for every G in ``mats``, whose kernel
    is the centralizer, as ``(zero, rows)``: the set of coordinates of X
    that a one-entry constraint forces to zero, and the list of constraint
    rows with two entries or more.  The matrices must be at least one, of
    one size and field.

    Output position (i, j) of X*G - G*X reads column j of G, placed in row
    i of X, and minus row i of G, placed in column j.  Where row i of G is
    empty the constraint is the column alone, and where column j is empty
    it is the negated row alone: a one-entry column or row gives a zero
    coordinate, and no dict is built for it.  Where both are nonempty they
    share one coordinate, X[i, j], and only when G[i, i] and G[j, j] are
    both nonzero, so no row needs a multiply; a row left with one entry
    there gives a zero coordinate too.  A scalar G commutes with every X,
    so it gives no constraint and is skipped.
    """
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("centralizer needs at least one matrix")
    first = mats[0]
    n, f = first.n, first.field
    for m in mats[1:]:
        _check_compatible(first, m)
    zero, rows = set(), []
    for g in mats:
        grows = g.sparse_rows
        c = grows[0].get(0)
        if all(gi == {i: c} for i, gi in enumerate(grows)):
            continue
        gcols, bare, full = {}, [], []
        for i, gi in enumerate(grows):
            if not gi:
                bare.append(i * n)
                continue
            full.append(i)
            for j, v in gi.items():
                gcols.setdefault(j, {})[i] = v
        # (X*G)[i, j] = sum_k X[i, k] G[k, j], (G*X)[i, j] = sum_k G[i, k] X[k, j]
        # row i of G empty: column j of G, placed in row i of X
        for gj in gcols.values():
            if len(gj) == 1:
                zero.update([at + k for at in bare for k in gj])
            else:
                rows.extend({at + k: v for k, v in gj.items()} for at in bare)
        empty = [j for j in range(n) if j not in gcols]
        for i in full:
            gi = grows[i]
            neg = [(k * n, f.neg(v)) for k, v in gi.items()]
            # column j of G empty: minus row i of G, placed in column j of X
            if len(neg) == 1:
                zero.update([neg[0][0] + j for j in empty])
            else:
                rows.extend({kn + j: v for kn, v in neg} for j in empty)
            at, gii = i * n, gi.get(i)
            for j, gj in gcols.items():
                row = {at + k: v for k, v in gj.items()}
                for kn, v in neg:
                    row[kn + j] = v
                if gii is not None and j in gj:
                    v = f.sub(gj[j], gii)
                    if v:
                        row[at + j] = v
                    else:
                        del row[at + j]
                if len(row) > 1:
                    rows.append(row)
                else:
                    zero.update(row)
    return zero, rows


def centralizer(mats) -> Subspace:
    """All X with X*G = G*X for every given G, as a canonical subspace: the
    kernel of a unit row per zero coordinate and of the other rows."""
    mats = list(mats)
    zero, rows = _constraints(mats)
    n, field = mats[0].n, mats[0].field
    return kernel([{c: field.one()} for c in zero] + rows, n, field)


class MaximalityVerdict(Record):
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
    commute.  The rank of the centralizer constraints starts from the unit
    rows of the zero coordinates, seeded with no insert, and ``_grow``
    inserts the other rows.  A commutative A lies in the centralizer
    C(S), so C(S) = A once the rank reaches n*n - d, and ``_grow`` stops
    there.  Ranks build no canonical row; only when the full rank falls
    short are the constraints brought to RREF, for the kernel basis and
    its first element outside A.
    """
    closure, d = alg.space, alg.d
    n, field = closure.n, closure.field
    commutes, pair = (True, None) if alg.commutative else is_commutative(mats)
    zero, rows = _constraints(mats)
    rank, full = _Echelon(field, {c: {c: field.one()} for c in zero}), n * n - d
    _grow(rank, rows, full=full if commutes else None)
    cent_dim = n * n - rank.dim
    if not commutes:
        return MaximalityVerdict(d, cent_dim, False, False, pair)
    if cent_dim == d:
        return MaximalityVerdict(d, d, True, True, None)
    cent = centralizer(mats)
    outside = next(
        m for m in cent.basis_matrices() if not closure.contains_matrix(m)
    )
    return MaximalityVerdict(d, cent_dim, True, False, outside)
