"""Commutativity tests, centralizers, and the maximality verdict.

A subalgebra is maximal commutative exactly when it equals the centralizer
of its own generators, so the verdict reduces to one kernel computation
and one subspace comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import GeneratingSystem
from .errors import DimensionMismatch
from .exact_linalg import Subspace, _check_compatible, kernel, mat_mul
from .lengths import algebra_closure


def is_commutative(mats) -> tuple:
    """(True, None) if all pairs commute, else (False, first bad pair)."""
    mats = list(mats)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
                return False, (mats[a], mats[b])
    return True, None


def centralizer(mats) -> Subspace:
    """All X with X*G = G*X for every given G, as a canonical subspace.

    One sparse constraint row per generator and output position (i, j) of
    X*G - G*X: it reads column j of G and row i of G, so positions where
    both are empty give no row.
    """
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("centralizer needs at least one matrix")
    first = mats[0]
    n, f = first.n, first.field
    for m in mats[1:]:
        _check_compatible(first, m)
    minus_one = f.neg(f.one())
    rows = []
    for g in mats:
        grows = g.sparse_rows
        gcols = [{} for _ in range(n)]
        for k, grow in enumerate(grows):
            for j, v in grow.items():
                gcols[j][k] = v
        for i, gi in enumerate(grows):
            for j, gj in enumerate(gcols):
                if not (gi or gj):
                    continue
                # (X*G)[i, j] = sum_k X[i, k] G[k, j], (G*X)[i, j] = sum_k G[i, k] X[k, j]
                row = {i * n + k: v for k, v in gj.items()}
                f.axpy(row, minus_one, {k * n + j: v for k, v in gi.items()})
                if row:
                    rows.append(row)
    return kernel(rows, n, f)


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
    return _maximality(system.matrices, algebra_closure(system))


def _maximality(mats, closure: Subspace) -> MaximalityVerdict:
    """The maximality step: the generators ``mats`` against their closure."""
    commutes, pair = is_commutative(mats)
    cent = centralizer(mats)
    if not commutes:
        return MaximalityVerdict(closure.dim, cent.dim, False, False, pair)
    if cent == closure:
        return MaximalityVerdict(closure.dim, cent.dim, True, True, None)
    outside = next(
        m for m in cent.basis_matrices() if not closure.contains_matrix(m)
    )
    return MaximalityVerdict(closure.dim, cent.dim, True, False, outside)
