"""Radical extraction for algebras of the form scalars plus nilpotents.

For an algebra A containing the identity, the candidate radical is the
span of the RREF basis rows other than the one carrying the identity's
leading coordinate.  Every candidate basis element is then verified
nilpotent; if one is not, A is not (visibly) of the expected local form
and the nilpotency-based length bound must not be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import GeneratingSystem
from .errors import NotLocalForm, NotNilpotent
from .exact_linalg import Matrix, Subspace, mat_mul, span_of, vectorize
from .lengths import _chain, _require_mult_closed


def radical_span(algebra: Subspace) -> Subspace:
    """Complement of the identity line inside A, verified nilpotent."""
    _require_mult_closed(algebra, "input span")
    n, f = algebra.n, algebra.field
    ident = Matrix.identity(n, f)
    if not algebra.contains_matrix(ident):
        raise NotLocalForm("the identity is not in the algebra")
    ivec = vectorize(ident)
    # Representation of the identity in the RREF basis reads off pivots.
    anchor = next(p for p in algebra.pivot_rows if p in ivec)
    candidate = Subspace(
        n, f, {p: r for p, r in algebra.pivot_rows.items() if p != anchor}
    )
    for pos, mat in enumerate(candidate.basis_matrices()):
        power = mat
        for _ in range(n - 1):
            if power.is_zero():
                break
            power = mat_mul(power, mat)
        if not power.is_zero():
            raise NotLocalForm(
                f"complement basis element {pos} is not nilpotent"
            )
    return candidate


def radical_power_dims(radical: Subspace) -> tuple:
    """Dimensions of J, J^2, ... down to the first zero power.

    Each next power spans the products of the current power's basis with
    the basis of J itself.  Raises NotNilpotent when the dimensions stop
    strictly decreasing before reaching zero.
    """
    _require_mult_closed(radical, "radical candidate")
    j_mats = radical.basis_matrices()
    dims = [radical.dim]
    if radical.dim == 0:
        return (0,)
    current = radical
    while True:
        products = [
            mat_mul(x, y) for x in current.basis_matrices() for y in j_mats
        ]
        nxt = span_of(products, n=radical.n, field=radical.field)
        dims.append(nxt.dim)
        if nxt.dim == 0:
            return tuple(dims)
        if nxt.dim >= current.dim:
            raise NotNilpotent(
                f"power dimensions stalled at {nxt.dim} after {dims}"
            )
        current = nxt


def nilpotency_index(radical: Subspace) -> int:
    """Smallest N with J^N = 0; returns 1 for the zero subspace."""
    return len(radical_power_dims(radical))


@dataclass(frozen=True)
class RadicalReport:
    """Radical data of a generated algebra plus the length bound verdict."""

    radical_dim: int
    nilpotency: int
    power_dims: tuple
    bound_holds: bool
    length: int | None


def bound_check(system: GeneratingSystem) -> RadicalReport:
    """Check length(S) <= N - 1 where N is the radical's nilpotency index."""
    report, spans = _chain(system)
    return _bound(spans[-1], report.length)


def _bound(algebra: Subspace, length: int | None) -> RadicalReport:
    """The bound step: a length (None if never reached) against N - 1."""
    radical = radical_span(algebra)
    power_dims = radical_power_dims(radical)
    nilpotency = len(power_dims)
    return RadicalReport(
        radical_dim=radical.dim,
        nilpotency=nilpotency,
        power_dims=power_dims,
        bound_holds=length is not None and length <= nilpotency - 1,
        length=length,
    )


__all__ = [
    "radical_span",
    "radical_power_dims",
    "nilpotency_index",
    "RadicalReport",
    "bound_check",
]
