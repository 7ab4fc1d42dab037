"""The radical of a local algebra, its powers, and the length bound.

The radical J of an algebra A of matrices is found as the kernel of one
linear map on A, written in A's own coordinates (``lengths._Coords``), so
it does not depend on the basis A is given in:

- over Q, J = {x : tr(xy) = 0 for all y in A} (Dickson's trace-form
  criterion);
- over GF(p), for commutative A, J is the kernel of x -> x^(p^e) with
  p^e >= n, which is GF(p)-linear there, and whose kernel is the set of
  nilpotent elements.

Non-commutative algebras over GF(p) are not supported.  A is local, of
the form scalars plus J, when it holds the identity and dim A - dim J = 1;
only then does the nilpotency index N of J bound lengths by N - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .constructions import GeneratingSystem
from .errors import NotASubalgebra, NotLocalForm, NotNilpotent
from .exact_linalg import PrimeField, Subspace, _Echelon, _nullspace, _reduce
from .lengths import _chain, _Coords


def _trace_form(coords: _Coords) -> list:
    """Rows of the Gram matrix tr(row_p * row_q) on A, over Q; it is
    symmetric, so its rows are the constraints of its kernel."""
    f, n = coords.field, coords.space.n
    zero = f.zero()
    traces = [
        reduce(f.add, (row.get(i * (n + 1), zero) for i in range(n)), zero)
        for row in coords.space.pivot_rows.values()
    ]

    def trace(x: dict):
        """The trace of the element of A with coordinates x."""
        return reduce(f.add, (f.mul(v, traces[r]) for r, v in x.items()), zero)

    gram = []
    for p in range(coords.d):
        entries = ((q, trace(coords.table[p, q])) for q in range(coords.d))
        gram.append({q: t for q, t in entries if t})
    return gram


def _frobenius(coords: _Coords) -> list:
    """Constraint rows of ker(x -> x^(p^e)), p^e >= n, on commutative A."""
    f, d = coords.field, coords.d
    if not coords.commutative:
        raise NotLocalForm(
            f"the radical over {f.name} is found only for commutative algebras"
        )
    exponent = f.p
    while exponent < coords.space.n:
        exponent *= f.p
    rows: list = [{} for _ in range(d)]
    for p in range(d):
        power, base, e = coords.identity, {p: f.one()}, exponent
        while e:
            if e & 1:
                power = coords.mul(power, base)
            e >>= 1
            if e:
                base = coords.mul(base, base)
        for r, v in power.items():
            rows[r][p] = v
    return rows


def _radical_rows(coords: _Coords) -> dict:
    """RREF rows of the radical J of A, in A's coordinates.

    Raises NotLocalForm when A lacks the identity, when dim A - dim J is
    not 1, or over GF(p) when A is not commutative.
    """
    if coords.identity is None:
        raise NotLocalForm("the identity is not in the algebra")
    f = coords.field
    constraints = (
        _frobenius(coords) if isinstance(f, PrimeField) else _trace_form(coords)
    )
    j_coords = _nullspace(constraints, coords.d, f)
    if coords.d - j_coords.dim != 1:
        raise NotLocalForm(
            f"the algebra modulo its radical has dimension "
            f"{coords.d - j_coords.dim}, not 1"
        )
    return j_coords.rows


def radical_span(algebra: Subspace, coords: _Coords | None = None) -> Subspace:
    """The radical J of A, which must be scalars plus J.

    ``coords`` is A's table when the caller has built it.  Raises
    NotLocalForm when A lacks the identity, when dim A - dim J is not 1, or
    over GF(p) when A is not commutative.
    """
    if coords is None:
        coords = _Coords(algebra, "input span")
    ech = _Echelon(coords.field)
    for x in _radical_rows(coords).values():
        ech.insert(coords.vector(x))
    return ech.to_subspace(algebra.n)


def _power_rows(j_rows: dict, coords: _Coords) -> list:
    """RREF rows of J, J^2, ... down to the first zero power, in coordinates.

    J is given by its RREF rows in the coordinates of an algebra that
    contains it.  Each next power spans the products of the current
    power's basis with the basis of J itself.  Raises NotASubalgebra when
    J is not closed under products, and NotNilpotent when the dimensions
    stop strictly decreasing before reaching zero.
    """
    f = coords.field
    j_basis = list(j_rows.values())
    powers = [j_rows]
    current = j_basis
    while powers[-1]:
        nxt = _Echelon(f)
        for x in current:
            for y in j_basis:
                prod = coords.mul(x, y)
                if current is j_basis and _reduce(dict(prod), j_rows, f):
                    raise NotASubalgebra(
                        "radical candidate is not multiplicatively closed: "
                        "some basis product leaves it"
                    )
                nxt.insert(prod)
        powers.append(nxt.rows)
        if nxt.dim and nxt.dim >= len(current):
            dims = [len(rows) for rows in powers]
            raise NotNilpotent(f"power dimensions stalled at {nxt.dim} after {dims}")
        current = list(nxt.rows.values())
    return powers


def radical_power_dims(radical: Subspace, coords: _Coords | None = None) -> tuple:
    """Dimensions of J, J^2, ... down to the first zero power.

    ``coords`` is the table of an algebra that contains J, when the caller
    has built it; otherwise J's own.  Raises NotASubalgebra when J lies
    outside that algebra or is not closed under products, and NotNilpotent
    when the dimensions stop strictly decreasing before reaching zero.
    """
    if coords is None:
        coords = _Coords(radical, "radical candidate")
    j_ech = _Echelon(coords.field)
    for row in radical.pivot_rows.values():
        x = coords.coordinates(dict(row))
        if x is None:
            raise NotASubalgebra("the radical candidate lies outside the algebra")
        j_ech.insert(x)
    return tuple(len(rows) for rows in _power_rows(j_ech.rows, coords))


def _local_powers(coords: _Coords) -> list:
    """RREF rows of J, J^2, ..., 0 for the local algebra A, in A's
    coordinates; raises NotLocalForm when A is not scalars plus J."""
    return _power_rows(_radical_rows(coords), coords)


def _unit_plus_square(coords: _Coords, powers: list) -> dict:
    """RREF rows of F*I + J^2 in A's coordinates, from A's ``powers``.

    By Nakayama's lemma a system S, with the identity admitted, generates
    the local algebra A = F*I + J exactly when span(S) + F*I + J^2 = A.
    """
    ech = _Echelon(coords.field, powers[1] if len(powers) > 1 else None)
    ech.insert(dict(coords.identity))
    return ech.rows


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
    coords = _Coords(spans[-1], "input span")
    return _bound(_local_powers(coords), report.length)


def _bound(powers: list, length: int | None) -> RadicalReport:
    """The bound step: a length (None if never reached) against N - 1,
    where N is the number of ``powers`` J, J^2, ..., 0."""
    nilpotency = len(powers)
    return RadicalReport(
        radical_dim=len(powers[0]),
        nilpotency=nilpotency,
        power_dims=tuple(len(rows) for rows in powers),
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
