"""An algebra in its own coordinates: its table, radical and powers.

An algebra A of matrices of dimension d is held as ``Algebra``: its RREF
basis, the coordinates of a vector of A (its entries at the d pivots),
and the structure constants that turn every product inside A into a
bilinear form on coordinates.  They are stored once, by right factor, and
only where nonzero; a pair of basis rows whose product is zero by its
supports is never visited (``exact_linalg._lefts_meeting``).  So building
the table, products and symmetry visit only nonzero constants.
The radical J of A, the powers J, J^2, ... and the subspace F*I + J^2 are
read off that table once each, when first asked for.  A basis row x of a
power is multiplied only by the rows y of J for which y * x can be
nonzero (``Algebra.lefts_meeting``): every other product is zero.

In a local algebra A = F*I + J every x is chi(x)*I plus a nilpotent, so J
is the kernel of the one linear character chi.  ``_character`` reads chi
on A's basis, up to one common nonzero factor, the same way for every A:

- over Q, as the trace, which is n*chi;
- over GF(p), as the coefficient of I in x^(p^e) with p^e >= n, which is
  chi(x)^(p^e) = chi(x), commutative or not.

Conversely that one-row kernel K is J exactly when K is a nilpotent
subalgebra: then K misses I, A = F*I + K, and K is an ideal.  Forming the
powers of K checks both, so it decides whether A is local; only then does
the nilpotency index N of J bound lengths by N - 1.  Written in A's own
coordinates, J does not depend on the basis A is given in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import NotASubalgebra, NotLocalForm, NotNilpotent
from .exact_linalg import (
    Matrix,
    PrimeField,
    Subspace,
    _by_row,
    _Echelon,
    _lefts_meeting,
    _meeting,
    _nullspace,
    _reduce,
    _support_index,
    _vec_mul,
    unvectorize,
    vectorize,
)


class Algebra:
    """An algebra A in its own RREF coordinates, with its structure constants.

    The coordinates of a vector of A are its entries at A's pivots, in
    ascending pivot order: each RREF row is 1 at its own pivot and 0 at the
    others.  ``right[q]`` maps each p, ascending, to the coordinates of
    row_p * row_q when that product is nonzero, and holds no entry when it
    is zero.  ``identity`` holds the coordinates of the identity matrix
    (None when A lacks it).  Building the table is the check that A is
    multiplicatively closed.
    """

    def __init__(self, space: Subspace):
        self.space = space
        f = self.field = space.field
        d = self.d = space.dim
        self.index = {p: i for i, p in enumerate(space.pivot_rows)}
        n = space.n
        rows = [_by_row(row, n) for row in space.pivot_rows.values()]
        lefts = _lefts_meeting(rows)
        self.right = [{} for _ in range(d)]
        for q, y in enumerate(rows):
            for p in lefts(y):
                prod = self.coordinates(_vec_mul(rows[p], y, n, f))
                if prod is None:
                    raise NotASubalgebra(
                        "span is not multiplicatively closed: "
                        "some basis product leaves it"
                    )
                if prod:
                    self.right[q][p] = prod
        self.identity = self.coordinates(vectorize(Matrix.identity(n, f)))

    @cached_property
    def commutative(self) -> bool:
        """True when A is commutative, that is when its table is symmetric."""
        right = self.right
        return all(
            right[p].get(q) == prod
            for q, col in enumerate(right)
            for p, prod in col.items()
        )

    @cached_property
    def powers(self) -> list:
        """RREF rows of J, J^2, ..., 0 for the local algebra A, in A's
        coordinates: the powers of the kernel of chi, which raise
        NotLocalForm unless that kernel is a nilpotent subalgebra."""
        if self.identity is None:
            raise NotLocalForm("the identity is not in the algebra")
        kernel = _nullspace([_character(self)], self.d, self.field).canonical()
        try:
            return _power_rows(kernel, self)
        except (NotASubalgebra, NotNilpotent) as exc:
            raise NotLocalForm(f"not scalars plus a nilpotent ideal: {exc}") from None

    @cached_property
    def modulus(self) -> dict:
        """RREF rows of F*I + J^2 in A's coordinates.

        By Nakayama's lemma a system S, with the identity admitted, generates
        the local algebra A = F*I + J exactly when span(S) + F*I + J^2 = A.
        """
        powers = self.powers
        ech = _Echelon(self.field, powers[1] if len(powers) > 1 else None)
        ech.insert(self.identity)
        return ech.canonical()

    def coordinates(self, vec: dict) -> dict | None:
        """Coordinates of a vectorized matrix, left as it is; None when it
        lies outside A."""
        index = self.index
        coords = {index[c]: v for c, v in vec.items() if c in index}
        if _reduce(vec, self.space.pivot_rows, self.field):
            return None
        return coords

    def mul(self, x: dict, y: dict) -> dict:
        """Coordinates of x * y; each column ``right[q]`` of y's support is
        walked from the shorter of it and x."""
        f, right = self.field, self.right
        out: dict = {}
        for q, yv in y.items():
            column = right[q]
            if len(x) <= len(column):
                for p, xv in x.items():
                    prod = column.get(p)
                    if prod is not None:
                        f.axpy(out, f.mul(xv, yv), prod)
            else:
                for p, prod in column.items():
                    xv = x.get(p)
                    if xv is not None:
                        f.axpy(out, f.mul(xv, yv), prod)
        return out

    def lefts_meeting(self, lefts: list):
        """For left factors given by coordinates, the function that lists,
        ascending, the positions of those g for which g * x can be nonzero:
        g * x is zero unless g holds a p with a stored row_p * row_q for
        some q in x."""
        index, right = _support_index(lefts), self.right
        return lambda x: _meeting(index, (p for q in x for p in right[q]))

    def vector(self, x: dict) -> dict:
        """The vectorized matrix with coordinates x."""
        f = self.field
        rows = list(self.space.pivot_rows.values())
        vec: dict = {}
        for p, v in x.items():
            f.axpy(vec, v, rows[p])
        return vec

    def matrix(self, x: dict) -> Matrix:
        """The matrix with coordinates x."""
        return unvectorize(self.vector(x), self.space.n, self.field)


def _character(alg: Algebra) -> dict:
    """chi on A's basis rows, up to one common nonzero factor, as a sparse
    row: the traces over Q, and over GF(p) each row_p^(p^e), p^e >= n,
    read at one coordinate of the identity."""
    f, n = alg.field, alg.space.n
    chi = {}
    if not isinstance(f, PrimeField):
        for p, row in enumerate(alg.space.pivot_rows.values()):
            # the diagonal of an n-by-n matrix sits at the coordinates i*(n+1)
            diagonal = (v for c, v in row.items() if c % (n + 1) == 0)
            trace = reduce(f.add, diagonal, f.zero())
            if trace:
                chi[p] = trace
        return chi
    exponent = f.p
    while exponent < n:
        exponent *= f.p
    at = next(iter(alg.identity))
    for p in range(alg.d):
        power, base, e = alg.identity, {p: f.one()}, exponent
        # once the power or a square of the base is zero, so is the result
        while e and power:
            if e & 1:
                power = alg.mul(power, base)
            e >>= 1
            if e:
                base = alg.mul(base, base)
                if not base:
                    power = {}
        if power.get(at):
            chi[p] = power[at]
    return chi


def radical_span(algebra: Subspace) -> Subspace:
    """The radical J of A, which must be scalars plus J; raises
    NotLocalForm otherwise."""
    alg = Algebra(algebra)
    ech = _Echelon(alg.field)
    for x in alg.powers[0].values():
        ech.insert(alg.vector(x))
    return ech.to_subspace(algebra.n)


def _power_rows(j_rows: dict, alg: Algebra) -> list:
    """RREF rows of J, J^2, ... down to the first zero power, in coordinates.

    J is given by its RREF rows in the coordinates of an algebra that
    contains it.  Each next power spans the products y * x of the basis of
    J itself with the current power's basis, as J * J^i = J^(i+1).  Each x
    is multiplied only by the rows y, ascending, for which y * x can be
    nonzero (``Algebra.lefts_meeting``); every other product is zero.
    Raises NotASubalgebra when J is not closed under products, and
    NotNilpotent when the dimensions stop strictly decreasing before
    reaching zero.
    """
    f = alg.field
    j_basis = list(j_rows.values())
    lefts = alg.lefts_meeting(j_basis)
    powers = [j_rows]
    current = j_basis
    while powers[-1]:
        nxt = _Echelon(f)
        for x in current:
            for r in lefts(x):
                prod = alg.mul(j_basis[r], x)
                # a product never formed is zero, so it lies in J
                if current is j_basis and _reduce(prod, j_rows, f):
                    raise NotASubalgebra(
                        "radical candidate is not multiplicatively closed: "
                        "some basis product leaves it"
                    )
                nxt.insert(prod)
        powers.append(nxt.canonical())
        if nxt.dim and nxt.dim >= len(current):
            dims = [len(rows) for rows in powers]
            raise NotNilpotent(f"power dimensions stalled at {nxt.dim} after {dims}")
        current = list(powers[-1].values())
    return powers


def radical_power_dims(radical: Subspace) -> tuple:
    """Dimensions of J, J^2, ... down to the first zero power, read off J's
    own table, on which J's rows are the unit coordinate vectors.

    Raises NotASubalgebra when J is not closed under products, and
    NotNilpotent when the dimensions stop strictly decreasing before
    reaching zero.
    """
    alg = Algebra(radical)
    units = {p: {p: alg.field.one()} for p in range(alg.d)}
    return tuple(len(rows) for rows in _power_rows(units, alg))


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

