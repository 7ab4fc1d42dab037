"""Exact sparse linear algebra over the rationals and over prime fields.

Scalars are plain Python values.  A rational is an ``int`` when it is
integral and a ``gmpy2.mpq`` (``fractions.Fraction`` when gmpy2 is
unavailable) only when it is not, so the 0/1 entries the families are built
from never pay for rational arithmetic.  GF(p) scalars are canonical
residues in ``range(p)``.  A ``Field`` object owns the arithmetic, so
matrices and subspaces never branch on the scalar kind themselves.

Storage is sparse.  A matrix holds one ``{col: value}`` map per row and a
vector is a ``{coord: value}`` map.  No map ever stores a zero, so equal
objects hold equal maps.  Every product is formed by one kernel,
``_vec_mul``, on its factors' nonempty rows ``{i: {j: value}}``: it costs
one axpy per nonzero a_ik whose row k of B is nonempty and writes A B
straight into vectorized coordinates (``mat_mul`` wraps it for matrices).
Callers that multiply many pairs skip those whose product is zero by its
supports: ``_lefts_meeting`` (``radical.Algebra.lefts_meeting`` on a
table) lists the left factors that can meet a right one, from an int
bitmask per key of the operands holding it (``_support_index``).
Matrices are immutable and 1-indexed at the API surface.  A matrix is
vectorized row-major: entry (i, j) lands at coordinate (i-1)*n + (j-1) of
the n*n coordinate space.

Subspaces of that space are stored in reduced row-echelon form, indexed
by pivot.  Every basis row is zero at every other row's pivot, so a vector
is reduced by one axpy per coordinate of it that is a pivot.  The RREF
basis of a span is unique, so two subspaces are equal exactly when their
bases are, and the result of ``span_of`` never depends on the order of its
inputs.  Vectors are collected by one accumulator, ``_Echelon``, which
keeps plain row-echelon form: each row is 1 at its lead and is never
back-eliminated, so an insert changes no stored row and a step that reads
only a dimension pays for no more.  ``_Echelon.canonical`` back-substitutes
its rows into RREF for the callers that read canonical rows.

Dense views are built on demand for callers that want them:
``Matrix.rows`` (a tuple of row tuples) and ``Subspace.basis`` (a tuple of
length-n*n tuples).  ``Matrix.from_rows``, ``kernel`` and ``unvectorize``
take dense sequences as well as sparse maps.  Apart from ``Matrix.__repr__``,
which prints ``.rows``, the package itself never reads the dense views.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DimensionMismatch, FieldMismatch, IndexOutOfRange, InvalidParams

try:
    from gmpy2 import mpq as _RAT
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _RAT


# Largest modulus a prime field may have.  Primality is tested by trial
# division up to its square root, so a larger modulus is refused first.
MAX_MODULUS = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# A rational literal: a decimal integer or num/den, in ASCII digits.
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Field:
    """Scalar arithmetic for one field; instances are small value objects."""

    name: str = "?"

    def zero(self):
        return 0

    def one(self):
        return 1

    def fmt(self, x) -> str:
        return str(x)

    def coerce(self, value):
        """Turn an int or string into a canonical scalar; pass scalars through."""
        if isinstance(value, bool):
            raise InvalidParams("booleans are not scalars")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, str):
            return self.parse(value)
        return self._passthrough(value)

    def _passthrough(self, value):
        raise InvalidParams(f"not a scalar for {self.name}: {value!r}")

    def parse(self, s: str):
        """A decimal integer or num/den in ASCII digits, with den nonzero in
        the field, taken into the field; anything else is refused."""
        m = _RATIONAL_LITERAL.fullmatch(s)
        if m is not None:
            num, den = m.groups()
            try:
                if den is None:
                    return self.from_int(int(num))
                den = self.from_int(int(den))
                if den:
                    return self.mul(self.from_int(int(num)), self.inv(den))
            except ValueError:  # more digits than int() converts
                pass
        raise InvalidParams(
            f"bad {self.name} literal {s!r}: expected an integer or num/den "
            "with den nonzero in the field"
        )

    def scale(self, x: dict, c) -> dict:
        """c * x for a sparse map x."""
        if not c:
            return {}
        return {k: self.mul(c, v) for k, v in x.items()}

    # The remaining methods are supplied by the concrete subclasses.


def _int_if_integral(x):
    """x as an int when it is an integral rational, else x itself."""
    if type(x) is not int and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class RationalField(Field):
    """Arbitrary-precision rationals.

    An integral value is always a plain ``int``; only a non-integral one is
    a ``_RAT``, reduced with a positive denominator.  The two compare and
    hash alike, and ``str`` prints them alike.
    """

    @property
    def name(self) -> str:
        return "rational"

    def from_int(self, i: int):
        return int(i)

    def _passthrough(self, value):
        if isinstance(value, type(_RAT(0))):
            return _int_if_integral(value)
        raise InvalidParams(f"not a rational scalar: {value!r}")

    def add(self, a, b):
        return _int_if_integral(a + b)

    def sub(self, a, b):
        return _int_if_integral(a - b)

    def mul(self, a, b):
        return _int_if_integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _int_if_integral(_RAT(1) / a)

    def scale(self, x: dict, c) -> dict:
        """c * x for a sparse map x."""
        if not c:
            return {}
        out = {k: c * v for k, v in x.items()}
        for k, v in out.items():
            if type(v) is not int and v.denominator == 1:
                out[k] = int(v)
        return out

    def axpy(self, y: dict, c, x: dict) -> None:
        """y += c * x in place on sparse maps; cancelled entries are dropped."""
        if not c:
            return
        for k, xv in x.items():
            v = y.get(k)
            if v is None:
                v = c * xv
            else:
                v = v + c * xv
                if not v:
                    del y[k]
                    continue
            if type(v) is not int and v.denominator == 1:
                v = int(v)
            y[k] = v


@dataclass(frozen=True)
class PrimeField(Field):
    """GF(p) with elements stored as canonical residues in range(p)."""

    p: int

    def __post_init__(self):
        p = self.p
        if isinstance(p, int) and p > MAX_MODULUS:
            raise InvalidParams(f"modulus {p} exceeds the supported maximum {MAX_MODULUS}")
        if not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p):
            raise InvalidParams(f"modulus must be prime, got {p!r}")

    @property
    def name(self) -> str:
        return f"gf:{self.p}"

    def from_int(self, i: int):
        return i % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def axpy(self, y: dict, c, x: dict) -> None:
        """y += c * x in place on sparse maps; cancelled entries are dropped."""
        if not c:
            return
        p = self.p
        for k, xv in x.items():
            v = y.get(k)
            if v is None:
                # c and xv are nonzero residues and p is prime.
                y[k] = c * xv % p
            else:
                v = (v + c * xv) % p
                if v:
                    y[k] = v
                else:
                    del y[k]


QQ = RationalField()


def field_from_name(name: str) -> Field:
    """Parse a field descriptor: "rational" or "gf:<p>", with p written as
    ``str(p)`` writes it: "gf: 7", "gf:+7", "gf:07" and "gf:1_9" are bad."""
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise InvalidParams(f"bad field descriptor {name!r}") from None
        if name == f"gf:{p}":
            return PrimeField(p)
    raise InvalidParams(f"bad field descriptor {name!r}")


def _check_compatible(a, b):
    """Matrices, subspaces and systems combine only at one size and field."""
    if a.n != b.n:
        raise DimensionMismatch(f"sizes differ: {a.n} vs {b.n}")
    if a.field != b.field:
        raise FieldMismatch(f"fields differ: {a.field.name} vs {b.field.name}")


def _as_sparse(vec, ncoords: int, field: Field) -> dict:
    """A fresh {coord: value} copy of a sparse map or a dense sequence."""
    if isinstance(vec, dict):
        return dict(vec)
    if len(vec) != ncoords:
        raise DimensionMismatch(f"expected {ncoords} coordinates, got {len(vec)}")
    out = {}
    for idx, v in enumerate(vec):
        v = field.coerce(v)
        if v:
            out[idx] = v
    return out


@dataclass(frozen=True)
class Matrix:
    """Immutable n-by-n matrix with 1-based index accessors.

    ``sparse_rows`` is a tuple of n ``{col: value}`` maps (0-based columns,
    nonzero values only).  ``rows`` is the dense view.
    """

    n: int
    field: Field
    sparse_rows: tuple

    @property
    def rows(self) -> tuple:
        z, n = self.field.zero(), self.n
        return tuple(tuple(row.get(j, z) for j in range(n)) for row in self.sparse_rows)

    @staticmethod
    def zero(n: int, field: Field = QQ) -> "Matrix":
        return Matrix(n, field, tuple({} for _ in range(n)))

    @staticmethod
    def identity(n: int, field: Field = QQ) -> "Matrix":
        o = field.one()
        return Matrix(n, field, tuple({i: o} for i in range(n)))

    @staticmethod
    def from_rows(rows, field: Field = QQ) -> "Matrix":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix rows must form a square array")
        return Matrix(n, field, tuple(_as_sparse(row, n, field) for row in rows))

    def entry(self, i: int, j: int):
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i}, {j}) outside 1..{self.n}")
        return self.sparse_rows[i - 1].get(j - 1, self.field.zero())

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        f = self.field
        return Matrix(self.n, f, tuple(f.scale(row, c) for row in self.sparse_rows))

    def _plus(self, other: "Matrix", c) -> "Matrix":
        """self + c * other."""
        _check_compatible(self, other)
        f = self.field
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(ra)
            f.axpy(acc, c, rb)
            out.append(acc)
        return Matrix(self.n, f, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.one())

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.neg(self.field.one()))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __hash__(self) -> int:
        rows = tuple(frozenset(r.items()) for r in self.sparse_rows)
        return hash((self.n, self.field, rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.fmt(v) for v in row) for row in self.rows)
        return f"Matrix({self.n}, {self.field.name}, [{body}])"


def matrix_unit(n: int, i: int, j: int, field: Field = QQ) -> Matrix:
    """The matrix with a single 1 at 1-based position (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"unit position ({i}, {j}) outside 1..{n}")
    rows = tuple({} for _ in range(n))
    rows[i - 1][j - 1] = field.one()
    return Matrix(n, field, rows)


def _by_row(vec: dict, n: int) -> dict:
    """The nonempty rows ``{i: {j: value}}`` of a vectorized n-by-n matrix."""
    rows: dict = {}
    for c, v in vec.items():
        i, j = divmod(c, n)
        rows.setdefault(i, {})[j] = v
    return rows


def _vec_mul(a: dict, b: dict, n: int, field: Field) -> dict:
    """Vectorized A B for A and B given by their nonempty rows (``_by_row``):
    row i of A B combines the rows k of B at the nonzero a_ik, one axpy for
    each a_ik whose row k of B is nonempty."""
    axpy = field.axpy
    out: dict = {}
    for i, arow in a.items():
        acc: dict = {}
        for k, aik in arow.items():
            brow = b.get(k)
            if brow is not None:
                axpy(acc, aik, brow)
        base = i * n
        for j, v in acc.items():
            out[base + j] = v
    return out


def _support_index(supports) -> dict:
    """Each key of the given supports -> an int whose bit i is set when the
    i-th support holds that key."""
    index: dict = {}
    for i, keys in enumerate(supports):
        bit = 1 << i
        for k in keys:
            index[k] = index.get(k, 0) | bit
    return index


def _meeting(index: dict, keys) -> list:
    """The positions, ascending, of the supports in ``index`` that hold
    some of the keys."""
    get, mask = index.get, 0
    for k in keys:
        mask |= get(k, 0)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _lefts_meeting(lefts: list):
    """For left factors given by their nonempty rows (``_by_row``), the
    function that lists, ascending, the positions of those g for which
    g * x can be nonzero, for x given the same way: g * x is zero unless a
    column of g is a nonempty row of x."""
    index = _support_index([j for row in g.values() for j in row] for g in lefts)
    return lambda x: _meeting(index, x)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """A B, formed by ``_vec_mul``."""
    _check_compatible(a, b)
    n, f = a.n, a.field
    ab = _vec_mul(_by_row(vectorize(a), n), _by_row(vectorize(b), n), n, f)
    return unvectorize(ab, n, f)


def vectorize(m: Matrix) -> dict:
    """Sparse row-major coordinates: entry (i, j) at (i-1)*n + (j-1)."""
    n = m.n
    return {
        i * n + j: v for i, row in enumerate(m.sparse_rows) for j, v in row.items()
    }


def unvectorize(vec, n: int, field: Field) -> Matrix:
    """The matrix of a sparse or dense coordinate vector of length n*n."""
    rows = tuple({} for _ in range(n))
    for c, v in _as_sparse(vec, n * n, field).items():
        rows[c // n][c % n] = v
    return Matrix(n, field, rows)


def _reduce(vec: dict, index: dict, field: Field) -> dict:
    """Eliminate vec in place against RREF rows given as pivot -> row.

    Each row is zero at every other pivot, so one axpy per pivot coordinate
    present in vec clears all of them.
    """
    for c in [c for c in vec if c in index]:
        field.axpy(vec, field.neg(vec[c]), index[c])
    return vec


class _Echelon:
    """Mutable row-echelon accumulator: sparse rows indexed by their leads.

    Each stored row is 1 at its lead, its least coordinate.  Rows are never
    back-eliminated, and a stored row is never changed in place, so seed
    rows and the rows of ``canonical`` can be shared.  ``canonical`` builds
    the unique RREF rows of the span, for the callers that read them.
    """

    def __init__(self, field: Field, rows: dict | None = None):
        self.field = field
        self.rows = dict(rows or {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> bool:
        """Add one vector, which is consumed; True when the dimension grew.

        The vector is reduced only until its least coordinate is no lead:
        a nonzero combination of the rows has its least coordinate at the
        least lead it uses, so the vector is then independent of them.
        """
        f, rows = self.field, self.rows
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                lv = vec[lead]
                rows[lead] = vec if lv == f.one() else f.scale(vec, f.inv(lv))
                return True
            f.axpy(vec, f.neg(vec[lead]), row)
        return False

    def canonical(self) -> dict:
        """The RREF rows of the span, pivot -> row in ascending order.

        Rows are back-substituted from the last lead down: the rows already
        built are zero at each other's pivots, so one pass of ``_reduce``
        clears a row at all of them.
        """
        f, out = self.field, {}
        for lead in sorted(self.rows, reverse=True):
            row = self.rows[lead]
            if any(c in out for c in row):
                row = _reduce(dict(row), out, f)
            out[lead] = row
        return dict(reversed(out.items()))

    def to_subspace(self, n: int) -> "Subspace":
        return Subspace(n, self.field, self.canonical())


@dataclass(frozen=True)
class Subspace:
    """A subspace of vectorized n-by-n matrices, held as a unique RREF basis.

    ``pivot_rows`` maps each pivot, in ascending order, to its basis row, a
    ``{coord: value}`` map.  ``basis`` is the dense view of the rows.
    """

    n: int
    field: Field
    pivot_rows: dict

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    @property
    def basis(self) -> tuple:
        z, ncoords = self.field.zero(), self.n * self.n
        rows = self.pivot_rows.values()
        return tuple(tuple(row.get(c, z) for c in range(ncoords)) for row in rows)

    def contains_matrix(self, m: Matrix) -> bool:
        _check_compatible(m, self)
        return not _reduce(vectorize(m), self.pivot_rows, self.field)

    def basis_matrices(self) -> list:
        return [unvectorize(row, self.n, self.field) for row in self.pivot_rows.values()]

    def __hash__(self) -> int:
        rows = frozenset((p, frozenset(r.items())) for p, r in self.pivot_rows.items())
        return hash((self.n, self.field, rows))


def span_of(mats, n: int | None = None, field: Field | None = None) -> Subspace:
    """RREF span of the vectorizations of the given matrices."""
    mats = list(mats)
    if not mats:
        if n is None or field is None:
            raise DimensionMismatch("empty span needs explicit n and field")
        return Subspace(n, field, {})
    first = mats[0]
    for m in mats[1:]:
        _check_compatible(first, m)
    if n is not None and n != first.n:
        raise DimensionMismatch(f"matrix size {first.n} vs requested {n}")
    if field is not None and field != first.field:
        raise FieldMismatch(f"fields differ: {first.field.name} vs {field.name}")
    ech = _Echelon(first.field)
    for m in mats:
        ech.insert(vectorize(m))
    return ech.to_subspace(first.n)


def kernel(rows, n: int, field: Field) -> Subspace:
    """Nullspace of a homogeneous system whose unknowns are n*n coordinates.

    Each input row is one linear constraint, a sparse map or a dense
    sequence of length n*n.  The result is a canonical RREF subspace.
    """
    return _nullspace(rows, n * n, field).to_subspace(n)


def _nullspace(rows, ncoords: int, field: Field) -> _Echelon:
    """Echelon of the vectors over coordinates 0..ncoords-1 that every
    constraint row sends to zero."""
    ech = _Echelon(field)
    for row in rows:
        ech.insert(_as_sparse(row, ncoords, field))
    pivot_rows = ech.canonical()
    # In RREF every off-pivot coordinate of a row is free, and free
    # coordinate c spans the kernel vector e_c - sum over pivots p of
    # row_p[c] * e_p.
    one = field.one()
    free_vecs: dict = {}
    for p, row in pivot_rows.items():
        for c, v in row.items():
            if c != p:
                free_vecs.setdefault(c, {c: one})[p] = field.neg(v)
    out = _Echelon(field)
    for c in range(ncoords):
        if c not in pivot_rows:
            out.insert(free_vecs.get(c) or {c: one})
    return out
