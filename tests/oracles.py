"""Independent oracles used to pin expected values.

The sympy oracles compute ranks, spans, and word products with no overlap
with the package's own linear algebra; they work over the rationals, and
field-independence of the structures under test is checked separately.
``reference_maximality`` is the maximality verdict the slow way, from the
package's whole centralizer, and ``DenseRef`` a textbook dense
Gauss-Jordan over every test field.  ``reference_samples`` is the
sampler with dense passes: it draws the same partner pairs, member count
and ordered members, recombines the whole basis of every candidate by
row operations, accepts by a rank test, and scales each sample's members
by units from the stream seeded by (seed, sample index).
``_spans_modulo`` is that rank test modulo F*I + J^2, in an echelon of
its own, and ``full_walk_constraint_rows`` the centralizer constraints
from a walk over every output position.  ``all_pairs_power_rows`` is the
radical's power chain from every product of a power's basis with J's
basis, on J's rows in an algebra's coordinates (``coordinate_rows``).
``all_pairs_chain``, ``all_pairs_coord_chain`` and ``all_pairs_table``
are the span chains and the structure-constant table from every product
of members, frontier vectors or basis rows, with no support index;
``table_of`` rebuilds an algebra's p-major table from its columns.
``draw_conjugator`` draws a similarity P with its inverse.
``open_bracket_system`` is a local algebra whose length stays below its
radical bound.
``reference_witness_system`` and ``reference_witness_system_bkm`` build
the witness systems by enumerating their unit pairs, not by filtering the
family's full system.  ``enumerate_words`` lists every word of at most a given length,
the word-enumeration oracle for span chains.  ``rref``, ``span_of``,
``commutator``, ``subspace_contains``, ``subspace_sum``,
``contains_vector`` and ``pivots`` are conveniences on top of the
package's sparse core that only tests use.
"""

import random
from fractions import Fraction
from math import floor, isqrt, log

import sympy
from hypothesis import strategies as st

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    DimensionMismatch,
    Field,
    FieldMismatch,
    GeneratingSystem,
    MaximalityVerdict,
    Matrix,
    NotASubalgebra,
    NotNilpotent,
    RationalField,
    Subspace,
    centralizer,
    index_sets,
    is_commutative,
    mat_mul,
    matrix_unit,
    shift_matrix,
)
from subalg.exact_linalg import (
    _as_sparse,
    _by_row,
    _check_compatible,
    _Echelon,
    _reduce,
    _vec_mul,
    vectorize,
)
from subalg.lengths import LengthReport, _coord_chain, _grow, _word_steps
from subalg.radical import Algebra


def to_sympy(m: Matrix) -> sympy.Matrix:
    assert isinstance(m.field, RationalField), "oracles run over the rationals"
    return sympy.Matrix(
        [
            [sympy.Rational(int(v.numerator), int(v.denominator)) for v in row]
            for row in m.rows
        ]
    )


def sympy_rank_of_matrices(mats) -> int:
    """Rank of the stack of row-major vectorizations."""
    if not mats:
        return 0
    rows = [list(to_sympy(m).reshape(1, m.n * m.n)) for m in mats]
    return sympy.Matrix(rows).rank()


def sympy_word_products(system, max_len: int):
    """All sympy products of at most max_len members, identity included
    when the system admits the empty word."""
    mats = [to_sympy(m) for m in system.matrices]
    n = system.n
    words = []
    if system.admit_empty_word:
        words.append(sympy.eye(n))
    current = [sympy.eye(n)]
    for _ in range(max_len):
        current = [prefix * g for prefix in current for g in mats]
        words.extend(current)
    return words


def sympy_word_span_dims(system, max_len: int) -> list:
    """Dimensions of the spans of words of length <= i, for i = 0..max_len."""
    n = system.n
    dims = []
    stacked = []
    mats = [to_sympy(m) for m in system.matrices]
    if system.admit_empty_word:
        stacked.append(list(sympy.eye(n).reshape(1, n * n)))
    dims.append(sympy.Matrix(stacked).rank() if stacked else 0)
    current = [sympy.eye(n)]
    for _ in range(max_len):
        current = [prefix * g for prefix in current for g in mats]
        stacked.extend(list(w.reshape(1, n * n)) for w in current)
        dims.append(sympy.Matrix(stacked).rank())
    return dims


def as_fraction_rows(subspace) -> list:
    """Package subspace basis converted to Fractions for sympy comparison."""
    return [
        [Fraction(int(v.numerator), int(v.denominator)) for v in row]
        for row in subspace.basis
    ]


def sympy_rref_rows(vectors) -> list:
    """Canonical RREF rows (zero rows dropped) of integer/Fraction vectors."""
    m = sympy.Matrix([list(v) for v in vectors])
    reduced, _ = m.rref()
    rows = []
    for i in range(reduced.rows):
        row = list(reduced.row(i))
        if any(v != 0 for v in row):
            rows.append([Fraction(str(v)) for v in row])
    return rows


def enumerate_words(system, max_len: int, budget: int = 1_000_000) -> list:
    """All products of at most max_len members, in index-lexicographic order.

    The identity is listed first when the empty word is admitted.  Raises
    BudgetExceeded when the number of words of the top length,
    len(members) ** max_len, exceeds the budget.
    """
    return [w for step in _word_steps(system, max_len, budget) for w in step]


def mat_pow(a: Matrix, e: int) -> Matrix:
    """a ** e by repeated multiplication; e = 0 gives the identity."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = Matrix.identity(a.n, a.field)
    for _ in range(e):
        result = mat_mul(result, a)
    return result


# Power layout of a shift chain: the s-th power of the chain starting at
# row `start` is the sum of E(start+h, start+h+s) for h in 0..k+1-s, and
# every power past k+1 vanishes.
def shift_power_support(start: int, k: int, s: int) -> tuple:
    if s < 1:
        raise ValueError("power must be >= 1")
    if s >= k + 2:
        return ()
    return tuple((start + h, start + h + s) for h in range(k + 2 - s))


def mat_power_of_chain(p_n: int, start: int, k: int, s: int, field: Field = QQ) -> Matrix:
    """Closed-form s-th power of a shift chain, for cross-checking mat_pow."""
    result = Matrix.zero(p_n, field)
    for i, j in shift_power_support(start, k, s):
        result = result + matrix_unit(p_n, i, j, field)
    return result


def matrix_power_dims(radical) -> tuple:
    """Dimensions of J, J^2, ... down to the first zero power, formed from
    matrix products in the n*n coordinates: the reference for the
    structure-constant power chain.  The input must be closed."""
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


def all_pairs_power_rows(j_rows: dict, alg: Algebra) -> list:
    """RREF rows of J, J^2, ... down to the first zero power, in coordinates.

    J is given by its RREF rows in the coordinates of an algebra that
    contains it.  Each next power spans the products of the current
    power's basis with the basis of J itself.  Raises NotASubalgebra when
    J is not closed under products, and NotNilpotent when the dimensions
    stop strictly decreasing before reaching zero.
    """
    f = alg.field
    j_basis = list(j_rows.values())
    powers = [j_rows]
    current = j_basis
    while powers[-1]:
        nxt = _Echelon(f)
        for x in current:
            for y in j_basis:
                prod = alg.mul(x, y)
                if current is j_basis and _reduce(dict(prod), j_rows, f):
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


def all_pairs_chain(system):
    """The span chain in n*n coordinates with every product of a member and
    a frontier row formed: (LengthReport, per-step spans), each frontier
    row multiplied by every member in order."""
    n, f = system.n, system.field
    ech = _Echelon(f)
    if system.admit_empty_word:
        ech.insert(vectorize(system.identity()))
    spans = [ech.to_subspace(n)]
    vecs = [vectorize(m) for m in system.matrices]
    members = [_by_row(vec, n) for vec in vecs]
    while True:
        frontier = [_by_row(x, n) for x in _grow(ech, vecs)]
        spans.append(ech.to_subspace(n))
        if spans[-1].dim == spans[-2].dim:
            break
        vecs = (_vec_mul(g, x, n, f) for x in frontier for g in members)
    dims = tuple(s.dim for s in spans)
    stabilization = len(spans) - 1
    return LengthReport(dims, stabilization, stabilization - 1, dims[-1]), spans


def all_pairs_coord_chain(alg: Algebra, members: list, admit_empty_word: bool):
    """The unscreened chain of members of A in A's coordinates with every
    product formed: at step 2 each unordered pair of grown members once on
    a commutative table, else every member times each grown one, and at
    later steps every member times each frontier vector."""
    d = alg.d
    ech = _Echelon(alg.field)
    if admit_empty_word:
        ech.insert(dict(alg.identity))
    dims = [ech.dim]
    grown = [i for i, g in enumerate(members) if ech.dim < d and ech.insert(dict(g))]
    dims.append(ech.dim)
    mul = alg.mul
    if alg.commutative:
        vecs = (
            mul(members[i], members[j])
            for k, j in enumerate(grown)
            for i in grown[: k + 1]
        )
    else:
        vecs = (mul(g, members[j]) for j in grown for g in members)
    while dims[-1] != dims[-2]:
        if dims[-1] == d:
            dims.append(d)
            break
        frontier = _grow(ech, vecs, full=d)
        dims.append(ech.dim)
        vecs = (mul(g, x) for x in frontier for g in members)
    length = dims.index(d) if d in dims else None
    return LengthReport(tuple(dims), len(dims) - 1, length, d)


def all_pairs_table(space: Subspace, alg: Algebra) -> tuple:
    """(table, right) of the algebra ``alg`` holds for ``space``, from every
    product of two basis rows, p ascending and then q, in coordinates."""
    n, f = space.n, space.field
    rows = [_by_row(row, n) for row in space.pivot_rows.values()]
    table, right = {}, [{} for _ in rows]
    for p, x in enumerate(rows):
        for q, y in enumerate(rows):
            prod = alg.coordinates(_vec_mul(x, y, n, f))
            if prod is None:
                raise NotASubalgebra("some basis product leaves the span")
            if prod:
                table[p, q] = right[q][p] = prod
    return table, right


def table_of(alg: Algebra) -> dict:
    """The nonzero products {(p, q): row_p * row_q} of ``alg``, p-major,
    rebuilt from its columns ``alg.right``."""
    return {
        (p, q): alg.right[q][p]
        for p in range(alg.d)
        for q in range(alg.d)
        if p in alg.right[q]
    }


def coordinate_rows(space: Subspace, alg: Algebra) -> dict:
    """RREF rows, in the coordinates of ``alg``, of a subspace inside it."""
    ech = _Echelon(alg.field)
    for row in space.pivot_rows.values():
        ech.insert(alg.coordinates(dict(row)))
    return ech.canonical()


def _unit_members(n, pairs, field):
    return [(f"E_{i}_{j}", matrix_unit(n, i, j, field)) for i, j in pairs]


def reference_witness_system(p: ConstructionParams, field: Field = QQ):
    """The two chains and every unit of the two-chain family except
    E(m, m+k+1) and E(l, l+k+1), with their unit pairs enumerated."""
    sets = index_sets(p)
    excluded = {(p.m, p.m + p.k + 1), (p.l, p.l + p.k + 1)}
    pairs = [
        (i, j)
        for i in sets.row_indices
        for j in sets.col_indices
        if (i, j) not in excluded
    ]
    members = [
        ("B1", shift_matrix(p.n, p.m, p.k, field)),
        ("B2", shift_matrix(p.n, p.l, p.k, field)),
    ] + _unit_members(p.n, pairs, field)
    return GeneratingSystem(tuple(members), admit_empty_word=True)


def reference_witness_system_bkm(p: BkmParams, field: Field = QQ):
    """The chain and every unit of the one-chain family except
    E(m, m+k+1), with their unit pairs enumerated."""
    excluded = (p.m, p.m + p.k + 1)
    pairs = [
        (i, j)
        for i in range(1, p.m + 1)
        for j in range(p.m + p.k + 1, p.n + 1)
        if (i, j) != excluded
    ]
    members = [("B", shift_matrix(p.n, p.m, p.k, field))] + _unit_members(
        p.n, pairs, field
    )
    return GeneratingSystem(tuple(members), admit_empty_word=True)


def open_bracket_system(field: Field = QQ) -> GeneratingSystem:
    """{x, y} as their left multiplications on A = F[x,y]/(x^2 - y^3, xy,
    y^4), in M_5 on the basis (1, y, y^2, y^3, x): column c is the image
    of basis vector c.  With the identity they span A's regular
    representation, a maximal commutative subalgebra of M_5, since the
    left multiplications of a commutative algebra are their own
    centralizer.  J = (x, y) has J^4 = 0 and J^3 = (y^3) != 0, so the
    bound is N - 1 = 3, while {x, y} has length 2."""
    one = field.one()
    # y: 1 -> y -> y^2 -> y^3 -> 0 and x -> 0; x: 1 -> x -> y^3 and y^i -> 0
    y = Matrix(5, field, ({}, {0: one}, {1: one}, {2: one}, {}))
    x = Matrix(5, field, ({}, {}, {}, {4: one}, {0: one}))
    return GeneratingSystem((("x", x), ("y", y)), admit_empty_word=True)


def reference_maximality(mats, closure) -> MaximalityVerdict:
    """The maximality verdict from the whole centralizer: pairwise
    commutativity of the generators, the centralizer's full kernel basis,
    and a subspace comparison with the generated algebra ``closure``.  The
    reference for the table's symmetry and the early-exit constraint rank."""
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


# -- naive dense reference ----------------------------------------------------
# Textbook dense Gauss-Jordan on plain Python scalars (Fractions, or residues
# mod p), sharing no code with the package's sparse core.
class DenseRef:
    """Scalar arithmetic of one field: Fractions, or ints reduced mod p."""

    def __init__(self, field):
        self.p = getattr(field, "p", None)

    def scalar(self, v):
        """A package scalar or an int, as a plain Fraction or residue."""
        if self.p is not None:
            return int(v) % self.p
        if isinstance(v, int):
            return Fraction(v)
        return Fraction(int(v.numerator), int(v.denominator))

    def fix(self, v):
        return v if self.p is None else v % self.p

    def inv(self, v):
        return 1 / v if self.p is None else pow(v, -1, self.p)

    def rows(self, rows) -> list:
        return [[self.scalar(v) for v in row] for row in rows]

    def mat_mul(self, a, b) -> list:
        n = len(a)
        return [
            [self.fix(sum(a[i][k] * b[k][j] for k in range(n))) for j in range(n)]
            for i in range(n)
        ]

    def rref(self, rows, ncols: int) -> list:
        """Canonical reduced row-echelon rows, zero rows dropped."""
        m = [list(row) for row in rows]
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(m)) if m[i][col]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = self.inv(m[r][col])
            m[r] = [self.fix(v * inv) for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][col]:
                    c = m[i][col]
                    m[i] = [self.fix(x - c * y) for x, y in zip(m[i], m[r])]
            r += 1
        return m[:r]

    def kernel(self, constraints, ncols: int) -> list:
        """RREF basis of the nullspace of the constraint rows."""
        reduced = self.rref(constraints, ncols)
        pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
        vecs = []
        for free in range(ncols):
            if free in pivots:
                continue
            vec = [self.fix(0)] * ncols
            vec[free] = self.fix(1)
            for row, p in zip(reduced, pivots):
                vec[p] = self.fix(-row[free])
            vecs.append(vec)
        return self.rref(vecs, ncols)

    def centralizer(self, mats, n: int) -> list:
        """RREF basis of {X : X G = G X for every G}, X vectorized row-major."""
        constraints = []
        for g in mats:
            for i in range(n):
                for j in range(n):
                    row = [self.fix(0)] * (n * n)
                    for k in range(n):
                        row[i * n + k] += g[k][j]
                        row[k * n + j] -= g[i][k]
                    constraints.append([self.fix(v) for v in row])
        return self.kernel(constraints, n * n)


def _random_unit(rng: random.Random, field):
    # A handful of invertible scalars; over GF(p) any nonzero residue.
    if hasattr(field, "p"):
        return field.from_int(rng.randrange(1, field.p))
    return field.parse(rng.choice(("1", "-1", "2", "-2", "1/2")))


def _skip_pattern(rng: random.Random, pairs: list, density: float) -> set:
    """The pairs kept by independent trials of probability ``density``,
    drawn as geometric gaps between kept positions along the list."""
    if density >= 1.0:
        return set(pairs)
    kept, pos = set(), -1
    while True:
        pos += 1 + floor(log(1.0 - rng.random()) / log(1.0 - density))
        if pos >= len(pairs):
            return kept
        kept.add(pairs[pos])


def _recombined_basis(rng: random.Random, f, d: int) -> list:
    """Random invertible mix of the d unit coordinate vectors.

    Built as two dense unit-triangular passes, so the mix is invertible over
    every field by construction: row i adds row j > i for each drawn pair
    (i, j) in ascending order of i, then row j < i for each pair of the
    second draw in descending order of i.  The pairs of each pass are drawn
    row by row, each row's partners in ascending order.
    """
    one = f.one()
    rows = [{i: one} for i in range(d)]
    density = min(1.0, 3.0 / max(d - 1, 1))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    up = _skip_pattern(rng, pairs, density)
    down = _skip_pattern(rng, [(i, j) for i in range(d) for j in range(i)], density)
    for i in range(d):
        for j in range(i + 1, d):
            if (i, j) in up:
                f.axpy(rows[i], one, rows[j])
    for i in range(d - 1, -1, -1):
        for j in range(i):
            if (i, j) in down:
                f.axpy(rows[i], one, rows[j])
    return rows


def full_walk_constraint_rows(mats):
    """The rows of X*G - G*X = 0 for every G in ``mats``, from a walk over
    all n*n output positions (i, j) of each generator, skipping those whose
    row i and column j of G are both empty."""
    mats = list(mats)
    first = mats[0]
    n, f = first.n, first.field
    for m in mats[1:]:
        _check_compatible(first, m)
    minus_one = f.neg(f.one())
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
                row = {i * n + k: v for k, v in gj.items()}
                f.axpy(row, minus_one, {k * n + j: v for k, v in gi.items()})
                if row:
                    yield row


def _spans_modulo(modulus: dict, members: list, field, d: int) -> bool:
    """True when the members, given by coordinates, span A together with
    the subspace M whose RREF rows are ``modulus``: their remainders
    modulo M must have rank d - dim M."""
    rank = d - len(modulus)
    ech = _Echelon(field)
    for x in members:
        if ech.dim == rank:
            break
        ech.insert(_reduce(dict(x), modulus, field))
    return ech.dim == rank


def reference_samples(target, count: int, seed: int) -> list:
    """(system, LengthReport) pairs drawn from ``_recombined_basis``."""
    coords = Algebra(target)
    modulus = coords.modulus
    rng = random.Random(seed)
    f, d = target.field, target.dim
    rank = d - len(modulus)
    out = []
    while len(out) < count:
        gens = _recombined_basis(rng, f, d)
        size = rng.randint(max(rank, (d + 1) // 2), d)
        members = [gens[idx] for idx in rng.sample(range(d), size)]
        if _spans_modulo(modulus, members, f, d):
            units = random.Random(f"{seed}:{len(out)}")
            system = GeneratingSystem(
                tuple(
                    (f"g{pos + 1}", coords.matrix(f.scale(x, _random_unit(units, f))))
                    for pos, x in enumerate(members)
                ),
                admit_empty_word=True,
            )
            out.append((system, _coord_chain(coords, members, True)))
    return out


# -- test-only conveniences on the sparse core --------------------------------
def draw_conjugator(field, n: int, data):
    """A random unipotent or monomial P, with its inverse, drawn from a
    hypothesis ``data`` strategy."""
    ident = Matrix.identity(n, field)
    if data.draw(st.booleans()):
        # P = I + N, N strictly lower triangular: P^-1 = sum of (-N)^k.
        small = st.integers(min_value=-3, max_value=3)
        entries = data.draw(st.lists(small, min_size=n * n, max_size=n * n))
        rows = [
            [entries[i * n + j] if j < i else int(i == j) for j in range(n)]
            for i in range(n)
        ]
        rows = [[field.from_int(v) for v in row] for row in rows]
        p = Matrix.from_rows(rows, field)
        minus_n = ident - p
        p_inv, term = ident, ident
        for _ in range(n - 1):
            term = term * minus_n
            p_inv = p_inv + term
        return p, p_inv
    perm = data.draw(st.permutations(range(n)))
    drawn = data.draw(st.lists(st.sampled_from([1, -1, 2, 3]), min_size=n, max_size=n))
    units = [field.from_int(u) or field.one() for u in drawn]
    p_rows = [[field.zero()] * n for _ in range(n)]
    inv_rows = [[field.zero()] * n for _ in range(n)]
    for j, (i, u) in enumerate(zip(perm, units)):
        p_rows[i][j] = u
        inv_rows[j][i] = field.inv(u)
    return Matrix.from_rows(p_rows, field), Matrix.from_rows(inv_rows, field)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA."""
    return mat_mul(a, b) - mat_mul(b, a)


def pivots(space: Subspace) -> tuple:
    """The pivots of a subspace's RREF basis, in ascending order."""
    return tuple(space.pivot_rows)


def contains_vector(space: Subspace, vec) -> bool:
    """Membership of a sparse or dense coordinate vector."""
    vec = _as_sparse(vec, space.n * space.n, space.field)
    return not _reduce(vec, space.pivot_rows, space.field)


def _infer_square_side(ncoords: int) -> int:
    n = isqrt(ncoords)
    if n * n != ncoords:
        raise DimensionMismatch(f"coordinate length {ncoords} is not a perfect square")
    return n


def rref(rows, field: Field, n: int | None = None) -> Subspace:
    """Canonical RREF span of coordinate vectors (each of length n*n).

    Rows are dense sequences or sparse maps.  The result depends only on
    the span, never on the input order.  Pass n explicitly when rows may be
    empty or are sparse.
    """
    rows = list(rows)
    if n is None:
        if not rows or isinstance(rows[0], dict):
            raise DimensionMismatch("cannot infer coordinate length; pass n")
        n = _infer_square_side(len(rows[0]))
    ech = _Echelon(field)
    for row in rows:
        ech.insert(_as_sparse(row, n * n, field))
    return ech.to_subspace(n)


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


def subspace_contains(space: Subspace, item) -> bool:
    """Membership of a matrix, or inclusion when item is itself a subspace."""
    if isinstance(item, Subspace):
        _check_compatible(item, space)
        return all(contains_vector(space, row) for row in item.pivot_rows.values())
    return space.contains_matrix(item)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    ech = _Echelon(a.field, a.pivot_rows)
    for row in b.pivot_rows.values():
        ech.insert(dict(row))
    return ech.to_subspace(a.n)
