"""The structure-constant table of an algebra against matrix-space oracles.

Chains, radical powers and the closure check run in an algebra's own
coordinates; each is compared here with the same computation on matrices,
over every test field.
"""

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from subalg import (
    QQ,
    GeneratingSystem,
    Matrix,
    NotASubalgebra,
    PrimeField,
    algebra_closure,
    li_chain,
    matrix_unit,
    radical_power_dims,
    radical_span,
    span_of,
)
from subalg.exact_linalg import _by_row, _Echelon, _vec_mul
from subalg.lengths import _coord_chain
from subalg.radical import Algebra, _power_rows

from oracles import coordinate_rows, matrix_power_dims, table_of

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]

small_int = st.integers(min_value=-2, max_value=2)


def matrices(n, count):
    """Up to count n-by-n matrices, each as its n*n row-major entries."""
    entries = st.lists(small_int, min_size=n * n, max_size=n * n)
    return st.lists(entries, min_size=1, max_size=count)


def _system(field, n, drawn, admit=True, strict_upper=False):
    mats = []
    for entries in drawn:
        rows = [[0] * n for _ in range(n)]
        for c, v in enumerate(entries):
            i, j = divmod(c, n)
            if j > i or not strict_upper:
                rows[i][j] = field.from_int(v)
        mats.append(Matrix.from_rows(rows, field))
    return GeneratingSystem(
        tuple((f"g{i + 1}", m) for i, m in enumerate(mats)), admit_empty_word=admit
    )


@pytest.mark.parametrize("field", FIELDS)
@given(
    gens=matrices(3, 2),
    members=matrices(3, 3),
    admit=st.booleans(),
)
def test_coordinate_chain_equals_matrix_chain(field, gens, members, admit):
    """Step 2 multiplies the members by the g members that grew the span at
    step 1: each unordered pair of them once in a commutative algebra, at
    most s(s+1)/2 products for s members, and every member otherwise.  A
    pair (x, y) is multiplied only when the table stores a product of basis
    rows p in supp(x) and q in supp(y); that count is found here from the
    table's stored pairs."""
    algebra = algebra_closure(_system(field, 3, gens))
    coords = Algebra(algebra)
    xs = [
        {p: c for p, v in enumerate(m[: coords.d]) if (c := field.from_int(v))}
        for m in members
    ]
    system = GeneratingSystem(
        tuple((f"x{i + 1}", coords.matrix(x)) for i, x in enumerate(xs)),
        admit_empty_word=admit,
    )
    want = li_chain(system, algebra)
    right = []
    coords.mul = lambda x, y: right.append(y) or Algebra.mul(coords, x, y)
    got = _coord_chain(coords, xs, admit)
    assert got == want
    # later steps multiply by copies, so a member on the right marks step 2
    step2 = sum(1 for y in right if any(y is x for x in xs))
    s, d, dims = len(xs), coords.d, got.dims
    ech = _Echelon(field)
    if admit:
        ech.insert(dict(coords.identity))
    grown = [x for x in xs if ech.dim < d and ech.insert(dict(x))]
    table = table_of(coords)

    def meets(x, y):
        return any((p, q) in table for p in x for q in y)

    if coords.commutative:
        pairs = [(x, y) for j, y in enumerate(grown) for x in grown[: j + 1]]
    else:
        pairs = [(x, y) for y in grown for x in xs]
    every = sum(1 for x, y in pairs if meets(x, y))
    event(f"commutative: {coords.commutative}")
    if dims[1] in (dims[0], d):
        assert step2 == 0
    elif dims[2] < d:
        assert step2 == every
    else:
        assert step2 <= every
    if coords.commutative:
        assert step2 <= s * (s + 1) // 2


@pytest.mark.parametrize("field", FIELDS)
@given(gens=matrices(4, 2))
def test_table_power_dims_equal_matrix_power_dims(field, gens):
    """N, generated without the identity by strictly upper triangular
    matrices, is nilpotent; A = scalars + N is local with radical N."""
    nil = algebra_closure(_system(field, 4, gens, admit=False, strict_upper=True))
    algebra = algebra_closure(_system(field, 4, gens, strict_upper=True))
    want = matrix_power_dims(nil)
    assert radical_power_dims(nil) == want
    coords = Algebra(algebra)
    powers = _power_rows(coordinate_rows(nil, coords), coords)
    assert tuple(len(rows) for rows in powers) == want
    assert radical_span(algebra) == nil


@pytest.mark.parametrize("field", FIELDS)
@given(gens=matrices(3, 2))
def test_table_build_checks_closure(field, gens):
    mats = _system(field, 3, gens, admit=False).matrices
    space = span_of(mats)
    closed = algebra_closure(_system(field, 3, gens, admit=False)) == space
    if closed:
        assert Algebra(space).d == space.dim
    else:
        with pytest.raises(NotASubalgebra):
            Algebra(space)


@pytest.mark.parametrize("field", FIELDS)
@given(gens=matrices(3, 2), admit=st.booleans())
def test_sparse_table_holds_every_nonzero_basis_product(field, gens, admit):
    """Every basis product, formed without the support skip, has the stored
    coordinates in its column, or none when it is zero, and the table's
    symmetry over the stored entries is the full pairwise check."""
    algebra = algebra_closure(_system(field, 3, gens, admit=admit))
    coords = Algebra(algebra)
    rows = [_by_row(row, 3) for row in algebra.pivot_rows.values()]
    for p, x in enumerate(rows):
        for q, y in enumerate(rows):
            prod = coords.coordinates(_vec_mul(x, y, 3, field))
            assert coords.right[q].get(p, {}) == prod
    table = table_of(coords)
    assert all(table.values())
    symmetric = all(
        table.get((p, q), {}) == table.get((q, p), {})
        for p in range(coords.d)
        for q in range(coords.d)
    )
    event(f"commutative: {symmetric}")
    assert coords.commutative == symmetric


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_table_of_known_closures(field):
    """Products whose supports miss each other are zero and left out of the
    table, closed or not; the span of E_12 and E_23 leaves out E_13."""

    def e(i, j):
        return matrix_unit(4, i, j, field)

    zero = Algebra(span_of([e(1, 2), e(3, 4)]))
    assert (zero.d, table_of(zero), zero.commutative) == (2, {}, True)
    upper = Algebra(span_of([e(1, 2), e(1, 3), e(2, 3)]))
    assert table_of(upper) == {(0, 2): {1: field.one()}}
    assert not upper.commutative
    with pytest.raises(NotASubalgebra):
        Algebra(span_of([e(1, 2), e(2, 3)]))
    with pytest.raises(NotASubalgebra):
        Algebra(span_of([e(1, 2), e(2, 1)]))
