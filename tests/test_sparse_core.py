"""Oracle tests of the sparse exact core over all four test fields.

Products, spans, kernels, centralizers and ranks are compared with the
naive dense Gauss-Jordan reference in oracles.py, on inputs drawn both
mostly-zero and dense.  The dense views must round-trip through the sparse constructors,
and equal spans must compare and hash equal.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subalg import (
    QQ,
    Matrix,
    PrimeField,
    centralizer,
    kernel,
    mat_mul,
    unvectorize,
    vectorize,
)
from subalg.exact_linalg import _as_sparse, _by_row, _Echelon, _vec_mul

from oracles import DenseRef, pivots, rref, span_of

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]

SPARSE_ENTRY = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, 3])
DENSE_ENTRY = st.integers(min_value=-4, max_value=4)


@st.composite
def square(draw, n):
    entry = draw(st.sampled_from([SPARSE_ENTRY, DENSE_ENTRY]))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def vectors(draw, ncoords, max_count=6):
    entry = draw(st.sampled_from([SPARSE_ENTRY, DENSE_ENTRY]))
    return draw(
        st.lists(
            st.lists(entry, min_size=ncoords, max_size=ncoords),
            min_size=1,
            max_size=max_count,
        )
    )


@st.composite
def factor_pair(draw, n):
    """Two square factors, drawn as they are, with some rows emptied, with
    every row of one emptied, or made to cancel: column n-1-k of A equals
    column k and row n-1-k of B is minus row k, so A B = 0."""
    a, b = draw(square(n)), draw(square(n))
    kind = draw(st.sampled_from(["plain", "empty rows", "all rows empty", "cancelling"]))
    if kind == "empty rows":
        for m in (a, b):
            for i in draw(st.sets(st.integers(0, n - 1))):
                m[i] = [0] * n
    elif kind == "all rows empty":
        empty = [[0] * n for _ in range(n)]
        a, b = draw(st.sampled_from([(empty, b), (a, empty)]))
    elif kind == "cancelling":
        for k in range(n // 2):
            for row in a:
                row[n - 1 - k] = row[k]
            b[n - 1 - k] = [-v for v in b[k]]
        if n % 2:
            b[n // 2] = [0] * n
    return a, b


def _basis(ref, subspace):
    return ref.rows(subspace.basis)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_mat_mul_matches_dense_reference(field, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    a, b = data.draw(square(n)), data.draw(square(n))
    ref = DenseRef(field)
    got = mat_mul(Matrix.from_rows(a, field), Matrix.from_rows(b, field))
    assert ref.rows(got.rows) == ref.mat_mul(ref.rows(a), ref.rows(b))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_row_sparse_product_matches_dense_reference(field, data):
    """The product kernel, on nonempty rows, writes the vectorized product
    and stores no zero."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    a, b = data.draw(factor_pair(n))
    ref = DenseRef(field)
    rows = [_by_row(vectorize(Matrix.from_rows(m, field)), n) for m in (a, b)]
    got = _vec_mul(*rows, n, field)
    dense = ref.mat_mul(ref.rows(a), ref.rows(b))
    assert got == vectorize(Matrix.from_rows(dense, field))
    assert all(got.values())


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_rref_and_span_match_dense_reference(field, data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    rows = data.draw(vectors(n * n))
    ref = DenseRef(field)
    expected = ref.rref(ref.rows(rows), n * n)
    sub = rref(rows, field, n=n)
    assert _basis(ref, sub) == expected
    assert list(pivots(sub)) == [next(c for c, v in enumerate(r) if v) for r in expected]
    mats = [unvectorize(row, n, field) for row in rows]
    assert span_of(mats, n=n, field=field) == sub


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_indexed_echelon_matches_dense_reference(field, data):
    """An accumulator, seeded with the rows of a prefix or empty, grows on
    each insert exactly when the dense rank does, keeps each row 1 at its
    lead, its least coordinate, and never changes a stored row, its seed's
    included.  ``canonical`` is the dense RREF of everything inserted."""
    ncoords = data.draw(st.integers(min_value=1, max_value=9))
    rows = data.draw(vectors(ncoords, max_count=10))
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    ref = DenseRef(field)
    seeded = _Echelon(field)
    for row in rows[:split]:
        seeded.insert(_as_sparse(row, ncoords, field))
    seed = {p: dict(row) for p, row in seeded.rows.items()}
    ech = _Echelon(field, seeded.rows)
    for i in range(split, len(rows) + 1):
        stored = {p: (row, dict(row)) for p, row in ech.rows.items()}
        expected = ref.rref(ref.rows(rows[:i]), ncoords)
        if i > split:
            grew = ech.insert(_as_sparse(rows[i - 1], ncoords, field))
            assert grew == (ech.dim > len(stored))
        assert ech.dim == len(expected)
        canonical = ech.canonical()
        dense = [
            [row.get(c, field.zero()) for c in range(ncoords)]
            for row in canonical.values()
        ]
        assert ref.rows(dense) == expected
        assert list(canonical) == sorted(ech.rows)
        for lead, row in ech.rows.items():
            assert min(row) == lead and row[lead] == field.one()
        for lead, (row, copy) in stored.items():
            assert ech.rows[lead] is row and row == copy
    assert seeded.rows == seed


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_rank_accumulator_matches_echelon_and_dense_reference(field, data):
    """On every insert the row-echelon accumulator grows exactly when its
    canonical RREF does, to the dense rank, and keeps each row 1 at its
    lead, its least coordinate."""
    ncoords = data.draw(st.integers(min_value=1, max_value=9))
    rows = data.draw(vectors(ncoords, max_count=10))
    ref = DenseRef(field)
    ech = _Echelon(field)
    canonical = ech.canonical()
    for i, row in enumerate(rows):
        before = len(canonical)
        grew = ech.insert(_as_sparse(row, ncoords, field))
        canonical = ech.canonical()
        assert grew == (len(canonical) > before)
        expected = ref.rref(ref.rows(rows[: i + 1]), ncoords)
        assert ech.dim == len(canonical) == len(expected)
    for lead, row in ech.rows.items():
        assert min(row) == lead and row[lead] == field.one()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_kernel_matches_dense_reference(field, data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    constraints = data.draw(vectors(n * n, max_count=8))
    ref = DenseRef(field)
    ker = kernel(constraints, n, field)
    assert _basis(ref, ker) == ref.kernel(ref.rows(constraints), n * n)
    sparse_rows = [
        {c: field.coerce(v) for c, v in enumerate(row) if field.coerce(v)}
        for row in constraints
    ]
    assert kernel(sparse_rows, n, field) == ker


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_centralizer_matches_dense_reference(field, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    mats = data.draw(st.lists(square(n), min_size=1, max_size=3))
    ref = DenseRef(field)
    cent = centralizer([Matrix.from_rows(m, field) for m in mats])
    assert _basis(ref, cent) == ref.centralizer([ref.rows(m) for m in mats], n)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_equal_spans_compare_and_hash_equal(field, data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    rows = data.draw(vectors(n * n))
    base = rref(rows, field, n=n)
    mixed = [list(row) for row in rows]
    for i in range(1, len(mixed)):
        mixed[i] = [a + 3 * b for a, b in zip(mixed[i], mixed[0])]
    order = data.draw(st.permutations(range(len(mixed))))
    other = rref([mixed[i] for i in order] + [[0] * (n * n)], field, n=n)
    assert other == base
    assert hash(other) == hash(base)
    assert len({base, other}) == 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_dense_views_round_trip(field, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = Matrix.from_rows(data.draw(square(n)), field)
    assert Matrix.from_rows(m.rows, field) == m
    assert unvectorize(vectorize(m), n, field) == m
    sub = span_of([m, mat_mul(m, m), Matrix.identity(n, field)])
    assert rref(sub.basis, field, n=n) == sub
    one = field.one()
    for row, p in zip(sub.basis, pivots(sub)):
        assert len(row) == n * n
        assert row[p] == one and not any(row[:p])
