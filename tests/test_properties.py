"""Property-based checks of the algebraic core.

These lean on two invariants: canonical RREF output depends only on the
span of the input, and span chains agree with brute-force word
enumeration wherever the latter is affordable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    GeneratingSystem,
    Matrix,
    PrimeField,
    algebra_closure,
    build_bkm,
    build_bkml,
    li_chain,
    li_chain_spans,
    mat_mul,
    sample_generating_systems,
    valid_bkm_params,
    valid_bkml_params,
    verify_system,
)

from oracles import (
    commutator,
    draw_conjugator,
    enumerate_words,
    pivots,
    rref,
    span_of,
    sympy_word_span_dims,
)

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]

small_int = st.integers(min_value=-3, max_value=3)
vec9 = st.lists(small_int, min_size=9, max_size=9)
vec_lists = st.lists(vec9, min_size=1, max_size=5)
mat3 = st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3)


def _to_field_rows(rows, field):
    return [[field.from_int(v) for v in row] for row in rows]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@given(rows=vec_lists, seed=st.randoms(use_true_random=False))
def test_rref_depends_only_on_the_span(field, rows, seed):
    base = rref(_to_field_rows(rows, field), field, n=3)

    shuffled = list(rows)
    seed.shuffle(shuffled)
    assert rref(_to_field_rows(shuffled, field), field, n=3) == base

    scaled = [[3 * v for v in row] for row in rows]
    assert rref(_to_field_rows(scaled, field), field, n=3) == base

    combo = [sum(vals) for vals in zip(*rows)]
    widened = rows + [combo, [0] * 9, rows[0]]
    assert rref(_to_field_rows(widened, field), field, n=3) == base

    mixed = [list(row) for row in rows]
    for target in range(1, len(mixed)):
        mixed[target] = [a + 2 * b for a, b in zip(mixed[target], mixed[0])]
    assert rref(_to_field_rows(mixed, field), field, n=3) == base


@given(rows=vec_lists)
def test_rref_output_is_a_fixed_point(rows):
    sub = rref(_to_field_rows(rows, QQ), QQ, n=3)
    assert rref(sub.basis, QQ, n=3) == sub
    assert span_of(sub.basis_matrices(), n=3, field=QQ) == sub
    assert pivots(sub) == tuple(sorted(pivots(sub)))


@given(a=mat3, b=mat3, c=mat3)
def test_matrix_product_identities(a, b, c):
    ma = Matrix.from_rows(a, QQ)
    mb = Matrix.from_rows(b, QQ)
    mc = Matrix.from_rows(c, QQ)
    assert (ma * mb) * mc == ma * (mb * mc)
    assert ma * (mb + mc) == ma * mb + ma * mc
    assert commutator(ma, mb) == Matrix.zero(3, QQ) - commutator(mb, ma)
    assert commutator(ma, ma).is_zero()


@settings(max_examples=3)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_associativity_on_dense_size_12(seed):
    import random

    rng = random.Random(seed)
    mats = [
        Matrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(12)] for _ in range(12)], QQ
        )
        for _ in range(3)
    ]
    a, b, c = mats
    assert (a * b) * c == a * (b * c)


@given(data=st.data())
def test_closure_dims_are_field_independent_for_01_generators(data):
    """Construction members are 0/1 matrices, so their span chains agree
    over every field."""
    family = data.draw(st.sampled_from(["bkml", "bkm"]))
    if family == "bkml":
        build = build_bkml
        params = ConstructionParams(8, 1, 5, 2)
    else:
        build = build_bkm
        params = BkmParams(7, 2, 1)
    reference = build(params, QQ)
    count = len(reference.members)
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=count - 1),
            min_size=1,
            max_size=count,
            unique=True,
        )
    )
    dims = []
    for field in FIELDS:
        members = build(params, field).members
        subset = GeneratingSystem(tuple(members[i] for i in sorted(picks)))
        dims.append(li_chain(subset).dims)
    assert dims.count(dims[0]) == len(dims)


@given(
    mats=st.lists(mat3, min_size=1, max_size=2),
    admit=st.booleans(),
)
def test_chain_matches_word_enumeration(mats, admit):
    members = tuple(
        (f"g{i + 1}", Matrix.from_rows(rows, QQ)) for i, rows in enumerate(mats)
    )
    if not admit and all(m.is_zero() for _, m in members):
        admit = True
    system = GeneratingSystem(members, admit_empty_word=admit)
    spans = li_chain_spans(system)
    for i, span in enumerate(spans):
        words = enumerate_words(system, i)
        assert span_of(words, n=3, field=QQ) == span
    oracle_dims = sympy_word_span_dims(system, len(spans) - 1)
    assert list(li_chain(system).dims) == oracle_dims


@given(mats=st.lists(mat3, min_size=1, max_size=2))
def test_closure_is_multiplicatively_closed(mats):
    system = GeneratingSystem(
        tuple((f"g{i + 1}", Matrix.from_rows(rows, QQ)) for i, rows in enumerate(mats))
    )
    closure = algebra_closure(system)
    basis = closure.basis_matrices()
    for x in basis:
        for y in basis:
            assert closure.contains_matrix(mat_mul(x, y))


@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_sampled_systems_always_generate(seed):
    target = algebra_closure(build_bkm(BkmParams(5, 1, 1), QQ))
    for system, _ in sample_generating_systems(target, 2, seed):
        assert algebra_closure(system) == target


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=10)
@given(data=st.data())
def test_verdicts_are_invariant_under_similarity(field, data):
    """P S P^-1 generates a similar algebra: the same closure dimension,
    commutativity, centralizer dimension, maximality, lengths and radical
    nilpotency, in other coordinates.  The witness derived from S, chained
    on the closure's table, is never shorter than S."""
    if data.draw(st.booleans()):
        full = build_bkml(data.draw(st.sampled_from(valid_bkml_params(7))), field)
    else:
        full = build_bkm(data.draw(st.sampled_from(valid_bkm_params(6))), field)
    picks = data.draw(
        st.lists(st.sampled_from(range(len(full.members))), min_size=1, unique=True)
    )
    system = GeneratingSystem(tuple(full.members[i] for i in sorted(picks)))
    p, p_inv = draw_conjugator(field, system.n, data)
    assert p * p_inv == Matrix.identity(system.n, field)
    similar = GeneratingSystem(
        tuple((label, p * m * p_inv) for label, m in system.members)
    )
    want = verify_system(system)
    got = verify_system(similar)
    assert want.radical is not None
    assert got.closure.dim == want.closure.dim
    assert got.maximality.is_commutative == want.maximality.is_commutative
    assert got.maximality.centralizer_dim == want.maximality.centralizer_dim
    assert got.maximality.is_maximal == want.maximality.is_maximal
    assert got.own.length == want.own.length
    assert got.measured.dims == want.measured.dims
    assert want.measured.length >= want.own.length
    assert got.radical.nilpotency == want.radical.nilpotency
