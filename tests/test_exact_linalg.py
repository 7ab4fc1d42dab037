from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import subalg.exact_linalg as exact_linalg
import subalg.verify as verify
from subalg import (
    QQ,
    ConstructionParams,
    FieldMismatch,
    IndexOutOfRange,
    InvalidParams,
    Matrix,
    PrimeField,
    build_bkml,
    field_from_name,
    kernel,
    mat_mul,
    matrix_unit,
    span_of,
    unvectorize,
    vectorize,
    verify_system,
)

from subalg.radical import Algebra, _character

from oracles import (
    as_fraction_rows,
    commutator,
    mat_pow,
    pivots,
    rref,
    subspace_contains,
    subspace_sum,
    sympy_rank_of_matrices,
    sympy_rref_rows,
    table_of,
    to_sympy,
)


def test_rational_field_parse_and_fmt():
    assert QQ.parse("3/4") + QQ.parse("1/4") == QQ.one()
    assert QQ.parse("-2") == QQ.from_int(-2)
    assert QQ.fmt(QQ.parse("6/8")) == "3/4"
    assert QQ.name == "rational"
    with pytest.raises(InvalidParams):
        QQ.parse("x")


# Rational scalars as QQ holds them: integral values as ints, others as
# reduced rationals.  Small denominators make integral results common.
rationals = st.one_of(
    st.integers(-(10**20), 10**20), st.fractions(max_denominator=12)
).map(QQ.coerce)
sparse_maps = st.dictionaries(st.integers(0, 6), rationals.filter(bool), max_size=6)


def assert_canonical(value):
    """Integral values are ints; nothing is ever a float."""
    assert not isinstance(value, float)
    if value.denominator == 1:
        assert type(value) is int, repr(value)


def fraction_map(x: dict) -> dict:
    return {k: Fraction(v) for k, v in x.items()}


def test_rational_scalar_examples():
    assert type(QQ.zero()) is type(QQ.one()) is type(QQ.from_int(5)) is int
    assert type(QQ.parse("-4/2")) is int and QQ.parse("-4/2") == -2
    assert QQ.inv(QQ.from_int(-1)) == -1 and type(QQ.inv(QQ.from_int(-1))) is int
    assert QQ.inv(QQ.from_int(3)) == Fraction(1, 3)
    assert QQ.mul(QQ.parse("2/3"), QQ.parse("3/2")) == 1
    assert type(QQ.mul(QQ.parse("2/3"), QQ.parse("3/2"))) is int
    assert type(QQ.coerce(Fraction(6, 3))) is int


@pytest.mark.parametrize(
    "literal",
    ["1e10000000", "1.5", "0x10", "1_000", " 3", "3 ", "3\n", "+-3", "3/-4",
     "1/0", "\u0663", "", "/2", "1/", pytest.param("1" * 4301, id="4301-digits")],
)
def test_rational_literals_outside_the_grammar_are_refused(literal):
    with pytest.raises(InvalidParams):
        QQ.parse(literal)


@pytest.mark.parametrize(
    "literal",
    ["1_000", " 3 ", "\u0663", "+5/ 2", "1/0", "3/7", "1e3", "0x10", "", "/2",
     pytest.param("1" * 4301, id="4301-digits")],
)
def test_prime_field_literals_outside_the_grammar_are_refused(literal):
    with pytest.raises(InvalidParams):
        PrimeField(7).parse(literal)


def test_prime_field_literals_reduce_mod_p():
    f = PrimeField(7)
    assert [f.parse(s) for s in ("1000", "+5", "-1", "1/2", "-3/4", "14/3")] == [
        6, 5, 6, 4, 1, 0,
    ]


@given(rationals, rationals)
def test_rational_scalars_match_fraction_arithmetic(a, b):
    assert_canonical(a)
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (QQ.add(a, b), fa + fb),
        (QQ.sub(a, b), fa - fb),
        (QQ.mul(a, b), fa * fb),
        (QQ.neg(a), -fa),
    ]
    if b:
        results.append((QQ.inv(b), 1 / fb))
    for got, want in results:
        assert got == want
        assert_canonical(got)


@given(sparse_maps, rationals, sparse_maps)
def test_rational_scale_and_axpy_match_fraction_arithmetic(y, c, x):
    fy, fc, fx = fraction_map(y), Fraction(c), fraction_map(x)
    scaled = QQ.scale(x, c)
    assert scaled == {k: fc * v for k, v in fx.items() if fc * v}
    want = dict(fy)
    for k, v in fx.items():
        want[k] = want.get(k, 0) + fc * v
    want = {k: v for k, v in want.items() if v}
    QQ.axpy(y, c, x)
    assert y == want
    for value in [*scaled.values(), *y.values()]:
        assert value
        assert_canonical(value)


def test_pipeline_keeps_integral_rationals_as_ints(monkeypatch):
    seen = []
    monkeypatch.setattr(
        verify, "Algebra", lambda *a: seen.append(Algebra(*a)) or seen[-1]
    )
    system = build_bkml(ConstructionParams(n=8, k=2, m=1, l=5), QQ)
    report = verify_system(system)
    assert report.passed
    [coords] = seen
    powers = coords.powers
    values = [v for row in report.closure.pivot_rows.values() for v in row.values()]
    values += [v for x in table_of(coords).values() for v in x.values()]
    values += [v for rows in powers for row in rows.values() for v in row.values()]
    assert values
    for value in values:
        assert_canonical(value)


def test_character_keeps_integral_rationals_as_ints():
    # tr(x) = 1/2 + 1/2 is integral although neither of its terms is.
    half = QQ.parse("1/2")
    x = Matrix.from_rows([[0, 1, 0], [0, half, 0], [0, 0, half]])
    chi = _character(Algebra(span_of([Matrix.identity(3), x])))
    assert chi == {0: 3, 1: 1}
    for value in chi.values():
        assert_canonical(value)


def test_rational_backend_is_recorded_by_module():
    # The benchmark names the active backend after the module of _RAT.
    assert exact_linalg._RAT.__module__.split(".")[0] in {"fractions", "gmpy2"}


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.name == "gf:7"
    assert f.add(f.from_int(5), f.from_int(4)) == f.from_int(2)
    assert f.mul(f.inv(f.from_int(3)), f.from_int(3)) == f.one()
    assert f.parse("-1") == f.from_int(6)
    assert f.parse("1/2") == f.from_int(4)
    with pytest.raises(InvalidParams):
        PrimeField(6)
    with pytest.raises(InvalidParams):
        PrimeField(1)


def test_field_from_name_round_trip():
    assert field_from_name("rational") == QQ
    assert field_from_name("gf:32003") == PrimeField(32003)
    top = exact_linalg.MAX_MODULUS
    assert field_from_name(f"gf:{top}") == PrimeField(2**31 - 1)
    with pytest.raises(InvalidParams, match="exceeds the supported maximum"):
        field_from_name(f"gf:{top + 2}")
    with pytest.raises(InvalidParams):
        field_from_name("gf:10")
    with pytest.raises(InvalidParams):
        field_from_name("real")


def test_coerce_rejects_bools_and_junk():
    with pytest.raises(InvalidParams):
        QQ.coerce(True)
    with pytest.raises(InvalidParams):
        PrimeField(5).coerce(2.5)
    with pytest.raises(InvalidParams):
        QQ.coerce(2.5)
    assert QQ.coerce(3) == QQ.from_int(3)
    assert QQ.coerce("1/2") == QQ.parse("1/2")
    assert QQ.coerce(QQ.parse("1/2")) == QQ.parse("1/2")


def test_matrix_entry_is_one_based():
    m = matrix_unit(4, 2, 3, QQ)
    assert m.entry(2, 3) == QQ.one()
    assert m.entry(3, 2) == QQ.zero()
    with pytest.raises(IndexOutOfRange):
        m.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        m.entry(1, 5)
    with pytest.raises(IndexOutOfRange):
        matrix_unit(3, 4, 1, QQ)


def test_matrix_arithmetic_matches_oracle():
    a = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [3, 0, 1]], QQ)
    b = Matrix.from_rows([["1/2", 0, 1], [1, 1, 0], [0, 2, 1]], QQ)
    assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)
    assert to_sympy(a + b) == to_sympy(a) + to_sympy(b)
    assert to_sympy(a - b) == to_sympy(a) - to_sympy(b)
    assert to_sympy(mat_pow(a, 3)) == to_sympy(a) ** 3
    assert mat_pow(a, 0) == Matrix.identity(3, QQ)
    assert a.scale("1/3").scale(3) == a


def test_matrix_field_mismatch():
    a = Matrix.identity(2, QQ)
    b = Matrix.identity(2, PrimeField(5))
    with pytest.raises(FieldMismatch):
        mat_mul(a, b)


def test_commutator_of_units():
    # [E12, E23] = E13 in M_3
    e12 = matrix_unit(3, 1, 2, QQ)
    e23 = matrix_unit(3, 2, 3, QQ)
    assert commutator(e12, e23) == matrix_unit(3, 1, 3, QQ)
    assert commutator(e12, e12).is_zero()


def test_vectorize_is_row_major():
    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vec = vectorize(matrix_unit(n, i, j, QQ))
            expected_pos = (i - 1) * n + (j - 1)
            assert vec == {expected_pos: QQ.one()}
    m = Matrix.from_rows([[1, 2], [3, 4]], QQ)
    assert unvectorize(vectorize(m), 2, QQ) == m


def test_rref_matches_independent_reduction():
    """RREF output is the canonical reduced form, zero rows dropped."""
    vectors = [
        [1, 2, 3, 4],
        [2, 4, 6, 8],
        [0, 1, 1, 0],
        [1, 3, 4, 4],
        [0, 0, 0, 0],
    ]
    expected = sympy_rref_rows(vectors)
    sub = rref([[QQ.from_int(v) for v in row] for row in vectors], QQ, n=2)
    assert as_fraction_rows(sub) == expected
    assert sub.dim == 2
    assert pivots(sub) == (0, 1)


def test_span_is_basis_order_invariant():
    mats = [
        Matrix.from_rows([[1, 1], [0, 1]], QQ),
        Matrix.from_rows([[2, 2], [0, 2]], QQ),
        Matrix.from_rows([[0, 1], [1, 0]], QQ),
    ]
    s1 = span_of(mats)
    s2 = span_of(list(reversed(mats)))
    s3 = span_of(mats + [mats[0] + mats[2]])
    assert s1 == s2 == s3
    assert s1.dim == sympy_rank_of_matrices(mats)


def test_subspace_contains_and_sum():
    e11 = matrix_unit(2, 1, 1, QQ)
    e22 = matrix_unit(2, 2, 2, QQ)
    diag = span_of([e11, e22])
    assert diag.contains_matrix(e11 + e22)
    assert not diag.contains_matrix(matrix_unit(2, 1, 2, QQ))
    total = subspace_sum(diag, span_of([matrix_unit(2, 1, 2, QQ)]))
    assert total.dim == 3
    assert subspace_contains(total, diag)
    assert not subspace_contains(diag, total)
    assert subspace_contains(total, e11)


def test_span_of_empty_input():
    s = span_of([], n=3, field=QQ)
    assert s.dim == 0
    assert s.basis == ()


def test_kernel_rows_annihilate_constraints():
    # constraints on the 4 coordinates of a 2x2 matrix space
    f = PrimeField(7)
    constraints = [
        [f.from_int(c) for c in row]
        for row in ([1, 2, 3, 0], [0, 1, 4, 1], [1, 3, 0, 2])
    ]
    ker = kernel(constraints, 2, f)
    for vec in ker.basis:
        for row in constraints:
            acc = f.zero()
            for c, v in zip(row, vec):
                acc = f.add(acc, f.mul(c, v))
            assert acc == f.zero()
    # rank 3 over GF(7), so the kernel is a line
    assert ker.dim == 1


def test_kernel_over_rationals_matches_nullity():
    import sympy

    constraints = [[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, 1, 1]]
    expected_nullity = 4 - sympy.Matrix(constraints).rank()
    ker = kernel([[QQ.from_int(c) for c in row] for row in constraints], 2, QQ)
    assert ker.dim == expected_nullity == 2
    for vec in ker.basis:
        for row in constraints:
            acc = QQ.zero()
            for c, v in zip(row, vec):
                acc = QQ.add(acc, QQ.mul(QQ.from_int(c), v))
            assert acc == QQ.zero()


def test_basis_matrices_round_trip():
    mats = [matrix_unit(3, 1, 2, QQ), matrix_unit(3, 2, 3, QQ)]
    sub = span_of(mats)
    assert span_of(sub.basis_matrices()) == sub
