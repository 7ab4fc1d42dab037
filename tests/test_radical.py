import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from subalg import (
    QQ,
    BkmParams,
    GeneratingSystem,
    Matrix,
    NotASubalgebra,
    NotLocalForm,
    NotNilpotent,
    PrimeField,
    algebra_closure,
    bound_check,
    build_bkm,
    build_bkml,
    matrix_unit,
    nilpotency_index,
    radical_power_dims,
    radical_span,
    valid_bkm_params,
    valid_bkml_params,
)

from subalg.radical import Algebra, _power_rows

from oracles import all_pairs_power_rows, coordinate_rows, span_of, to_sympy

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


def test_radical_of_reference_algebra(full_8152):
    algebra = algebra_closure(full_8152)
    rad = radical_span(algebra)
    assert rad.dim == 8
    for m in rad.basis_matrices():
        assert (to_sympy(m) ** 8).is_zero_matrix


def test_power_dims_match_product_rank_oracle(full_8152):
    """J^2 dimension cross-checked by an independent rank computation."""
    rad = radical_span(algebra_closure(full_8152))
    mats = [to_sympy(m) for m in rad.basis_matrices()]
    rows = [(x * y).reshape(1, 64) for x in mats for y in mats]
    j2_dim = sympy.Matrix.vstack(*rows).rank()
    assert j2_dim == 4
    assert radical_power_dims(rad) == (8, 4, 2, 0)
    assert nilpotency_index(rad) == 4


def test_radical_does_not_depend_on_the_basis():
    """j = [[1, 1], [-1, -1]] squares to 0, so span{I, j} is local with
    radical span{j}, though its RREF rows are I and E12 - E21 - 2 E22, and
    the second is not nilpotent."""
    j = Matrix.from_rows([[1, 1], [-1, -1]], QQ)
    algebra = span_of([Matrix.identity(2, QQ), j])
    assert radical_span(algebra) == span_of([j])
    assert radical_power_dims(radical_span(algebra)) == (1, 0)


def test_radical_rejects_full_matrix_algebra():
    full_m2 = span_of([matrix_unit(2, i, j, QQ) for i in (1, 2) for j in (1, 2)])
    with pytest.raises(NotLocalForm):
        radical_span(full_m2)


def test_radical_rejects_open_span():
    not_closed = span_of([matrix_unit(3, 1, 2, QQ), matrix_unit(3, 2, 3, QQ)])
    with pytest.raises(NotASubalgebra):
        radical_span(not_closed)


def test_radical_requires_identity():
    nilpotent_line = span_of([matrix_unit(2, 1, 2, QQ)])
    with pytest.raises(NotLocalForm):
        radical_span(nilpotent_line)


def test_power_dims_of_tiny_radicals():
    line = span_of([matrix_unit(2, 1, 2, QQ)])
    assert radical_power_dims(line) == (1, 0)
    assert nilpotency_index(line) == 2
    zero = span_of([], n=2, field=QQ)
    assert radical_power_dims(zero) == (0,)
    assert nilpotency_index(zero) == 1


def test_power_dims_detect_non_nilpotent_input():
    idempotent_line = span_of([matrix_unit(2, 1, 1, QQ)])
    with pytest.raises(NotNilpotent):
        radical_power_dims(idempotent_line)


def test_power_dims_reject_non_closed_candidate():
    not_closed = span_of([matrix_unit(3, 1, 2, QQ), matrix_unit(3, 2, 3, QQ)])
    with pytest.raises(NotASubalgebra):
        radical_power_dims(not_closed)
    # on the table of the upper triangular algebra, which contains it
    upper = _upper_triangular(3, QQ)
    with pytest.raises(NotASubalgebra):
        _power_rows(coordinate_rows(not_closed, upper), upper)


def test_bound_check_on_reference_systems(full_8152, witness_8152):
    full_report = bound_check(full_8152)
    assert full_report.radical_dim == 8
    assert full_report.nilpotency == 4
    assert full_report.power_dims == (8, 4, 2, 0)
    assert full_report.length == 2
    assert full_report.bound_holds

    witness_report = bound_check(witness_8152)
    assert witness_report.length == 3
    assert witness_report.nilpotency == 4
    assert witness_report.bound_holds


def test_bound_check_scalar_algebra():
    sys = GeneratingSystem((("I", Matrix.identity(4, QQ)),))
    report = bound_check(sys)
    assert report.radical_dim == 0
    assert report.nilpotency == 1
    assert report.length == 0
    assert report.bound_holds


def _upper_triangular(n: int, field) -> Algebra:
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i <= j]
    return Algebra(span_of([matrix_unit(n, i, j, field) for i, j in units]))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pruned_powers_equal_all_pairs_on_family_tuples(field):
    """Multiplying only the pairs whose supports meet the table gives the
    RREF rows of every power that all pairs give."""
    systems = [build_bkml(p, field) for p in valid_bkml_params(8)]
    systems += [build_bkm(p, field) for p in valid_bkm_params(8)]
    systems.append(build_bkm(BkmParams(24, 1, 8), field))
    for system in systems:
        alg = Algebra(algebra_closure(system))
        assert _power_rows(alg.powers[0], alg) == all_pairs_power_rows(
            alg.powers[0], alg
        )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@settings(max_examples=10)
@given(data=st.data())
def test_pruned_powers_equal_all_pairs_on_random_local_algebras(field, data):
    """A random commutative local algebra: some members of a family system
    and a random element of its algebra, conjugated by a random unipotent
    P, so that J's rows in the algebra's coordinates need not be units."""
    if data.draw(st.booleans()):
        full = build_bkml(data.draw(st.sampled_from(valid_bkml_params(7))), field)
    else:
        full = build_bkm(data.draw(st.sampled_from(valid_bkm_params(6))), field)
    mats = [m for _, m in full.members]
    picks = data.draw(st.lists(st.sampled_from(range(len(mats))), unique=True))
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(mats), max_size=len(mats))
    )
    n = full.n
    combo = Matrix.identity(n, field)
    for c, m in zip(coeffs, mats):
        combo = combo + m.scale(field.from_int(c))
    below = data.draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    ident = Matrix.identity(n, field)
    p = Matrix.from_rows(
        [
            [field.from_int(below[i * n + j]) if j < i else field.from_int(int(i == j))
             for j in range(n)]
            for i in range(n)
        ],
        field,
    )
    # P = I + N with N strictly lower triangular: P^-1 = sum of (-N)^k
    p_inv, term = ident, ident
    for _ in range(n - 1):
        term = term * (ident - p)
        p_inv = p_inv + term
    members = [mats[i] for i in picks] + [combo]
    system = GeneratingSystem(
        tuple((f"g{i}", p * m * p_inv) for i, m in enumerate(members))
    )
    alg = Algebra(algebra_closure(system))
    assert _power_rows(alg.powers[0], alg) == all_pairs_power_rows(
        alg.powers[0], alg
    )


def _scalar_free_closure(mats):
    """The nilpotent algebra that strictly upper triangular ``mats``
    generate: each element of their closure less its scalar part."""
    n, f = mats[0].n, mats[0].field
    members = tuple((f"g{i}", m) for i, m in enumerate(mats))
    closure = algebra_closure(GeneratingSystem(members))
    ident = Matrix.identity(n, f)
    return span_of(
        [b - ident.scale(b.entry(1, 1)) for b in closure.basis_matrices()],
        n=n,
        field=f,
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pruned_powers_equal_all_pairs_for_rows_that_are_not_units(field):
    """Nilpotent subalgebras of an upper triangular algebra, whose
    coordinates are the matrix units, with rows that mix several units."""

    def e(i, j, n=4):
        return matrix_unit(n, i, j, field)

    def c(v):
        return field.from_int(v)

    shift = e(1, 2) + e(2, 3) + e(3, 4).scale(c(2))
    radicals = [
        # polynomials in a scaled shift
        span_of([shift, shift * shift, shift * shift * shift]),
        # X = E12 + E34, Y = E13 + E24: X^2 = Y^2 = 0, XY = YX = E14
        span_of([e(1, 2) + e(3, 4), e(1, 3) + e(2, 4), e(1, 4)]),
        # A = E12 + E13, B = E24 + E34: AB = 2 E14, BA = 0, not commutative
        span_of([e(1, 2) + e(1, 3), e(2, 4) + e(3, 4), e(1, 4)]),
        # over Q, J's rows E13 + E34 + 2 E35 and E23 + E34 + E35 share
        # E34 and E35, and some products meet them only there
        _scalar_free_closure([
            e(2, 4, 5) - e(2, 3, 5) - e(3, 4, 5) - e(3, 5, 5),
            e(1, 3, 5) + e(1, 5, 5) + e(2, 5, 5) + e(3, 4, 5) + e(3, 5, 5).scale(c(2)),
        ]),
    ]
    for radical in radicals:
        upper = _upper_triangular(radical.n, field)
        j_rows = coordinate_rows(radical, upper)
        assert any(len(row) > 1 for row in j_rows.values())
        want = all_pairs_power_rows(j_rows, upper)
        assert _power_rows(j_rows, upper) == want
        assert radical_power_dims(radical) == tuple(len(r) for r in want)


def test_powers_multiply_only_pairs_that_meet_the_table():
    """bkm (24,1,8) over Q: at the J*J step, told apart by its right
    factor, every product formed is nonzero, and all powers take far fewer
    products than the d_J^2 = 529 of multiplying every pair at that step
    alone."""
    alg = Algebra(algebra_closure(build_bkm(BkmParams(24, 1, 8), QQ)))
    j_rows = alg.powers[0]
    assert len(j_rows) == 23
    j_basis = {id(x) for x in j_rows.values()}
    calls = []
    mul = alg.mul

    def counting(x, y):
        prod = mul(x, y)
        calls.append((id(y) in j_basis, bool(prod)))
        return prod

    alg.mul = counting
    powers = _power_rows(j_rows, alg)
    first = [nonzero for at_jj, nonzero in calls if at_jj]
    assert all(first)
    nonzero_pairs = sum(
        1 for x in j_rows.values() for y in j_rows.values() if mul(x, y)
    )
    assert len(first) == nonzero_pairs == 36
    assert len(calls) == 120
    assert tuple(len(rows) for rows in powers) == (23, 8, 7, 6, 5, 4, 3, 2, 1, 0)
