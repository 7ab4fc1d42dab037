import pytest
import sympy

from subalg import (
    QQ,
    DimensionMismatch,
    FieldMismatch,
    GeneratingSystem,
    Matrix,
    NotASubalgebra,
    NotLocalForm,
    NotNilpotent,
    PrimeField,
    algebra_closure,
    bound_check,
    matrix_unit,
    nilpotency_index,
    radical_power_dims,
    radical_span,
    span_of,
)

from subalg.radical import Algebra

from oracles import to_sympy


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
    # inside the upper triangular algebra, whose table is given
    units = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i <= j]
    upper = span_of([matrix_unit(3, i, j, QQ) for i, j in units])
    with pytest.raises(NotASubalgebra):
        radical_power_dims(not_closed, Algebra(upper))


def test_power_dims_reject_an_algebra_of_another_size_or_field():
    units = [(i, j) for i in range(1, 5) for j in range(1, 5) if i <= j]
    upper = Algebra(span_of([matrix_unit(4, i, j, QQ) for i, j in units]))
    with pytest.raises(DimensionMismatch):
        radical_power_dims(span_of([matrix_unit(3, 1, 3, QQ)]), upper)
    with pytest.raises(FieldMismatch):
        radical_power_dims(span_of([matrix_unit(4, 1, 3, PrimeField(7))]), upper)


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
