import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    GeneratingSystem,
    Matrix,
    PrimeField,
    build_bkm,
    build_bkml,
    centralizer,
    is_commutative,
    is_maximal_commutative,
    matrix_unit,
)
from subalg.commute import _constraint_rows

from oracles import full_walk_constraint_rows, to_sympy

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


def _centralizer_nullity(mats):
    """Independent dimension count: nullity of I (x) G^T - G (x) I stacked,
    matching the row-major vectorization used by the package."""
    n = mats[0].n
    eye = sympy.eye(n)
    blocks = []
    for m in mats:
        g = to_sympy(m)
        blocks.append(sympy.Matrix(sympy.kronecker_product(eye, g.T) - sympy.kronecker_product(g, eye)))
    stacked = sympy.Matrix.vstack(*blocks)
    return n * n - stacked.rank()


def test_is_commutative_reports_first_bad_pair():
    e12 = matrix_unit(2, 1, 2, QQ)
    e21 = matrix_unit(2, 2, 1, QQ)
    ok, pair = is_commutative([e12, e12 + e12])
    assert ok and pair is None
    ok, pair = is_commutative([e12, e21])
    assert not ok
    assert pair == (e12, e21)


def test_centralizer_of_identity_is_everything():
    cent = centralizer([Matrix.identity(3, QQ)])
    assert cent.dim == 9


def test_centralizer_of_distinct_diagonal_is_diagonal():
    d = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]], QQ)
    cent = centralizer([d])
    assert cent.dim == 3
    for m in cent.basis_matrices():
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert not m.entry(i, j)


def test_centralizer_dim_matches_kron_oracle():
    e12 = matrix_unit(3, 1, 2, QQ)
    assert _centralizer_nullity([e12]) == 5
    assert centralizer([e12]).dim == 5
    b = Matrix.from_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]], QQ
    )
    assert centralizer([b]).dim == _centralizer_nullity([b])


def test_centralizer_members_commute_with_generators():
    g = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 2, 3]], QQ)
    cent = centralizer([g])
    for m in cent.basis_matrices():
        assert (m * g - g * m).is_zero()


def test_maximality_verdict_for_non_maximal_system():
    sys = GeneratingSystem(
        (("I", Matrix.identity(3, QQ)), ("g", matrix_unit(3, 1, 2, QQ)))
    )
    v = is_maximal_commutative(sys)
    assert v.is_commutative
    assert not v.is_maximal
    assert v.algebra_dim == 2
    assert v.centralizer_dim == 5
    # the witness element really does commute yet lies outside
    w = v.counterexample
    assert (w * matrix_unit(3, 1, 2, QQ) - matrix_unit(3, 1, 2, QQ) * w).is_zero()


def test_maximality_verdict_for_noncommutative_system():
    sys = GeneratingSystem(
        (("a", matrix_unit(2, 1, 2, QQ)), ("b", matrix_unit(2, 2, 1, QQ)))
    )
    v = is_maximal_commutative(sys)
    assert not v.is_commutative
    assert not v.is_maximal
    assert isinstance(v.counterexample, tuple)


def test_full_diagonal_algebra_is_maximal():
    sys = GeneratingSystem(
        (
            ("I", Matrix.identity(3, QQ)),
            ("p1", matrix_unit(3, 1, 1, QQ)),
            ("p2", matrix_unit(3, 2, 2, QQ)),
        )
    )
    v = is_maximal_commutative(sys)
    assert v.is_maximal
    assert v.algebra_dim == v.centralizer_dim == 3
    assert v.counterexample is None


def test_reference_construction_is_maximal(full_8152):
    v = is_maximal_commutative(full_8152)
    assert v.is_maximal
    assert v.algebra_dim == v.centralizer_dim == 9


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_constraint_rows_equal_the_full_walk_on_family_systems(field):
    """The walk over nonempty rows and columns yields the full walk's rows,
    in its order, so the early-exit rank and the counterexample are kept."""
    for system in (
        build_bkml(ConstructionParams(8, 1, 5, 2), field),
        build_bkm(BkmParams(8, 2, 2), field),
        build_bkm(BkmParams(12, 1, 5), field),
    ):
        mats = system.matrices
        assert list(_constraint_rows(mats)) == list(full_walk_constraint_rows(mats))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(
    n=st.integers(min_value=1, max_value=5),
    drawn=st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=25, max_size=25),
        min_size=1,
        max_size=3,
    ),
)
def test_constraint_rows_equal_the_full_walk_on_random_matrices(field, n, drawn):
    mats = [
        Matrix.from_rows(
            [[field.from_int(v[i * n + j]) for j in range(n)] for i in range(n)],
            field,
        )
        for v in drawn
    ]
    assert list(_constraint_rows(mats)) == list(full_walk_constraint_rows(mats))
