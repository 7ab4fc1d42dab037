from collections import Counter

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
from subalg.commute import _constraints

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


def _assert_constraints_split_the_full_walk(mats):
    """``_constraints`` gives the coordinates of the full walk's one-entry
    rows as its zero set, and the walk's other rows as a multiset: neither
    the rank nor the canonical kernel depends on the rows' order."""
    zero, rows = _constraints(mats)
    walk = list(full_walk_constraint_rows(mats))
    assert zero == {c for row in walk if len(row) == 1 for c in row}
    assert Counter(tuple(sorted(row.items())) for row in rows) == Counter(
        tuple(sorted(row.items())) for row in walk if len(row) > 1
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_constraints_split_the_full_walk_on_family_systems(field):
    for system in (
        build_bkml(ConstructionParams(8, 1, 5, 2), field),
        build_bkm(BkmParams(8, 2, 2), field),
        build_bkm(BkmParams(12, 1, 5), field),
    ):
        _assert_constraints_split_the_full_walk(system.matrices)


def _drawn_matrix(field, n, kind, v):
    """A dense matrix from the values ``v``, their diagonal alone, or the
    scalar matrix of their first nonzero value outside {0, 1}."""
    if kind == "scalar":
        c = next((x for x in v if x not in (0, 1)), 2)
        return Matrix.identity(n, field).scale(field.from_int(c))
    rows = [[field.from_int(v[i * n + j]) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        z = field.zero()
        rows = [[x if i == j else z for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return Matrix.from_rows(rows, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(
    n=st.integers(min_value=1, max_value=5),
    drawn=st.lists(
        st.tuples(
            st.sampled_from(["dense", "dense", "diagonal", "scalar"]),
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3]), min_size=25, max_size=25),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_constraints_split_the_full_walk_on_random_matrices(field, n, drawn):
    mats = [_drawn_matrix(field, n, kind, v) for kind, v in drawn]
    _assert_constraints_split_the_full_walk(mats)
