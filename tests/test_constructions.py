import pytest

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    InvalidParams,
    Matrix,
    PrimeField,
    UnknownCoefficientKey,
    assemble_element,
    build_bkm,
    build_bkml,
    coefficient_template,
    dimension_formula,
    dimension_formula_bkm,
    index_sets,
    matrix_unit,
    shift_matrix,
    valid_bkm_params,
    valid_bkml_params,
    witness_system,
    witness_system_bkm,
)

from oracles import (
    derived_witness,
    mat_pow,
    mat_power_of_chain,
    reference_witness_system,
    reference_witness_system_bkm,
    shift_power_support,
)


def test_params_validation_names_the_violated_constraint():
    with pytest.raises(InvalidParams, match=r"l > m\+k\+1 violated"):
        ConstructionParams(8, 1, 4, 2)
    with pytest.raises(InvalidParams, match=r"l\+k\+1 <= n violated"):
        ConstructionParams(7, 1, 5, 2)
    with pytest.raises(InvalidParams, match=r"m >= 1 violated"):
        ConstructionParams(8, 0, 5, 2)
    with pytest.raises(InvalidParams, match=r"k\+m\+1 <= n violated"):
        BkmParams(3, 2, 1)
    with pytest.raises(InvalidParams, match=r"k >= 1 violated"):
        BkmParams(8, 1, 0)
    # smallest members of each family
    ConstructionParams(6, 1, 4, 1)
    BkmParams(3, 1, 1)


def test_index_sets_for_reference_params(params_8152):
    sets = index_sets(params_8152)
    assert sets.row_indices == (1, 5)
    assert sets.col_indices == (4, 8)


def test_shift_matrix_layout():
    b = shift_matrix(8, 5, 2, QQ)
    ones = [(i, j) for i in range(1, 9) for j in range(1, 9) if b.entry(i, j)]
    assert ones == [(5, 6), (6, 7), (7, 8)]
    with pytest.raises(Exception):
        shift_matrix(8, 6, 2, QQ)


def test_build_bkml_members(params_8152, full_8152):
    assert full_8152.labels == ("I", "B1", "B2", "E_1_4", "E_1_8", "E_5_4", "E_5_8")
    assert full_8152.n == 8
    by_label = dict(full_8152.members)
    assert by_label["I"] == Matrix.identity(8, QQ)
    assert by_label["B1"] == shift_matrix(8, 1, 2, QQ)
    assert by_label["B2"] == shift_matrix(8, 5, 2, QQ)
    assert by_label["E_1_8"] == matrix_unit(8, 1, 8, QQ)


def test_witness_drops_the_two_recoverable_units(params_8152, witness_8152):
    assert witness_8152.labels == ("B1", "B2", "E_1_8", "E_5_4")
    # the dropped units are exactly the (k+1)-st chain powers
    b1 = shift_matrix(8, 1, 2, QQ)
    b2 = shift_matrix(8, 5, 2, QQ)
    assert mat_pow(b1, 3) == matrix_unit(8, 1, 4, QQ)
    assert mat_pow(b2, 3) == matrix_unit(8, 5, 8, QQ)


def test_witness_bkm_drops_one_unit():
    p = BkmParams(8, 1, 2)
    w = witness_system_bkm(p, QQ)
    assert "E_1_4" not in w.labels
    assert "I" not in w.labels
    assert set(build_bkm(p, QQ).labels) - set(w.labels) == {"I", "E_1_4"}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=lambda f: f.name)
def test_witnesses_equal_the_enumerating_builders(field):
    """Filtered from the full systems, the witnesses hold the members that
    enumerating their unit pairs gives: the same labels in the same order
    and the same matrices, on every valid tuple with n <= 12."""
    tuples = 0
    for n in range(1, 13):
        cases = [
            (p, witness_system, reference_witness_system)
            for p in valid_bkml_params(n)
        ]
        cases += [
            (p, witness_system_bkm, reference_witness_system_bkm)
            for p in valid_bkm_params(n)
        ]
        for p, build, reference in cases:
            got, want = build(p, field), reference(p, field)
            assert got.labels == want.labels, p
            assert got == want, p
            tuples += 1
    assert tuples == 350


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=lambda f: f.name)
def test_the_derived_witness_is_the_family_witness(field):
    """From the full system of either family, ``verify_system`` derives the
    witness that enumerating its unit pairs gives, on every valid tuple
    with n <= 8, and it reaches k + 1."""
    cases = [
        (build, reference, p)
        for n in range(1, 9)
        for build, reference, tuples in (
            (build_bkml, reference_witness_system, valid_bkml_params),
            (build_bkm, reference_witness_system_bkm, valid_bkm_params),
        )
        for p in tuples(n)
    ]
    assert len(cases) == 67
    for build, reference, p in cases:
        system = build(p, field)
        rep, positions = derived_witness(system)
        labels = tuple(system.labels[i] for i in positions)
        assert labels == reference(p, field).labels, p
        assert rep.measured.length == p.k + 1, p


def test_build_bkm_members():
    p = BkmParams(8, 1, 2)
    sys = build_bkm(p, QQ)
    assert sys.labels == ("I", "B", "E_1_4", "E_1_5", "E_1_6", "E_1_7", "E_1_8")
    assert dict(sys.members)["B"] == shift_matrix(8, 1, 2, QQ)


def test_coefficient_template_keys(params_8152):
    keys = coefficient_template(params_8152)
    assert keys == (
        "gamma",
        "alpha_1",
        "alpha_2",
        "alpha_3",
        "lambda_1",
        "lambda_2",
        "lambda_3",
        "mu_1_4",
        "mu_1_8",
        "mu_5_4",
        "mu_5_8",
    )


def test_assemble_element_entrywise(params_8152):
    """Every coefficient lands where the template says it does."""
    coeffs = {
        "gamma": 1,
        "alpha_1": 2,
        "alpha_2": 3,
        "alpha_3": 4,
        "lambda_1": 5,
        "lambda_2": 6,
        "lambda_3": 7,
        "mu_1_4": 8,
        "mu_1_8": 9,
        "mu_5_4": 10,
        "mu_5_8": 11,
    }
    got = assemble_element(params_8152, coeffs, QQ)
    expected = {}
    for i in range(1, 9):
        expected[(i, i)] = 1
    for i, j in ((1, 2), (2, 3), (3, 4)):
        expected[(i, j)] = 2
    for i, j in ((1, 3), (2, 4)):
        expected[(i, j)] = 3
    # alpha_3 acts on B1^3 = E(1,4), where mu_1_4 also lands
    expected[(1, 4)] = 4 + 8
    for i, j in ((5, 6), (6, 7), (7, 8)):
        expected[(i, j)] = 5
    for i, j in ((5, 7), (6, 8)):
        expected[(i, j)] = 6
    expected[(5, 8)] = 7 + 11
    expected[(1, 8)] = 9
    expected[(5, 4)] = 10
    for i in range(1, 9):
        for j in range(1, 9):
            want = QQ.from_int(expected.get((i, j), 0))
            assert got.entry(i, j) == want, (i, j)


def test_assemble_element_rejects_unknown_keys(params_8152):
    with pytest.raises(UnknownCoefficientKey):
        assemble_element(params_8152, {"beta_1": 1}, QQ)
    with pytest.raises(UnknownCoefficientKey):
        assemble_element(params_8152, {"mu_2_4": 1}, QQ)
    assert assemble_element(params_8152, {}, QQ).is_zero()


def test_dimension_formulas_on_reference_params(params_8152):
    assert dimension_formula(params_8152) == 9
    assert dimension_formula_bkm(BkmParams(8, 1, 2)) == 8


def test_valid_bkml_params_enumeration():
    got = [(p.m, p.l, p.k) for p in valid_bkml_params(8)]
    assert got == [
        (1, 4, 1),
        (1, 5, 1),
        (1, 5, 2),
        (1, 6, 1),
        (2, 5, 1),
        (2, 6, 1),
        (3, 6, 1),
    ]
    assert valid_bkml_params(5) == []
    assert len(valid_bkml_params(6)) == 1


def test_valid_bkm_params_enumeration():
    got = [(p.m, p.k) for p in valid_bkm_params(5)]
    assert got == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert valid_bkm_params(2) == []


def test_shift_power_support_matches_mat_pow():
    for n, start, k in ((8, 1, 2), (9, 3, 2), (10, 2, 4)):
        b = shift_matrix(n, start, k, QQ)
        for s in range(1, k + 3):
            assert mat_power_of_chain(n, start, k, s, QQ) == mat_pow(b, s)
        assert shift_power_support(start, k, k + 2) == ()


def test_constructions_respect_field_argument():
    f = PrimeField(7)
    sys = build_bkml(ConstructionParams(8, 1, 5, 2), f)
    assert sys.field == f
    assert all(m.field == f for m in sys.matrices)
