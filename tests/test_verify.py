from subalg import (
    QQ,
    GeneratingSystem,
    bound_check,
    is_maximal_commutative,
    li_chain,
    matrix_unit,
    verify_system,
)


def test_report_agrees_with_the_library_verdicts(full_8152, witness_8152):
    rep = verify_system(
        full_8152, witness=witness_8152, certified=3, samples=3, seed=1
    )
    assert rep.closure.dim == 9
    assert rep.own == li_chain(full_8152)
    assert rep.maximality == is_maximal_commutative(full_8152)
    assert rep.measured == li_chain(witness_8152, target=rep.closure)
    assert rep.radical == bound_check(witness_8152)
    assert len(rep.sample_lengths) == 3
    assert rep.bound_holds is True
    assert rep.samples_within_bound
    assert rep.passed


def test_without_a_witness_the_system_is_measured(full_8152):
    rep = verify_system(full_8152)
    assert rep.measured is rep.own
    assert rep.measured.length == 2
    assert rep.sample_lengths is None
    assert rep.passed


def test_a_missed_certified_length_fails(full_8152):
    assert not verify_system(full_8152, certified=3).passed


def test_non_commuting_system_fails_without_sampling():
    a, b = matrix_unit(2, 1, 2, QQ), matrix_unit(2, 2, 1, QQ)
    rep = verify_system(GeneratingSystem((("a", a), ("b", b))), samples=5)
    assert not rep.maximality.is_commutative
    assert rep.maximality.counterexample == (a, b)
    assert rep.sample_lengths is None
    assert not rep.passed
