import pytest

from subalg import (
    QQ,
    GeneratingSystem,
    PrimeField,
    bound_check,
    is_maximal_commutative,
    li_chain,
    matrix_unit,
    verify_system,
)
from subalg.lengths import _coord_chain
from subalg.radical import Algebra

from oracles import open_bracket_system


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


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3)], ids=lambda f: f.name
)
def test_an_algebra_below_its_bound_passes(field):
    """The regular representation of F[x,y]/(x^2 - y^3, xy, y^4) is maximal
    and local with N = 4, and {x, y} reaches it in 2 < N - 1 steps: the
    bound is an upper bound, not a length the checker expects."""
    rep = verify_system(open_bracket_system(field))
    assert rep.closure.dim == 5
    assert rep.maximality.is_maximal
    assert rep.radical.power_dims == (4, 2, 1, 0)
    assert rep.own.dims == (1, 3, 5, 5)
    assert rep.own.length == 2
    assert rep.bound_holds is True
    assert rep.passed


def test_every_generating_pair_over_gf2_has_length_at_most_two():
    """l(A) = 2 < N - 1 = 3 over GF(2).  A system's chain depends only on
    its span V with I.  A generating V holds two elements spanning A
    modulo F*I + J^2, which generate A by Nakayama's lemma, and their
    chain is never shorter than V's; so the 384 generating pairs of A's
    32 elements bound every generating system."""
    alg = Algebra(verify_system(open_bracket_system(PrimeField(2))).closure)
    elements = [{i: 1 for i in range(5) if bits >> i & 1} for bits in range(32)]
    lengths = [
        _coord_chain(alg, [a, b], True).length for a in elements for b in elements
    ]
    generating = [n for n in lengths if n is not None]
    assert len(generating) == 384
    assert max(generating) == 2
