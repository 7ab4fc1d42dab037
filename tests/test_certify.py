"""Table-first certification against the whole-centralizer reference.

The maximality verdict read off the closure's table (its symmetry, then
the rank of the centralizer constraints with an early exit) must equal
``oracles.reference_maximality`` (pairwise products and the full
centralizer kernel), counterexample included, on family systems and on
small dense, polynomial and diagonal systems, whose centralizer must also
equal the kernel of the full walk's constraint rows.  A witness's chain
run on the closure's table must report what ``li_chain(...,
target=closure)`` reports in the n*n matrix coordinates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subalg.exact_linalg as exact_linalg
import subalg.lengths as lengths
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
    centralizer,
    kernel,
    li_chain,
    matrix_unit,
    valid_bkm_params,
    valid_bkml_params,
    vectorize,
    verify_system,
    witness_system,
)
from subalg.commute import _constraints, _maximality
from subalg.lengths import _target_chain
from subalg.radical import Algebra

from oracles import full_walk_constraint_rows, reference_maximality

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]
PARAMS_8152 = ConstructionParams(n=8, m=1, l=5, k=2)


def _verdicts(system):
    """(table-first verdict, reference verdict, verify_system's verdict)."""
    closure = algebra_closure(system)
    got = _maximality(system.matrices, Algebra(closure))
    want = reference_maximality(system.matrices, closure)
    return got, want, verify_system(system).maximality


def _draw_family(field, data):
    if data.draw(st.booleans()):
        return build_bkml(data.draw(st.sampled_from(valid_bkml_params(7))), field)
    return build_bkm(data.draw(st.sampled_from(valid_bkm_params(6))), field)


def _draw_members(full, data, field):
    """Some members of a family system, and maybe a matrix unit, which may
    lie outside its algebra or not commute with it."""
    picks = data.draw(
        st.lists(st.sampled_from(range(len(full.members))), min_size=1, unique=True)
    )
    members = [full.members[i] for i in sorted(picks)]
    if data.draw(st.booleans()):
        n = full.n
        i, j = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
        members.append(("X", matrix_unit(n, i, j, field)))
    return tuple(members)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_full_family_systems_are_maximal(field):
    systems = [build_bkml(p, field) for p in valid_bkml_params(7)]
    systems += [build_bkm(p, field) for p in valid_bkm_params(6)]
    for system in systems:
        got, want, piped = _verdicts(system)
        assert got == want == piped
        assert got.is_maximal and got.centralizer_dim == got.algebra_dim


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_each_failing_verdict_matches_the_reference(field):
    full = build_bkml(PARAMS_8152, field)
    n = full.n
    subset = GeneratingSystem(full.members[:2])
    noncommuting = GeneratingSystem(
        full.members[1:3] + (("X", matrix_unit(n, n, 1, field)),)
    )
    no_identity = GeneratingSystem(full.members[1:], admit_empty_word=False)
    for system, commutes in [(subset, True), (noncommuting, False), (no_identity, True)]:
        got, want, piped = _verdicts(system)
        assert got == want == piped
        assert (got.is_commutative, got.is_maximal) == (commutes, False)
        assert got.counterexample is not None


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@settings(max_examples=15)
@given(data=st.data())
def test_verdict_matches_the_whole_centralizer(field, data):
    full = _draw_family(field, data)
    system = GeneratingSystem(
        _draw_members(full, data, field), admit_empty_word=data.draw(st.booleans())
    )
    got, want, piped = _verdicts(system)
    assert got == want == piped


def _draw_matrix(data, field, n, diagonal=False):
    """A sparse random n-by-n matrix, or its diagonal alone."""
    values = st.sampled_from([0, 0, 0, 1, -1, 2])
    v = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
    rows = [
        [field.from_int(v[i * n + j]) if i == j or not diagonal else 0 for j in range(n)]
        for i in range(n)
    ]
    return Matrix.from_rows(rows, field)


def _draw_small_system(field, data):
    """Up to three n-by-n matrices, n <= 5: dense ones, which seldom
    commute; polynomials in one matrix, which commute and may or may not
    generate a maximal algebra; or diagonal ones."""
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["dense", "polynomials", "diagonal"]))
    count = data.draw(st.integers(1, 3))
    if kind == "polynomials":
        a = _draw_matrix(data, field, n)
        powers = [Matrix.identity(n, field)]
        for _ in range(n - 1):
            powers.append(powers[-1] * a)
        mats = []
        for _ in range(count):
            coeffs = data.draw(
                st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n, max_size=n)
            )
            p = Matrix.zero(n, field)
            for c, power in zip(coeffs, powers):
                p = p + power.scale(field.from_int(c))
            mats.append(p)
    else:
        mats = [_draw_matrix(data, field, n, kind == "diagonal") for _ in range(count)]
    members = tuple((f"g{i}", m) for i, m in enumerate(mats))
    return GeneratingSystem(members, admit_empty_word=data.draw(st.booleans()))


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.name)
@settings(max_examples=40)
@given(data=st.data())
def test_verdict_matches_the_reference_beyond_family_members(field, data):
    system = _draw_small_system(field, data)
    mats, n = system.matrices, system.n
    closure = algebra_closure(system)
    assert _maximality(mats, Algebra(closure)) == reference_maximality(mats, closure)
    assert centralizer(mats) == kernel(list(full_walk_constraint_rows(mats)), n, field)


def test_maximality_inserts_no_one_entry_constraint(monkeypatch):
    """A work count: at bkm (24,1,8) over Q the one-entry constraints are
    the zero set, whose unit rows seed the rank, so it inserts none of
    them, and at most each other row once.  Inserting the walk's own rows
    until the rank reaches n*n - d would take 1 033 inserts."""
    system = build_bkm(BkmParams(24, 1, 8), QQ)
    alg = Algebra(algebra_closure(system))
    zero, rows = _constraints(system.matrices)
    inserted = []
    real_insert = exact_linalg._Echelon.insert
    monkeypatch.setattr(
        exact_linalg._Echelon,
        "insert",
        lambda self, vec: inserted.append(dict(vec)) or real_insert(self, vec),
    )
    assert _maximality(system.matrices, alg).is_maximal
    assert 0 < len(inserted) <= len(rows) == 96
    assert all(len(vec) >= 2 for vec in inserted)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_family_witness_runs_on_the_table(field, monkeypatch):
    full = build_bkml(PARAMS_8152, field)
    witness = witness_system(PARAMS_8152, field)
    closure = algebra_closure(full)
    want = li_chain(witness, target=closure)
    monkeypatch.setattr(lengths, "li_chain", lambda *a, **k: pytest.fail("n*n chain"))
    got = _target_chain(witness, Algebra(closure))
    assert got == want
    assert got.length == PARAMS_8152.k + 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_witnesses_outside_the_table_fall_back(field):
    """A member outside A, or the empty word on an A without the identity,
    sends the chain to the n*n coordinates."""
    full = build_bkml(PARAMS_8152, field)
    n = full.n
    closure = algebra_closure(full)
    outside = GeneratingSystem(full.members[1:3] + (("X", matrix_unit(n, n, 1, field)),))
    bare = algebra_closure(GeneratingSystem(full.members[1:], admit_empty_word=False))
    assert Algebra(bare).identity is None
    for witness, target in [(outside, closure), (GeneratingSystem(full.members[1:3]), bare)]:
        assert _target_chain(witness, Algebra(target)) == li_chain(
            witness, target=target
        )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@settings(max_examples=15)
@given(data=st.data())
def test_table_chain_matches_the_matrix_chain(field, data):
    full = _draw_family(field, data)
    if data.draw(st.booleans()):
        target = algebra_closure(full)
    else:
        target = algebra_closure(
            GeneratingSystem(full.members[1:], admit_empty_word=False)
        )
    witness = GeneratingSystem(
        _draw_members(full, data, field), admit_empty_word=data.draw(st.booleans())
    )
    assert _target_chain(witness, Algebra(target)) == li_chain(witness, target=target)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_maximal_verdict_takes_ranks_only_and_multiplies_only_nonzeros(
    field, monkeypatch
):
    """A work count: on a maximal family tuple neither the verdict nor the
    witness's chain on the table builds canonical rows, and the table's
    products, in the verdict, the radical's powers and a chain, never pass
    an empty operand to an axpy."""
    system = build_bkml(PARAMS_8152, field)
    alg = Algebra(algebra_closure(system))
    witness = witness_system(PARAMS_8152, field)
    members = [alg.coordinates(vectorize(m)) for m in witness.matrices]
    canonical_calls = []
    real_canonical = exact_linalg._Echelon.canonical
    monkeypatch.setattr(
        exact_linalg._Echelon,
        "canonical",
        lambda self: canonical_calls.append(self) or real_canonical(self),
    )
    assert _maximality(system.matrices, alg).is_maximal
    assert canonical_calls == []
    chain = lengths._coord_chain(alg, members, witness.admit_empty_word)
    assert chain.length == PARAMS_8152.k + 1
    assert canonical_calls == []
    monkeypatch.undo()

    empty_operands, in_mul, muls = [], [], []
    real_axpy, real_mul = type(field).axpy, Algebra.mul

    def axpy(self, y, c, x):
        if in_mul and not (c and x):
            empty_operands.append((c, x))
        return real_axpy(self, y, c, x)

    def mul(self, *args):
        in_mul.append(1)
        muls.append(1)
        try:
            return real_mul(self, *args)
        finally:
            in_mul.pop()

    monkeypatch.setattr(type(field), "axpy", axpy)
    monkeypatch.setattr(Algebra, "mul", mul)
    alg = Algebra(alg.space)
    assert alg.commutative
    assert len(alg.powers) == 4
    assert verify_system(system, witness=witness_system(PARAMS_8152, field)).passed
    assert muls and empty_operands == []
