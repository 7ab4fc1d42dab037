"""The support index against the all-pairs loops it replaced.

A product that the chains, the table or the radical powers skip is zero,
because no term of it can be nonzero, and a zero product inserts nothing.
So every echelon must receive the same nonzero vectors, in the same order,
as it does from the all-pairs loops in ``oracles``, and the table must get
the same entries in the same insertion order.  The draws are family systems,
their conjugates P S P^-1, and random sparse matrices, whose algebras are
often not commutative, over every test field.
"""

from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import subalg.lengths as lengths
import subalg.radical as radical
from subalg import (
    QQ,
    BkmParams,
    GeneratingSystem,
    Matrix,
    PrimeField,
    build_bkm,
    build_bkml,
    matrix_unit,
    valid_bkm_params,
    valid_bkml_params,
)
from subalg.constructions import _witness_of
from subalg.exact_linalg import _Echelon, _meeting, _support_index, vectorize
from subalg.lengths import _chain, _coord_chain
from subalg.radical import Algebra
from subalg.verify import verify_system

from oracles import (
    all_pairs_chain,
    all_pairs_coord_chain,
    all_pairs_table,
    draw_conjugator,
    table_of,
)

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]

@contextmanager
def recorded_inserts():
    """Every nonzero vector given to any ``_Echelon.insert`` while open, in
    order."""
    seen = []
    insert = _Echelon.insert

    def recording(self, vec):
        if vec:
            seen.append(dict(vec))
        return insert(self, vec)

    _Echelon.insert = recording
    try:
        yield seen
    finally:
        _Echelon.insert = insert


def test_meeting_lists_the_holders_of_any_key_in_ascending_order():
    index = _support_index([{1, 2}, {3}, {2, 5}, set(), {5}])
    assert index == {1: 0b1, 2: 0b101, 3: 0b10, 5: 0b10100}
    assert _meeting(index, [5, 2]) == [0, 2, 4]
    assert _meeting(index, iter([3, 7])) == [1]
    assert _meeting(index, [4]) == _meeting(index, []) == []


def _sparse(size):
    """1 to 3 nonzero small integers at coordinates below size."""
    nonzero = st.sampled_from([-2, -1, 1, 2])
    return st.dictionaries(
        st.integers(min_value=0, max_value=size - 1), nonzero, min_size=1, max_size=3
    )


def _matrix(field, n, entries):
    rows = [[field.from_int(entries[i * n + j]) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows, field)


def _draw_system(field, data) -> GeneratingSystem:
    kind = data.draw(st.sampled_from(["family", "conjugated", "random"]))
    event(kind)
    if kind == "random":
        # sparse matrices, so that most products of two of them are zero
        n = data.draw(st.integers(min_value=2, max_value=4))
        drawn = data.draw(st.lists(_sparse(n * n), min_size=2, max_size=3))
        mats = [
            _matrix(field, n, [entries.get(c, 0) for c in range(n * n)])
            for entries in drawn
        ]
        labelled = tuple((f"g{i + 1}", m) for i, m in enumerate(mats))
        return GeneratingSystem(labelled, admit_empty_word=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        params = data.draw(st.sampled_from(valid_bkml_params(7)))
        system = build_bkml(params, field)
    else:
        params = data.draw(st.sampled_from(valid_bkm_params(6)))
        system = build_bkm(params, field)
    if data.draw(st.booleans()):
        system = _witness_of(system, params)
    if kind == "family":
        return system
    p, p_inv = draw_conjugator(field, system.n, data)
    return GeneratingSystem(
        tuple((label, p * m * p_inv) for label, m in system.members),
        admit_empty_word=system.admit_empty_word,
    )


def _assert_all_pairs_agree(system, draw_members):
    """The same spans, table and chain reports as the all-pairs loops, with
    the same nonzero inserts in the same order; the coordinate chain runs on
    the system's own members and on the members ``draw_members(alg)``
    gives."""
    with recorded_inserts() as got:
        report, spans = _chain(system)
    with recorded_inserts() as want:
        assert (report, spans) == all_pairs_chain(system)
    assert got == want

    alg = Algebra(spans[-1])
    table, right = all_pairs_table(spans[-1], alg)
    assert list(table_of(alg).items()) == list(table.items())
    assert [list(col.items()) for col in alg.right] == [
        list(col.items()) for col in right
    ]
    own = [alg.coordinates(vectorize(m)) for m in system.matrices]
    admit = system.admit_empty_word
    for members in (own, draw_members(alg)):
        if not members and not admit:
            continue
        with recorded_inserts() as got:
            report = _coord_chain(alg, members, admit)
        with recorded_inserts() as want:
            assert report == all_pairs_coord_chain(alg, members, admit)
        assert got == want
    return alg


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@settings(max_examples=40)
@given(data=st.data())
def test_chains_and_table_equal_the_all_pairs_loops(field, data):
    def draw_members(alg):
        drawn = data.draw(st.lists(_sparse(alg.d), max_size=4)) if alg.d else []
        return [
            {p: c for p, v in entries.items() if (c := field.from_int(v))}
            for entries in drawn
        ]

    alg = _assert_all_pairs_agree(_draw_system(field, data), draw_members)
    event(f"commutative: {alg.commutative}")


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_one_sided_products_are_formed_in_their_order(field):
    """E12 * E23 = E13 but E23 * E12 = 0, in either member order, so an
    index that confused the left and the right factor would miss E13."""
    e12, e23 = matrix_unit(3, 1, 2, field), matrix_unit(3, 2, 3, field)
    for mats in ((e12, e23), (e23, e12)):
        labelled = tuple((f"g{i}", m) for i, m in enumerate(mats))
        system = GeneratingSystem(labelled, admit_empty_word=False)
        assert _chain(system)[0].dims == (0, 2, 3, 3)
        one = field.one()
        alg = _assert_all_pairs_agree(system, lambda alg: [{0: one}, {2: one}])
        assert len(table_of(alg)) == 1


def test_certification_forms_no_zero_product(monkeypatch):
    """On bkm (24,1,8) over Q every product that ``verify_system`` forms, in
    n*n coordinates (``_vec_mul``) or on the table (``Algebra.mul``), is
    nonzero; the all-pairs loops formed 474 and 331, of which 360 and 203
    were zero."""
    products = []

    def counted(fn):
        def wrapper(*args):
            out = fn(*args)
            products.append((fn.__name__, bool(out)))
            return out

        return wrapper

    vec_mul = counted(lengths._vec_mul)
    monkeypatch.setattr(lengths, "_vec_mul", vec_mul)
    monkeypatch.setattr(radical, "_vec_mul", vec_mul)
    monkeypatch.setattr(Algebra, "mul", counted(Algebra.mul))
    params = BkmParams(24, 1, 8)
    rep = verify_system(build_bkm(params, QQ), certified=params.k + 1)
    assert rep.passed
    assert {name for name, _ in products} == {"_vec_mul", "mul"}
    assert all(nonzero for _, nonzero in products)
