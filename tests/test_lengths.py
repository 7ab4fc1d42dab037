import copy
import functools
import random
import sys

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from subalg import (
    QQ,
    BkmParams,
    BudgetExceeded,
    ConstructionParams,
    DimensionMismatch,
    EmptySystem,
    FieldMismatch,
    GeneratingSystem,
    Matrix,
    NotASubalgebra,
    NotGenerating,
    NotLocalForm,
    PrimeField,
    RationalField,
    SamplingExhausted,
    algebra_closure,
    build_bkm,
    build_bkml,
    length_of_system,
    li_chain,
    li_chain_spans,
    matrix_unit,
    sample_generating_systems,
    span_of,
    vectorize,
    witness_system,
)
from subalg import exact_linalg, lengths
from subalg.lengths import (
    _coord_chain,
    _plan,
    _plan_row,
    _sample_reports,
)
from subalg.radical import Algebra

from oracles import (
    _recombined_basis,
    _spans_modulo,
    contains_vector,
    enumerate_words,
    reference_samples,
    sympy_word_span_dims,
    table_of,
)


def test_witness_chain_dims_match_word_oracle(witness_8152):
    """Frozen dims first cross-checked against brute-force word spans."""
    expected = [1, 5, 7, 9, 9]
    assert sympy_word_span_dims(witness_8152, 4) == expected
    rep = li_chain(witness_8152)
    assert rep.dims == tuple(expected)
    assert rep.stabilization_step == 4
    assert rep.length == 3
    assert rep.target_dim == 9


def test_full_system_chain_dims_match_word_oracle(full_8152):
    expected = [1, 7, 9, 9]
    assert sympy_word_span_dims(full_8152, 3) == expected
    rep = li_chain(full_8152)
    assert rep.dims == tuple(expected)
    assert rep.stabilization_step == 3
    assert rep.length == 2


def test_identity_only_system():
    sys = GeneratingSystem((("I", Matrix.identity(3, QQ)),))
    rep = li_chain(sys)
    assert rep.dims == (1, 1)
    assert rep.stabilization_step == 1
    assert rep.length == 0


def test_single_nilpotent_generator():
    sys = GeneratingSystem((("g", matrix_unit(2, 1, 2, QQ)),))
    rep = li_chain(sys)
    assert rep.dims == (1, 2, 2)
    assert rep.length == 1
    without_identity = GeneratingSystem(
        (("g", matrix_unit(2, 1, 2, QQ)),), admit_empty_word=False
    )
    rep2 = li_chain(without_identity)
    assert rep2.dims == (0, 1, 1)
    assert rep2.length == 1


def test_empty_system_conventions():
    with_identity = GeneratingSystem((), explicit_n=3, explicit_field=QQ)
    rep = li_chain(with_identity)
    assert rep.dims == (1, 1)
    assert rep.length == 0
    bare = GeneratingSystem((), admit_empty_word=False, explicit_n=3, explicit_field=QQ)
    with pytest.raises(EmptySystem):
        li_chain(bare)


def test_chain_spans_are_nested(witness_8152):
    spans = li_chain_spans(witness_8152)
    assert len(spans) == 5
    for smaller, larger in zip(spans, spans[1:]):
        assert all(contains_vector(larger, row) for row in smaller.basis)


def test_length_against_explicit_target(witness_8152, full_8152):
    target = algebra_closure(full_8152)
    assert length_of_system(witness_8152, target) == 3
    assert length_of_system(full_8152, target) == 2


def test_li_chain_length_is_the_step_that_reaches_the_target(witness_8152):
    own = li_chain(witness_8152)
    spans = li_chain_spans(witness_8152)
    # the last span repeats the one before it, so each earlier one is new
    for i, span in enumerate(spans[:-1]):
        report = li_chain(witness_8152, span)
        assert (report.dims, report.stabilization_step) == (
            own.dims,
            own.stabilization_step,
        )
        assert (report.length, report.target_dim) == (i, span.dim)
    never = span_of([matrix_unit(8, 1, 1, QQ)])
    assert li_chain(witness_8152, never).length is None
    with pytest.raises(DimensionMismatch):
        li_chain(witness_8152, span_of([matrix_unit(3, 1, 1, QQ)]))
    with pytest.raises(FieldMismatch):
        li_chain(witness_8152, span_of([matrix_unit(8, 1, 1, PrimeField(7))]))


def test_length_rejects_non_subalgebra_target(witness_8152):
    open_span = span_of([matrix_unit(8, 1, 2, QQ), matrix_unit(8, 2, 3, QQ)])
    with pytest.raises(NotASubalgebra):
        length_of_system(witness_8152, open_span)


def test_length_raises_when_system_cannot_generate():
    full_m2 = span_of(
        [matrix_unit(2, i, j, QQ) for i in (1, 2) for j in (1, 2)]
    )
    small = GeneratingSystem((("g", matrix_unit(2, 1, 2, QQ)),))
    with pytest.raises(NotGenerating):
        length_of_system(small, full_m2)


def test_enumerate_words_order_and_count():
    a = matrix_unit(2, 1, 1, QQ)
    b = matrix_unit(2, 1, 2, QQ)
    sys = GeneratingSystem((("a", a), ("b", b)))
    words = enumerate_words(sys, 2)
    assert len(words) == 1 + 2 + 4
    ident = Matrix.identity(2, QQ)
    assert words[0] == ident
    assert words[1:3] == [a, b]
    assert words[3:] == [a * a, a * b, b * a, b * b]
    no_empty = GeneratingSystem((("a", a), ("b", b)), admit_empty_word=False)
    assert len(enumerate_words(no_empty, 2)) == 6


def test_enumerate_words_budget(full_8152):
    with pytest.raises(BudgetExceeded):
        enumerate_words(full_8152, 8)
    # a raised budget admits the same request
    assert len(enumerate_words(full_8152, 2, budget=100)) == 1 + 7 + 49


def test_word_spans_equal_chain_spans(witness_8152):
    spans = li_chain_spans(witness_8152)
    for i, expected in enumerate(spans):
        words = enumerate_words(witness_8152, i)
        assert span_of(words, n=8, field=QQ) == expected


def test_sampling_is_deterministic(full_8152):
    target = algebra_closure(full_8152)
    first = sample_generating_systems(target, 3, seed=7)
    second = sample_generating_systems(target, 3, seed=7)
    assert [s.members for s, _ in first] == [t.members for t, _ in second]
    other = sample_generating_systems(target, 3, seed=8)
    assert [s.members for s, _ in first] != [t.members for t, _ in other]


def test_samples_generate_the_target(full_8152):
    target = algebra_closure(full_8152)
    for sys, _ in sample_generating_systems(target, 5, seed=0):
        assert algebra_closure(sys) == target
        assert len(sys.members) >= (target.dim + 1) // 2
        assert sys.labels == tuple(f"g{i + 1}" for i in range(len(sys.members)))


def _first_candidate_passes(alg: Algebra, seed: int, rank: int) -> bool:
    """Whether the first candidate drawn from the seed passes A's screen."""
    plan = _plan(random.Random(seed), alg.d, rank)
    members = [_plan_row(plan, i, alg.field) for i in plan.chosen]
    return _coord_chain(alg, members, True, screen=True) is not None


def test_sampling_exhaustion_is_reported(full_8152):
    # seed 5 draws a non-generating subset on its first try
    target = algebra_closure(full_8152)
    alg = Algebra(target)
    assert not _first_candidate_passes(alg, 5, alg.d - len(alg.modulus))
    with pytest.raises(SamplingExhausted):
        sample_generating_systems(target, 1, seed=5, max_rejections=1)


def test_sampling_requires_unital_subalgebra():
    no_identity = span_of([matrix_unit(2, 1, 2, QQ)])
    with pytest.raises(NotASubalgebra):
        sample_generating_systems(no_identity, 1, seed=0)
    not_closed = span_of([matrix_unit(3, 1, 2, QQ), matrix_unit(3, 2, 3, QQ)])
    with pytest.raises(NotASubalgebra):
        sample_generating_systems(not_closed, 1, seed=0)


@pytest.mark.parametrize("family", ["bkml", "bkm"])
def test_sampled_reports_equal_targeted_chains(family, fields):
    """The report returned with each sample is its length report."""
    for field in fields:
        if family == "bkml":
            full = build_bkml(ConstructionParams(8, 1, 5, 2), field)
        else:
            full = build_bkm(BkmParams(8, 1, 2), field)
        target = algebra_closure(full)
        for system, report in sample_generating_systems(target, 4, seed=5):
            assert report == li_chain(system, target)


CRITERION_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]
CRITERION_TUPLES = [
    ConstructionParams(6, 1, 4, 1),
    ConstructionParams(8, 1, 5, 2),
    BkmParams(6, 1, 3),
    BkmParams(6, 2, 2),
    BkmParams(8, 1, 2),
]


@functools.cache
def _local_target(params, field):
    """The closure of a family tuple, its table, and F*I + J^2 on it."""
    build = build_bkml if isinstance(params, ConstructionParams) else build_bkm
    target = algebra_closure(build(params, field))
    coords = Algebra(target)
    return target, coords, coords.modulus


@pytest.mark.parametrize("field", CRITERION_FIELDS, ids=lambda f: f.name)
@given(
    params=st.sampled_from(CRITERION_TUPLES),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_rank_test_modulo_unit_plus_square_decides_generation(
    field, params, seed, data
):
    """Nakayama's lemma: a subset of a recombined basis generates the local
    target exactly when it spans the target modulo F*I + J^2."""
    target, coords, modulus = _local_target(params, field)
    d = coords.d
    gens = _recombined_basis(random.Random(seed), field, d)
    rank = d - len(modulus)
    size = data.draw(st.integers(min_value=max(rank - 1, 1), max_value=d))
    chosen = sorted(data.draw(st.permutations(range(d)))[:size])
    members = [gens[idx] for idx in chosen]
    verdict = _spans_modulo(modulus, members, field, d)
    event(f"generates: {verdict}")
    assert verdict == (_coord_chain(coords, members, True).length is not None)
    assert verdict == (_coord_chain(coords, members, True, screen=True) is not None)
    system = GeneratingSystem(
        tuple((f"g{i + 1}", coords.matrix(x)) for i, x in enumerate(members))
    )
    assert verdict == (algebra_closure(system) == target)


def test_sampler_checks_each_accepted_chain(full_8152):
    # with all of A as the modulus every candidate passes the rank test;
    # seed 5 draws a non-generating one first, and its chain must say so
    target = algebra_closure(full_8152)
    assert not _first_candidate_passes(Algebra(target), 5, 0)
    coords = Algebra(target)
    coords.modulus = {i: {i: QQ.one()} for i in range(coords.d)}
    with pytest.raises(NotGenerating):
        _sample_reports(coords, 1, seed=5)


def test_witness_chain_forms_each_commuting_pair_once():
    """A deterministic work count in place of a wall-clock gate.  The
    witness of bkml (8,1,5,2) over Q has s = 4 members B1, B2, E_1_8 and
    E_5_4, and dims (1, 5, 7, 9, 9) on its commutative closure's table.
    Step 2 multiplies an unordered pair of members once, and only when the
    table stores a product of basis rows in their supports: B1*B1 and
    B2*B2, where all s(s+1)/2 = 10 pairs took 10 products.  Step 3 fills A
    with B1*B1^2 and B2*B2^2, where all members took 6 products."""
    params = ConstructionParams(8, 1, 5, 2)
    _, coords, _ = _local_target(params, QQ)
    members = [
        coords.coordinates(vectorize(m)) for m in witness_system(params, QQ).matrices
    ]
    right = []
    coords = copy.copy(coords)
    coords.mul = lambda x, y: right.append(y) or Algebra.mul(coords, x, y)
    report = _coord_chain(coords, members, True)
    assert report.dims == (1, 5, 7, 9, 9)
    assert coords.commutative
    table = table_of(coords)
    meeting = sum(
        1
        for j, y in enumerate(members)
        for x in members[: j + 1]
        if any((p, q) in table for p in x for q in y)
    )
    assert sum(1 for y in right if any(y is x for x in members)) == meeting == 2
    assert len(right) == 2 + 2


def test_refused_screened_chain_forms_no_product():
    """The witness of bkml (8,1,5,2) without B1 does not generate its
    closure, so its screened chain stops after step 1 with no product; run
    unscreened, the same chain goes on to multiply."""
    params = ConstructionParams(8, 1, 5, 2)
    _, coords, _ = _local_target(params, QQ)
    witness = witness_system(params, QQ)
    members = [
        coords.coordinates(vectorize(m))
        for label, m in witness.members
        if label != "B1"
    ]
    products = []
    coords = copy.copy(coords)
    coords.mul = lambda x, y: products.append(y) or Algebra.mul(coords, x, y)
    assert _coord_chain(coords, members, True, screen=True) is None
    assert products == []
    assert _coord_chain(coords, members, True).length is None
    assert products != []


@pytest.mark.parametrize("field", CRITERION_FIELDS, ids=lambda f: f.name)
@given(
    d=st.integers(min_value=1, max_value=30),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_plan_draws_the_recombined_basis(field, d, seed, data):
    """The plan makes every draw of the recombination, in order: the
    partners of the ascending pass, then of the descending one, the member
    count on [max(rank, ceil(d/2)), d], then the members as one ordered
    sample; and its rows are the recombined rows."""
    rank = data.draw(st.integers(min_value=0, max_value=d))
    rng, ref = random.Random(seed), random.Random(seed)
    plan = _plan(rng, d, rank)
    rows = _recombined_basis(ref, field, d)
    size = ref.randint(max(rank, (d + 1) // 2), d)
    assert [_plan_row(plan, i, field) for i in range(d)] == rows
    assert plan.chosen == ref.sample(range(d), size)
    assert rng.getstate() == ref.getstate()


class _CountingRandom(random.Random):
    """``random.Random`` counting calls to its two primitives, every other
    method's source of randomness; its stream is unchanged."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


# a stated bound on the rng calls of one candidate: about 3d partners, one
# end of each pass, the count and the ordered sample of at most d members
CALLS_PER_COORDINATE = 8


def test_a_candidate_draws_linearly_many_times(monkeypatch):
    """A deterministic work count in place of a wall-clock gate.  Each
    candidate for bkm (24,6,5) over GF(32003), d = 84, makes at most 8d rng
    calls, where a dense trial per pair made d(d - 1) = 6 972; every draw
    of the sampler is a plan's."""
    _, alg, _ = _local_target(BkmParams(24, 6, 5), PrimeField(32003))
    d = alg.d
    assert d == 84
    rng = _CountingRandom(3)
    monkeypatch.setattr(lengths.random, "Random", lambda seed: rng)
    per_plan = []

    def counted(r, *args):
        before = r.calls
        plan = _plan(r, *args)
        per_plan.append(r.calls - before)
        return plan

    monkeypatch.setattr(lengths, "_plan", counted)
    assert len(_sample_reports(alg, 25, seed=3)) == 25
    assert len(per_plan) >= 25
    assert max(per_plan) <= CALLS_PER_COORDINATE * d < d * (d - 1)
    assert sum(per_plan) == rng.calls


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_plans_with_density_one_take_every_partner_without_a_draw(d):
    # 3/(d-1) >= 1: every pair is a partner, and only the count and the
    # members are drawn
    rng, ref = random.Random(0), random.Random(0)
    plan = _plan(rng, d, 0)
    assert plan.first == [list(range(i + 1, d)) for i in range(d)]
    assert plan.second == [list(range(i)) for i in range(d)]
    size = ref.randint((d + 1) // 2, d)
    assert plan.chosen == ref.sample(range(d), size)
    assert rng.getstate() == ref.getstate()


def test_partner_frequencies_match_the_density():
    """Fixed seed: over 2 000 plans at d = 12, every pair's partner frequency
    in either pass lies within 5 sigma of the density 3/11."""
    d, trials = 12, 2000
    density = 3 / (d - 1)
    rng = random.Random(12)
    up, down = {}, {}
    for _ in range(trials):
        plan = _plan(rng, d, 0)
        for i in range(d):
            for j in plan.first[i]:
                up[i, j] = up.get((i, j), 0) + 1
            for j in plan.second[i]:
                down[i, j] = down.get((i, j), 0) + 1
    sigma = (density * (1 - density) / trials) ** 0.5
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for counts, keys in ((up, pairs), (down, [(j, i) for i, j in pairs])):
        assert set(counts) <= set(keys)
        for key in keys:
            assert abs(counts.get(key, 0) / trials - density) <= 5 * sigma, key


def test_scalar_algebra_samples_have_rank_zero_and_length_zero():
    """A = F*I has d = 1 and F*I + J^2 = A, so the rank is 0; each sample
    has one member, and L_0 is already A."""
    target = span_of([Matrix.identity(3, QQ)])
    alg = Algebra(target)
    assert (alg.d, len(alg.modulus)) == (1, 1)
    for system, report in sample_generating_systems(target, 3, seed=0):
        assert system.labels == ("g1",)
        assert report == li_chain(system, target)
        assert (report.dims, report.length) == ((1, 1), 0)


def test_max_rejections_zero_allows_no_refusal(full_8152):
    target = algebra_closure(full_8152)
    alg = Algebra(target)
    rank = alg.d - len(alg.modulus)
    assert _first_candidate_passes(alg, 0, rank)
    assert len(_sample_reports(alg, 1, seed=0, max_rejections=0)) == 1
    assert not _first_candidate_passes(alg, 5, rank)
    with pytest.raises(SamplingExhausted):
        _sample_reports(alg, 1, seed=5, max_rejections=0)


@pytest.mark.parametrize("params", CRITERION_TUPLES, ids=str)
def test_samples_equal_the_reference_sampler(params, fields):
    for field in fields:
        target, _, _ = _local_target(params, field)
        for seed in (0, 8):
            got = sample_generating_systems(target, 3, seed)
            want = reference_samples(target, 3, seed)
            assert [s.labels for s, _ in got] == [s.labels for s, _ in want]
            assert [s.matrices for s, _ in got] == [s.matrices for s, _ in want]
            assert [r for _, r in got] == [r for _, r in want]


def test_sampling_requires_local_target():
    # span{I, E11} is a unital subalgebra of M_2 whose radical is zero
    split = span_of([Matrix.identity(2, QQ), matrix_unit(2, 1, 1, QQ)])
    with pytest.raises(NotLocalForm):
        sample_generating_systems(split, 1, seed=0)


def test_table_build_work_is_counted_by_nonzeros(monkeypatch):
    """A deterministic work count in place of a wall-clock gate.  Building
    the table of the closure of bkm (24,1,8) over Q forms no Matrix product.
    Its products cost one axpy per (p, q, i, k) where basis row p is
    nonzero at (i, k) and row k of basis matrix q is nonempty; reducing
    each product, and the identity, against A costs one axpy per pivot
    coordinate it holds, that is one per entry of its coordinates."""
    closure = algebra_closure(build_bkm(BkmParams(24, 1, 8), QQ))
    n, basis = closure.n, list(closure.pivot_rows.values())
    nonempty = [{c // n for c in row} for row in basis]
    products = sum(1 for row in basis for c in row for q in nonempty if c % n in q)

    axpys = []
    real_axpy = RationalField.axpy
    monkeypatch.setattr(
        RationalField, "axpy",
        lambda self, y, c, x: axpys.append(c) or real_axpy(self, y, c, x),
    )
    mat_muls = []
    real_mat_mul = exact_linalg.mat_mul
    for name, module in list(sys.modules.items()):
        if name.startswith("subalg") and getattr(module, "mat_mul", None) is real_mat_mul:
            monkeypatch.setattr(
                module, "mat_mul",
                lambda *a: mat_muls.append(a) or real_mat_mul(*a),
            )
    coords = Algebra(closure)
    reductions = sum(map(len, table_of(coords).values())) + len(coords.identity)
    assert mat_muls == []
    assert len(axpys) == products + reductions
