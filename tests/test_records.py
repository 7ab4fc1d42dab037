"""The package's immutable records share one base, ``exact_linalg.Record``:
value equality within one class, hashing, immutability, argument checking,
``__post_init__`` checks and pickling, for each of the twelve records."""

import pickle

import pytest

from subalg import (
    QQ,
    BkmParams,
    ConstructionParams,
    EmptySystem,
    GeneratingSystem,
    IndexSets,
    InvalidParams,
    LengthReport,
    MaximalityVerdict,
    Matrix,
    PrimeField,
    RadicalReport,
    Subspace,
    VerificationReport,
)
from subalg.exact_linalg import RationalField, Record


def _subspace():
    return (2, QQ, {0: {0: 1, 3: 1}})


def _verification():
    chain = LengthReport((1, 2, 2), 2, 1, 2)
    verdict = MaximalityVerdict(2, 2, True, True, None)
    radical = RadicalReport(1, 2, (1, 0), True, 1)
    return (Subspace(*_subspace()), chain, verdict, chain, None, radical, (1, 1))


# each record class with a function returning fresh field values, in order
VALUES = {
    RationalField: lambda: (),
    PrimeField: lambda: (7,),
    Matrix: lambda: (2, QQ, ({0: 1}, {1: 1})),
    Subspace: _subspace,
    ConstructionParams: lambda: (8, 1, 5, 2),
    BkmParams: lambda: (8, 2, 2),
    IndexSets: lambda: ((1, 5), (4, 8)),
    GeneratingSystem: lambda: ((("I", Matrix.identity(2)),), False),
    LengthReport: lambda: ((1, 3, 4), 2, 2, 4),
    RadicalReport: lambda: (3, 3, (3, 1, 0), True, 2),
    MaximalityVerdict: lambda: (4, 4, True, False, Matrix.zero(2)),
    VerificationReport: _verification,
}
RECORDS = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


def test_the_twelve_records_share_the_base():
    assert len(VALUES) == 12
    assert all(issubclass(cls, Record) for cls in VALUES)


@RECORDS
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    a, b = cls(*VALUES[cls]()), cls(*VALUES[cls]())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.astuple() == VALUES[cls]()
    assert a.asdict() == dict(zip(cls._fields, VALUES[cls]()))
    assert cls(**a.asdict()) == a


@RECORDS
def test_a_record_of_another_class_is_unequal(cls):
    values = VALUES[cls]()
    other = type("Other", (cls,), {})
    assert other._fields == cls._fields
    assert cls(*values) != other(*values)
    assert other(*values) != cls(*values)
    assert cls(*values) != values


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*VALUES[cls]())
    for name in cls._fields + ("new_attribute",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*VALUES[cls]())


@RECORDS
def test_missing_unknown_or_repeated_field_arguments_are_refused(cls):
    values = VALUES[cls]()
    kwargs = dict(zip(cls._fields, values))
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, unknown=0)
    if cls._fields:
        first = cls._fields[0]
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != first})
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})


def test_fields_with_a_default_may_be_left_out():
    members = (("I", Matrix.identity(2)),)
    assert GeneratingSystem(members).admit_empty_word is True
    assert GeneratingSystem(members) == GeneratingSystem(members, admit_empty_word=True)
    assert MaximalityVerdict(4, 4, True, True).counterexample is None


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PrimeField(8), InvalidParams),
        (lambda: PrimeField(True), InvalidParams),
        (lambda: PrimeField(2**31 + 11), InvalidParams),
        (lambda: ConstructionParams(8, 1, 4, 2), InvalidParams),
        (lambda: ConstructionParams(8, 0, 5, 2), InvalidParams),
        (lambda: ConstructionParams(n=8, m=1, l=6, k=2), InvalidParams),
        (lambda: BkmParams(4, 2, 2), InvalidParams),
        (lambda: BkmParams(8, 2, "2"), InvalidParams),
        (lambda: GeneratingSystem(()), EmptySystem),
        (lambda: GeneratingSystem((("g", Matrix.identity(2)),) * 2), InvalidParams),
    ],
)
def test_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


@RECORDS
def test_pickle_round_trips_each_record(cls):
    record = cls(*VALUES[cls]())
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record
    assert hash(copy) == hash(record)
    with pytest.raises(AttributeError):
        setattr(copy, cls._fields[0] if cls._fields else "x", None)


def test_repr_names_the_class_and_its_fields():
    assert repr(BkmParams(8, 2, 2)) == "BkmParams(n=8, m=2, k=2)"
    assert repr(PrimeField(7)) == "PrimeField(p=7)"
    assert repr(QQ) == "RationalField()"
    assert repr(Matrix.identity(2)) == "Matrix(2, rational, [1 0; 0 1])"
