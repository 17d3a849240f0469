"""The package's frozen records: constructor, equality, hash, immutability, repr and copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from snchar.bounds import BoundClause, BoundReport, robbins_check
from snchar.characters_an import AlgebraicValue, AnCharacterLabel
from snchar.characters_sn import CharacterTable, full_table
from snchar.classify import Prediction, VerificationReport, predict_sn, verify_minpoly_sn
from snchar.partitions import CycleType, Partition, parse_partition

# each record class with a builder of its fields, in declaration order
RECORDS = {
    Partition: lambda: {"parts": (3, 2, 2)},
    CycleType: lambda: {"cycles": ((3, 1), (1, 2))},
    CharacterTable: lambda: dict(vars(full_table(4))),
    AlgebraicValue: lambda: {"a": Fraction(1, 2), "b": Fraction(3, 2), "d": 5},
    AnCharacterLabel: lambda: {"partition": Partition((2, 2)), "variant": "plus"},
    Prediction: lambda: dict(vars(predict_sn(parse_partition("5,1"), 6, 1))),
    VerificationReport: lambda: dict(vars(verify_minpoly_sn(6))),
    BoundClause: lambda: dict(vars(robbins_check(7).clauses[0])),
    BoundReport: lambda: dict(vars(robbins_check(7))),
}
FIELD_NAMES = {
    Partition: ["parts"],
    CycleType: ["cycles"],
    CharacterTable: ["n", "partitions", "classes", "values"],
    AlgebraicValue: ["a", "b", "d"],
    AnCharacterLabel: ["partition", "variant"],
    Prediction: ["group", "n", "label", "r", "m", "polys", "clause"],
    VerificationReport: ["kind", "n_min", "n_max", "cases", "mismatches", "exceptional"],
    BoundClause: ["name", "lhs", "rhs", "margin", "holds"],
    BoundReport: ["check", "context", "clauses", "precision_bits"],
}
CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@CASES
def test_fields_are_the_instance_dict_in_declaration_order(cls):
    fields = RECORDS[cls]()
    assert list(fields) == FIELD_NAMES[cls]
    rec = cls(**fields)
    assert list(vars(rec)) == FIELD_NAMES[cls]
    assert vars(rec) == fields


@CASES
def test_positional_and_keyword_construction_agree(cls):
    fields = RECORDS[cls]()
    assert cls(*fields.values()) == cls(**fields)


@CASES
def test_equal_records_hash_as_the_tuple_of_their_fields(cls):
    fields = RECORDS[cls]()
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@CASES
def test_a_record_differs_from_another_class_with_the_same_fields(cls):
    rec = cls(**RECORDS[cls]())
    other = object.__new__(type("Other", (cls,), {}))
    vars(other).update(vars(rec))
    assert rec != other and other != rec
    assert rec != tuple(vars(rec).values())


@CASES
def test_assignment_and_deletion_raise_attribute_error(cls):
    rec = cls(**RECORDS[cls]())
    name = FIELD_NAMES[cls][0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError, match="cannot assign"):
        rec.extra = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, name)
    assert list(vars(rec)) == FIELD_NAMES[cls]


@CASES
@pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy, lambda rec: pickle.loads(pickle.dumps(rec))],
                         ids=["deepcopy", "copy", "pickle"])
def test_copies_and_pickles_round_trip(cls, clone):
    rec = cls(**RECORDS[cls]())
    twin = clone(rec)
    assert type(twin) is cls and twin == rec and hash(twin) == hash(rec)
    assert list(vars(twin)) == FIELD_NAMES[cls]
    with pytest.raises(AttributeError):
        setattr(twin, FIELD_NAMES[cls][0], None)


@CASES
def test_repr_lists_the_fields(cls):
    rec = cls(**RECORDS[cls]())
    fields = ", ".join(f"{name}={value!r}" for name, value in vars(rec).items())
    assert repr(rec) == f"{cls.__qualname__}({fields})"


def test_repr_of_the_small_records():
    assert repr(parse_partition("3,1")) == "Partition(parts=(3, 1))"
    assert repr(CycleType.from_lengths([2, 1])) == "CycleType(cycles=((2, 1), (1, 1)))"
    assert repr(AlgebraicValue(1)) == "AlgebraicValue(a=Fraction(1, 1), b=Fraction(0, 1), d=1)"


def test_algebraic_value_defaults():
    v = AlgebraicValue(Fraction(3, 4))
    assert list(vars(v).items()) == [("a", Fraction(3, 4)), ("b", 0), ("d", 1)]
    assert AlgebraicValue(2) == AlgebraicValue(a=2) == AlgebraicValue(2, d=1) == AlgebraicValue(1, 1, 1)
