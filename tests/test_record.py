"""Value semantics of the package's immutable records."""

import copy
import weakref

import pytest

from eccs.bench import AlgorithmReport, BenchReport, OpStats
from eccs.curve import IDENTITY, CurvePoint
from eccs.ecs import Ciphertext, CiphertextChunk, PrivateKey, PublicKey
from eccs.record import Record
from eccs.wire import Envelope

G1, G2 = CurvePoint(3, 666), CurvePoint(1033, 592)  # toy curve generators
CHUNK = (G1, G2, G1, IDENTITY)
OP = ("encrypt", 1.5, 2.5, 5, 2, 0, 1)
ALGORITHM = ("eccs", 167, 143, (OpStats(*OP),), "")

SAMPLES = [
    (CurvePoint, (3, 666)),
    (PrivateKey, (0x7F, 1, 2, 3, 4, 5)),
    (PublicKey, (0x7F, G1, G2, G1)),
    (CiphertextChunk, CHUNK),
    (Ciphertext, (0x7F, (CiphertextChunk(*CHUNK),))),
    (Envelope, (0x03, 0x7F, b"body")),
    (OpStats, OP),
    (AlgorithmReport, ALGORITHM),
    (BenchReport, ("toy", 28, 10, "host", (AlgorithmReport(*ALGORITHM),), ("note",))),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_equal_values_are_equal_with_equal_hashes(cls, values):
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*values[:-1], "other") != a


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_other_class_and_plain_tuple_are_unequal(cls, values):
    twin = type("Twin", (Record,), {"__slots__": cls._fields})
    record = cls(*values)
    assert twin(*values) != record and record != twin(*values)
    assert record != tuple(values) and tuple(values) != record


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_assignment_raises(cls, values):
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(*values) == record


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_copies_are_equal_and_arity_is_checked(cls, values):
    record = cls(*values)
    assert copy.copy(record) == record == copy.deepcopy(record)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)


def test_points_are_weak_mapping_keys():
    # a base's use count and fixed-base table live in such a mapping;
    # test_fixed_tables_wait_for_the_break_even_use runs it to the table
    uses = weakref.WeakKeyDictionary()
    point = CurvePoint(3, 666)
    uses[point] = 1
    assert uses[CurvePoint(3, 666)] == 1
    del point
    assert len(uses) == 0
