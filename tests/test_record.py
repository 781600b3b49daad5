"""Value semantics of the package's immutable records."""

import copy

import pytest

from eccs.curve import IDENTITY, CurvePoint
from eccs.ecs import Ciphertext, CiphertextChunk, PrivateKey, PublicKey
from eccs.record import Record
from eccs.wire import Envelope

G1, G2 = CurvePoint(3, 666), CurvePoint(1033, 592)  # toy curve generators
CHUNK = (G1, G2, G1, IDENTITY)

SAMPLES = [
    (CurvePoint, (3, 666)),
    (PrivateKey, (0x7F, 1, 2, 3, 4, 5)),
    (PublicKey, (0x7F, G1, G2, G1)),
    (CiphertextChunk, CHUNK),
    (Ciphertext, (0x7F, (CiphertextChunk(*CHUNK),))),
    (Envelope, (0x03, 0x7F, b"body")),
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


def test_an_underscore_slot_is_not_a_field():
    # a point's use count and fixed-base table live in such a slot;
    # test_fixed_tables_wait_for_the_break_even_use runs it to the table
    assert CurvePoint._fields == ("x", "y")
    for slot in ("_note", "__weakref__"):
        marked = type("Marked", (Record,), {"__slots__": ("a", slot, "b")})
        assert marked._fields == ("a", "b")
        record, plain = marked(1, 2), marked(1, 2)
        if slot == "_note":
            assert not hasattr(record, "_note")  # the constructor leaves it unset
            object.__setattr__(record, "_note", "held")
        assert record == plain and hash(record) == hash(plain)
        assert repr(record) == repr(plain) == "Marked(a=1, b=2)"
        for twin in (copy.copy(record), copy.deepcopy(record)):
            assert twin == record and not hasattr(twin, "_note")
