import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccs import field as field_mod
from eccs.codec import (
    chunk_capacity,
    decode_chunk,
    encode_chunk,
    join_message,
    split_message,
)
from eccs.curve import CurvePoint, IDENTITY, compress, decompress, is_on_curve
from eccs.field import FieldElement

from helpers import as_tuple, byte_mutation, reference_encode

# secp256k1's chunk capacity, for strategies drawn before any fixture
SECP_CAPACITY = 30


def test_capacity_secp(secp):
    assert chunk_capacity(secp) == 30


def test_capacity_toy_curve_unsupported(toy):
    # 11-bit prime leaves no room beyond the two header bytes
    with pytest.raises(ValueError):
        chunk_capacity(toy)
    with pytest.raises(ValueError):
        encode_chunk(toy, b"")


def test_encode_produces_on_curve_point(secp):
    point = encode_chunk(secp, b"hello")
    assert is_on_curve(secp, point)
    assert not point.is_identity


def test_roundtrip_various_lengths(secp):
    rng = random.Random(0xDEC0DE)
    for length in list(range(31)) + [30]:
        if length > 30:
            continue
        data = bytes(rng.randrange(256) for _ in range(length))
        assert decode_chunk(secp, encode_chunk(secp, data)) == data


def test_roundtrip_edge_payloads(secp):
    for data in (b"", b"\x00", b"\x00" * 30, b"\xff" * 30, bytes(range(30))):
        assert decode_chunk(secp, encode_chunk(secp, data)) == data


def test_encode_matches_a_reference_encoder(secp):
    rng = random.Random(0xC0DE)
    for length in range(SECP_CAPACITY + 1):
        for data in (bytes(length), b"\xff" * length, rng.randbytes(length), rng.randbytes(length)):
            want = reference_encode(secp.p, secp.b, SECP_CAPACITY, data)
            assert as_tuple(encode_chunk(secp, data)) == want, data.hex()


def test_encode_takes_one_square_root_per_candidate(secp, monkeypatch):
    calls = []
    original = field_mod.FieldElement.sqrt

    def counted(self):
        calls.append(self.value)
        return original(self)

    monkeypatch.setattr(field_mod.FieldElement, "sqrt", counted)
    monkeypatch.setattr(field_mod.FieldElement, "is_square", None)  # never asked
    rng = random.Random(0x5A17)
    for _ in range(40):
        data = rng.randbytes(rng.randrange(SECP_CAPACITY + 1))
        calls.clear()
        x, _ = as_tuple(encode_chunk(secp, data))
        assert calls[-1] == (x**3 + secp.b) % secp.p and len(calls) == (x >> 8 * SECP_CAPACITY + 8) + 1


def test_encode_raises_when_every_pad_fails(secp, monkeypatch):
    calls = []

    def no_root(self):
        calls.append(self.value)
        raise ValueError("element is not a quadratic residue")

    monkeypatch.setattr(field_mod.FieldElement, "sqrt", no_root)
    with pytest.raises(ValueError, match="pad counter exhausted"):
        encode_chunk(secp, b"no pad works")
    assert len(calls) == 256


def test_encode_rejects_oversized(secp):
    with pytest.raises(ValueError):
        encode_chunk(secp, bytes(31))


def test_encode_is_deterministic(secp):
    assert encode_chunk(secp, b"abc") == encode_chunk(secp, b"abc")


def test_layout_inside_x(secp):
    point = encode_chunk(secp, b"ab")
    raw = point.x.to_bytes(secp.coord_bytes, "big")
    assert len(raw) == 32
    # raw[0] is the pad counter; then length, data, zero fill
    assert raw[1] == 2
    assert raw[2:4] == b"ab"
    assert raw[4:] == bytes(28)


def test_injectivity_exhaustive_short_strings(secp):
    seen = {}
    for length in range(3):
        for value in range(256**length):
            data = value.to_bytes(length, "big") if length else b""
            x = encode_chunk(secp, data).x
            assert x not in seen, f"collision {data!r} vs {seen[x]!r}"
            seen[x] = data


def test_injectivity_sampled_longer_strings(secp):
    rng = random.Random(31337)
    seen = {}
    for _ in range(3000):
        length = rng.randrange(3, 31)
        data = bytes(rng.randrange(256) for _ in range(length))
        x = encode_chunk(secp, data).x
        assert seen.setdefault(x, data) == data
    assert len(seen) > 2900  # essentially no repeats in the sample


def test_decode_rejects_identity(secp):
    with pytest.raises(ValueError):
        decode_chunk(secp, IDENTITY)


def test_decode_rejects_bad_length_byte(secp):
    # craft an on-curve point whose embedded length exceeds capacity
    for candidate in range(secp.p):
        x = (31 << 8 * 30) + candidate  # length byte 31 > capacity 30
        rhs = FieldElement((x**3 + secp.b) % secp.p, secp.p)
        if rhs.is_square():
            point = CurvePoint(x, rhs.sqrt())
            with pytest.raises(ValueError):
                decode_chunk(secp, point)
            break


def test_decode_rejects_nonzero_fill(secp):
    for trailer in range(1, secp.p):
        # length byte 0 but nonzero fill afterwards
        x = trailer
        rhs = FieldElement((x**3 + secp.b) % secp.p, secp.p)
        if rhs.is_square():
            point = CurvePoint(x, rhs.sqrt())
            with pytest.raises(ValueError):
                decode_chunk(secp, point)
            break


def test_split_and_join_roundtrip(secp):
    rng = random.Random(5)
    for length in (0, 1, 29, 30, 31, 60, 61, 333, 4096):
        message = bytes(rng.randrange(256) for _ in range(length))
        pieces = split_message(secp, message)
        assert join_message(pieces) == message
        assert all(len(piece) <= 30 for piece in pieces)
        if message:
            assert len(pieces) == (length + 29) // 30
            assert all(pieces[:-1])  # only the last may be short, never empty
        else:
            assert pieces == [b""]


def test_split_sizes_exact_multiple(secp):
    message = bytes(60)
    pieces = split_message(secp, message)
    assert [len(piece) for piece in pieces] == [30, 30]


def test_roundtrip_ten_thousand_random_chunks(secp):
    rng = random.Random(0xA5A5)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(31))
        assert decode_chunk(secp, encode_chunk(secp, data)) == data


def test_split_join_identity_up_to_one_mebibyte(secp):
    rng = random.Random(0x313)
    for size in (1 << 10, 1 << 16, 1 << 20):
        blob = rng.randbytes(size)
        assert join_message(split_message(secp, blob)) == blob


# --- property tests -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=SECP_CAPACITY))
def test_decode_inverts_encode(secp, data):
    assert chunk_capacity(secp) == SECP_CAPACITY
    assert decode_chunk(secp, encode_chunk(secp, data)) == data


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=SECP_CAPACITY), change=st.data())
def test_decode_of_a_mutated_point_raises_only_value_error(secp, data, change):
    # mutate the point's compressed encoding; decompress raises ParseError,
    # a ValueError, for what is no point at all
    _, blob = change.draw(byte_mutation(compress(secp, encode_chunk(secp, data))))
    try:
        got = decode_chunk(secp, decompress(secp, blob))
    except ValueError:
        return
    assert len(got) <= SECP_CAPACITY
