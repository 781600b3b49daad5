import hashlib
import marshal
import os
import random
import signal
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eccs import codec
from eccs import curve as curve_mod
from eccs import ecs as ecs_mod
from eccs import wire as wire_mod
from eccs.codec import chunk_capacity, encode_chunk
from eccs.curve import (
    _REGISTRY_SPECS,
    _TABLE_AT_USE,
    IDENTITY,
    SECP256K1_ID,
    CurvePoint,
    count_ops,
    point_add,
    point_negate,
    scalar_mult,
)
from eccs.ecs import (
    Ciphertext,
    CiphertextChunk,
    PrivateKey,
    PublicKey,
    chunk_header,
    decrypt,
    decrypt_chunk,
    encrypt,
    encrypt_chunk,
    hash_to_scalar,
    keygen,
    sample_scalar,
)
from eccs.errors import InvalidCiphertext, ParseError
from eccs.field import FieldElement
from eccs.oracle import brute_dlog, enumerate_points
from eccs.wire import parse_ciphertext, serialize_ciphertext, serialize_public_key

from helpers import SeqRng, held_by, reference_encrypt, reference_keygen


def msg_point(params, k):
    """Arbitrary non-identity group element usable as a message point."""
    return scalar_mult(params, params.g1, k)


# --- key generation -------------------------------------------------------


def test_keygen_structure(toy):
    rng = random.Random(1)
    priv, pub = keygen(toy, rng)
    for scalar in (priv.x1, priv.x2, priv.y1, priv.y2, priv.z):
        assert 1 <= scalar < toy.n
    assert priv.curve_id == pub.curve_id == toy.curve_id
    assert pub.c == point_add(
        toy,
        scalar_mult(toy, toy.g1, priv.x1),
        scalar_mult(toy, toy.g2, priv.x2),
    )
    assert pub.d == point_add(
        toy,
        scalar_mult(toy, toy.g1, priv.y1),
        scalar_mult(toy, toy.g2, priv.y2),
    )
    assert pub.h == scalar_mult(toy, toy.g1, priv.z)


def test_keygen_default_rng(toy):
    priv1, _ = keygen(toy)
    priv2, _ = keygen(toy)
    # system entropy: two draws of five scalars colliding is (1/1092)^5
    assert priv1 != priv2


def test_keygen_with_pinned_scalars(toy):
    priv, _ = keygen(toy, SeqRng([11, 22, 33, 44, 55]))
    assert (priv.x1, priv.x2, priv.y1, priv.y2, priv.z) == (11, 22, 33, 44, 55)


@pytest.mark.parametrize("identity", ["c", "d"])
def test_keygen_draws_again_for_an_identity_commitment(toy, identity):
    # w = log_g1 g2 = 195 on toy (oracle.brute_dlog): x1 = -w*x2 makes c
    # the identity, y1 = -w*y2 makes d the identity
    first = [(-195 * 5) % toy.n, 5, 7, 9, 11]
    if identity == "d":
        first = [5, 7, (-195 * 9) % toy.n, 9, 11]
    with count_ops() as ops:
        priv, pub = keygen(toy, SeqRng(first + [12, 13, 14, 15, 16]))
    assert (priv.x1, priv.x2, priv.y1, priv.y2, priv.z) == (12, 13, 14, 15, 16)
    assert not (pub.c.is_identity or pub.d.is_identity or pub.h.is_identity)
    assert wire_mod.parse_public_key(serialize_public_key(pub)) == pub
    # the refused draw is counted too: twice keygen's 5 and 2
    assert (ops.scalar_mults, ops.point_adds) == (10, 4)


def test_sample_scalar_rejection(toy):
    # zero and out-of-range draws are rejected, first in-range value wins
    rng = SeqRng([0, toy.n, toy.n + 40, 2047, 5])
    assert sample_scalar(toy.n, rng) == 5
    assert sample_scalar(toy.n, SeqRng([toy.n - 1])) == toy.n - 1


# --- hash binding ---------------------------------------------------------


def test_hash_to_scalar_range_and_determinism(toy):
    header = chunk_header(0, 1)
    points = [msg_point(toy, k) for k in (1, 2, 3)]
    alpha = hash_to_scalar(toy, header, *points)
    assert 0 <= alpha < toy.n
    assert alpha == hash_to_scalar(toy, header, *points)


def test_hash_to_scalar_sensitivity(toy, secp):
    header = chunk_header(0, 1)
    pts = [msg_point(toy, k) for k in (1, 2, 3)]
    base = hash_to_scalar(toy, header, *pts)
    assert hash_to_scalar(toy, chunk_header(1, 2), *pts) != base
    assert hash_to_scalar(toy, header, pts[1], pts[0], pts[2]) != base
    assert hash_to_scalar(toy, header, pts[0], pts[2], pts[1]) != base


def test_chunk_header_layout():
    assert chunk_header(0, 1) == b"\x00\x00\x00\x00\x00\x00\x00\x01"
    assert chunk_header(258, 65536) == b"\x00\x00\x01\x02\x00\x01\x00\x00"
    with pytest.raises(ValueError):
        chunk_header(1, 1)  # index must stay below total
    with pytest.raises(ValueError):
        chunk_header(-1, 1)
    with pytest.raises(ValueError):
        chunk_header(0, 0)


# --- chunk encryption -----------------------------------------------------


def test_chunk_roundtrip_toy(toy):
    rng = random.Random(42)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    for k in range(1, 50):
        m = msg_point(toy, k)
        chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
        assert decrypt_chunk(priv, chunk, header) == m


def test_chunk_equations_with_pinned_randomness(toy):
    priv, pub = keygen(toy, SeqRng([11, 22, 33, 44, 55]))
    header = chunk_header(0, 1)
    m = msg_point(toy, 123)
    r = 77
    chunk = encrypt_chunk(pub, m, header, r)
    assert chunk.u1 == scalar_mult(toy, toy.g1, r)
    assert chunk.u2 == scalar_mult(toy, toy.g2, r)
    assert chunk.e == point_add(toy, scalar_mult(toy, pub.h, r), m)
    alpha = hash_to_scalar(toy, header, chunk.u1, chunk.u2, chunk.e)
    assert chunk.v == point_add(
        toy,
        scalar_mult(toy, pub.c, r),
        scalar_mult(toy, pub.d, r * alpha % toy.n),
    )
    assert decrypt_chunk(priv, chunk, header) == m


def test_r_equal_one_degenerates_to_generators(toy):
    # with r pinned to 1 the mask pair is just the generator pair
    _, pub = keygen(toy, random.Random(8))
    chunk = encrypt_chunk(pub, msg_point(toy, 7), chunk_header(0, 1), 1)
    assert chunk.u1 == toy.g1
    assert chunk.u2 == toy.g2


def test_encrypt_chunk_refuses_r_outside_its_range(toy):
    _, pub = keygen(toy, random.Random(8))
    m, header = msg_point(toy, 7), chunk_header(0, 1)
    for r in (0, toy.n):
        with pytest.raises(ValueError, match="outside"):
            encrypt_chunk(pub, m, header, r)
    for r in ("5", 5.0, None):
        with pytest.raises(TypeError):
            encrypt_chunk(pub, m, header, r)


@pytest.mark.parametrize("field", ["c", "d", "h"])
def test_a_key_with_an_identity_point_encrypts_nothing(secp, field):
    # with h the identity, e would be the message point itself
    _, pub = keygen(secp, random.Random(0x1D))
    bad = PublicKey(
        pub.curve_id, *(IDENTITY if name == field else getattr(pub, name) for name in "cdh")
    )
    m = msg_point(secp, 7)
    with count_ops() as ops:
        with pytest.raises(ValueError, match="identity"):
            encrypt(bad, b"attack at dawn", random.Random(1))
        with pytest.raises(ValueError, match="identity"):
            encrypt_chunk(bad, m, chunk_header(0, 1), 5)
    assert ops.scalar_mults == 0


def test_folded_validity_scalars_match_four_term_form(toy):
    # the decryption check uses (x1 + a*y1)*u1 + (x2 + a*y2)*u2; the
    # expanded four-term sum must give the same point
    rng = random.Random(12)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(toy, 44), header, sample_scalar(toy.n, rng))
    alpha = hash_to_scalar(toy, header, chunk.u1, chunk.u2, chunk.e)
    n = toy.n
    folded = point_add(
        toy,
        scalar_mult(toy, chunk.u1, (priv.x1 + alpha * priv.y1) % n),
        scalar_mult(toy, chunk.u2, (priv.x2 + alpha * priv.y2) % n),
    )
    four_term = point_add(
        toy,
        point_add(
            toy,
            scalar_mult(toy, chunk.u1, priv.x1),
            scalar_mult(toy, chunk.u1, alpha * priv.y1 % n),
        ),
        point_add(
            toy,
            scalar_mult(toy, chunk.u2, priv.x2),
            scalar_mult(toy, chunk.u2, alpha * priv.y2 % n),
        ),
    )
    assert folded == four_term == chunk.v


def test_ephemeral_scalars_never_repeat(secp):
    # freshness on the real curve: 10^3 draws from [1, n-1] must be
    # distinct (u1 = r*g1 is injective in r, so distinct r means
    # distinct masks)
    from eccs.ecs import _SYSTEM_RNG

    draws = {sample_scalar(secp.n, _SYSTEM_RNG) for _ in range(1000)}
    assert len(draws) == 1000


def test_repeat_encryptions_differ_in_every_chunk(secp):
    rng = random.Random(0xFE)
    _, pub = keygen(secp, rng)
    message = bytes(range(90))  # three chunks
    for _ in range(50):
        ct1 = encrypt(pub, message, rng)
        ct2 = encrypt(pub, message, rng)
        for a, b in zip(ct1.chunks, ct2.chunks):
            assert a != b


def test_fresh_randomness_per_chunk(toy):
    rng = random.Random(9)
    _, pub = keygen(toy, rng)
    m = msg_point(toy, 5)
    header = chunk_header(0, 1)
    c1 = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    c2 = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    assert c1 != c2  # same plaintext, different ephemeral r


def test_tampered_chunk_rejected(toy):
    rng = random.Random(77)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    m = msg_point(toy, 9)
    chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    other = msg_point(toy, 10)
    names = ("u1", "u2", "e", "v")
    for field in names:
        if getattr(chunk, field) == other:
            continue
        broken = CiphertextChunk(
            *(other if name == field else getattr(chunk, name) for name in names)
        )
        with pytest.raises(InvalidCiphertext):
            decrypt_chunk(priv, broken, header)


def test_the_tag_comparison_decides_equality_of_encodings(secp):
    """``_equal_bytes`` folds every byte pair and the lengths; decryption
    refuses a v whose encoding differs from the expected one in its last
    byte alone."""
    rng = random.Random(0xC0A1)
    priv, pub = keygen(secp, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(secp, 9), header, sample_scalar(secp.n, rng))
    good = curve_mod.compress(secp, chunk.v)
    equal = ecs_mod._equal_bytes
    assert len(good) == 33
    assert equal(good, good) and equal(b"\x00", b"\x00")
    assert not equal(good, bytes([good[0] ^ 1]) + good[1:])
    assert not equal(good, good[:-1] + bytes([good[-1] ^ 1]))
    # the identity's one byte matches the first byte of this 33-byte string
    padded = b"\x00" + good[1:]
    assert not equal(b"\x00", padded) and not equal(padded, b"\x00")
    for delta in range(1, 256):
        try:
            near = curve_mod.decompress(secp, good[:-1] + bytes([good[-1] ^ delta]))
        except ParseError:  # x^3 + 7 is not a square
            continue
        break
    assert curve_mod.compress(secp, near)[:-1] == good[:-1] and near != chunk.v
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, CiphertextChunk(chunk.u1, chunk.u2, chunk.e, near), header)
    assert decrypt_chunk(priv, chunk, header) == msg_point(secp, 9)


def test_non_canonical_point_rejected(toy):
    # the same group element with x + p, or with field elements, is no member
    rng = random.Random(79)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(toy, 9), header, sample_scalar(toy.n, rng))
    names = ("u1", "u2", "e", "v")
    for field in names:
        point = getattr(chunk, field)
        for twin in (
            CurvePoint(point.x + toy.p, point.y),
            CurvePoint(FieldElement(point.x, toy.p), FieldElement(point.y, toy.p)),
        ):
            broken = CiphertextChunk(
                *(twin if name == field else getattr(chunk, name) for name in names)
            )
            with pytest.raises(InvalidCiphertext):
                decrypt_chunk(priv, broken, header)
    assert decrypt_chunk(priv, chunk, header) == msg_point(toy, 9)


def test_wrong_header_rejected(toy):
    rng = random.Random(78)
    priv, pub = keygen(toy, rng)
    chunk = encrypt_chunk(pub, msg_point(toy, 3), chunk_header(0, 2), sample_scalar(toy.n, rng))
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, chunk, chunk_header(1, 2))
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, chunk, chunk_header(0, 3))


def test_wrong_key_rejected(toy):
    rng = random.Random(79)
    priv_a, pub_a = keygen(toy, rng)
    priv_b, _ = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub_a, msg_point(toy, 4), header, sample_scalar(toy.n, rng))
    assert decrypt_chunk(priv_a, chunk, header) == msg_point(toy, 4)
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv_b, chunk, header)


def test_mask_reuse_across_keys_fails(toy):
    # even with the same r, a different key's validity point must not verify
    rng = random.Random(80)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(toy, 6), header, 99)
    forged = CiphertextChunk(chunk.u1, chunk.u2, chunk.e, msg_point(toy, 1))
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, forged, header)


def test_additive_mauling_rejected(toy):
    # ElGamal-style malleability (add g1 to the payload) must not survive
    rng = random.Random(81)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(toy, 8), header, sample_scalar(toy.n, rng))
    mauled = CiphertextChunk(
        chunk.u1, chunk.u2, point_add(toy, chunk.e, toy.g1), chunk.v
    )
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, mauled, header)


def test_invalid_ciphertext_message_is_opaque(toy):
    rng = random.Random(82)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, msg_point(toy, 2), header, sample_scalar(toy.n, rng))
    mauled = CiphertextChunk(chunk.u1, chunk.u2, chunk.e, toy.g1)
    with pytest.raises(InvalidCiphertext) as excinfo:
        decrypt_chunk(priv, mauled, header)
    assert str(excinfo.value) == "invalid ciphertext"


# --- full-message encryption ----------------------------------------------


@pytest.mark.parametrize("length", [0, 1, 29, 30, 31, 60, 100, 1000])
def test_message_roundtrip_secp(secp, length):
    rng = random.Random(length)
    priv, pub = keygen(secp, rng)
    message = bytes(rng.randrange(256) for _ in range(length))
    ct = encrypt(pub, message, rng)
    capacity = chunk_capacity(secp)
    expected_chunks = max(1, -(-length // capacity))
    assert len(ct.chunks) == expected_chunks
    assert decrypt(priv, ct) == message


def test_seeded_encryption_bytes_are_pinned(secp):
    # Digests recorded before the scalar path moved from a Montgomery ladder
    # to GLV and fixed-base tables: the bytes must not change.  Nine chunks
    # take the key's h, c and d past the fixed-base table threshold.
    rng = random.Random(0x5EED)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, bytes(range(250)), rng)
    assert len(ct.chunks) == 9
    assert hashlib.sha3_256(serialize_public_key(pub)).hexdigest() == (
        "4b86a6af14a68d06b24803c2f5da2fae4c73d8e2ff68db716bca52d16b1c11c4"
    )
    assert hashlib.sha3_256(serialize_ciphertext(ct)).hexdigest() == (
        "32b06ab1d705453f3f289064ca5e43e640906846c4662973bdd3445807893b4d"
    )
    assert decrypt(priv, ct) == bytes(range(250))


def test_reference_reproduces_the_pinned_bytes():
    # the digests of test_seeded_encryption_bytes_are_pinned, from code
    # that shares nothing with the package but the registry constants
    rng = random.Random(0x5EED)
    spec = _REGISTRY_SPECS[SECP256K1_ID]
    public, public_bytes = reference_keygen(spec, rng)
    blob = reference_encrypt(spec, public, bytes(range(250)), rng)
    assert hashlib.sha3_256(public_bytes).hexdigest() == (
        "4b86a6af14a68d06b24803c2f5da2fae4c73d8e2ff68db716bca52d16b1c11c4"
    )
    assert hashlib.sha3_256(blob).hexdigest() == (
        "32b06ab1d705453f3f289064ca5e43e640906846c4662973bdd3445807893b4d"
    )


@pytest.mark.parametrize("length", [0, 1, 30, 31, 250])
def test_encryption_matches_the_reference_bytes(secp, length):
    seed = 0x5EED + length
    message = random.Random(0xD47A + length).randbytes(length)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    spec = _REGISTRY_SPECS[SECP256K1_ID]
    priv, pub = keygen(secp, rng)
    public, public_bytes = reference_keygen(spec, reference_rng)
    assert serialize_public_key(pub) == public_bytes
    ct = encrypt(pub, message, rng)
    assert serialize_ciphertext(ct) == reference_encrypt(spec, public, message, reference_rng)
    assert decrypt(priv, ct) == message


def test_decrypt_rejects_swapped_chunks(secp):
    rng = random.Random(1001)
    priv, pub = keygen(secp, rng)
    message = bytes(range(60))  # exactly two chunks
    ct = encrypt(pub, message, rng)
    assert len(ct.chunks) == 2
    swapped = Ciphertext(ct.curve_id, (ct.chunks[1], ct.chunks[0]))
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, swapped)


def test_chunks_splice_between_ciphertexts_at_the_same_index(secp):
    # the known gap README states: only (index, total) binds a chunk
    rng = random.Random(1003)
    priv, pub = keygen(secp, rng)
    a, b = bytes(range(60)), bytes(range(100, 160))
    ca, cb = encrypt(pub, a, rng), encrypt(pub, b, rng)
    spliced = Ciphertext(ca.curve_id, (ca.chunks[0], cb.chunks[1]))
    assert decrypt(priv, spliced) == a[:30] + b[30:]


def test_decrypt_rejects_truncation_and_extension(secp):
    rng = random.Random(1002)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, bytes(range(90)), rng)
    assert len(ct.chunks) == 3
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, Ciphertext(ct.curve_id, ct.chunks[:2]))
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, Ciphertext(ct.curve_id, ct.chunks + (ct.chunks[0],)))
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, Ciphertext(ct.curve_id, ()))


def test_decrypt_rejects_a_message_only_after_every_chunk(secp, monkeypatch):
    """A forged first or last chunk costs the same core calls and decodes."""
    rng = random.Random(1003)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, bytes(range(90)), rng)
    assert len(ct.chunks) == 3
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ecs_mod, "linear_combinations", counted("core", ecs_mod.linear_combinations))
    monkeypatch.setattr(codec, "decode_chunk", counted("decode", codec.decode_chunk))
    seen = []
    for index in (0, 2):
        chunks = list(ct.chunks)
        u1, u2, e, v = chunks[index].u1, chunks[index].u2, chunks[index].e, chunks[index].v
        chunks[index] = CiphertextChunk(u1, u2, e, point_negate(secp, v))
        calls.clear()
        with pytest.raises(InvalidCiphertext):
            decrypt(priv, Ciphertext(ct.curve_id, tuple(chunks)))
        seen.append(dict(calls))
    assert seen == [{"core": 3, "decode": 3}] * 2


@pytest.mark.parametrize("fields", [("u1",), ("u2",), ("u1", "u2")])
def test_decrypt_rejects_identity_mask_points(secp, fields):
    rng = random.Random(1006)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, b"identity", rng)
    old = ct.chunks[0]
    chunk = CiphertextChunk(
        *(IDENTITY if name in fields else getattr(old, name) for name in ("u1", "u2", "e", "v"))
    )
    blob = serialize_ciphertext(Ciphertext(ct.curve_id, (chunk,)))
    assert len(blob) == len(serialize_ciphertext(ct)) - 32 * len(fields)  # 0x00 per point
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, parse_ciphertext(blob))


def test_decrypt_refuses_the_keyless_identity_forgery(secp):
    # u1 = u2 = v = identity (0x00 each) around e = encode_chunk(m): made
    # without any key, it passed the validity check under every key
    m = b"forged without any key"
    chunk = CiphertextChunk(IDENTITY, IDENTITY, encode_chunk(secp, m), IDENTITY)
    blob = serialize_ciphertext(Ciphertext(secp.curve_id, (chunk,)))
    assert len(blob) == 47 and len(m) == 22
    priv, _ = keygen(secp, random.Random(1007))
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, parse_ciphertext(blob))
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, chunk, chunk_header(0, 1))


def test_an_invalid_chunk_is_accepted_by_one_key_in_n(toy):
    """Cramer-Shoup's rejection lemma, counted over every key the public key allows.

    With w = log_g1 g2, the private keys that share (c, d, h) and y2 are
    (x1 + w*(x2 - x2'), x2', y1, y2, z) for the n values of x2'.
    A chunk with log_g1 u1 != log_g2 u2 passes the validity check under
    exactly one of them, whatever its e and v; an honest chunk under all.
    """
    n, g1, g2 = toy.n, toy.g1, toy.g2
    w = brute_dlog(enumerate_points(toy), g1, g2)
    rng = random.Random(1010)
    priv, pub = keygen(toy, rng)
    keys = [
        PrivateKey(toy.curve_id, (priv.x1 + w * (priv.x2 - x2)) % n, x2, priv.y1, priv.y2, priv.z)
        for x2 in range(n)
    ]
    assert len(keys) == 1093 and priv in keys
    header = chunk_header(0, 1)

    def accepted_by(chunk):
        """The point each key that accepts the chunk returns."""
        points = []
        for key in keys:
            try:
                points.append(decrypt_chunk(key, chunk, header))
            except InvalidCiphertext:
                pass
        return points

    for _ in range(3):
        r1 = rng.randrange(1, n)
        r2 = rng.choice([r for r in range(1, n) if r != r1])
        e, v = (scalar_mult(toy, g1, rng.randrange(1, n)) for _ in range(2))
        invalid = CiphertextChunk(scalar_mult(toy, g1, r1), scalar_mult(toy, g2, r2), e, v)
        assert len(accepted_by(invalid)) == 1
    m_point = msg_point(toy, 77)
    honest = encrypt_chunk(pub, m_point, header, rng.randrange(1, n))
    assert accepted_by(honest) == [m_point] * n
    assert accepted_by(CiphertextChunk(IDENTITY, honest.u2, honest.e, honest.v)) == []
    assert accepted_by(CiphertextChunk(honest.u1, IDENTITY, honest.e, honest.v)) == []


@pytest.fixture(scope="module")
def two_chunks(secp):
    """(private key, message, serialized two-chunk secp256k1 ciphertext)."""
    rng = random.Random(1007)
    priv, pub = keygen(secp, rng)
    message = bytes(range(40, 100))
    return priv, message, serialize_ciphertext(encrypt(pub, message, rng))


def test_rejection_work_does_not_depend_on_where_a_forgery_diverges(secp, two_chunks, monkeypatch):
    """A negated u1, u2, e or v in either chunk, an identity u1, u2 or both
    in either chunk, u1 = g1, u2 = g2, u1 = a point this process has
    tabled, u1 and u2 one object, or a wrong key, costs the group work of
    a valid decryption, and no square root once the ciphertext is parsed."""
    priv, message, blob = two_chunks
    wrong, _ = keygen(secp, random.Random(1008))
    monkeypatch.setattr(curve_mod, "_loaded", {})
    params = curve_mod.curve_by_id(SECP256K1_ID)  # this test's own, with g1's and g2's tables
    tabled = scalar_mult(params, params.g1, 5)
    for _ in range(_TABLE_AT_USE):
        scalar_mult(params, tabled, 1)
    assert isinstance(held_by(params, tabled), list)
    assert all(isinstance(held_by(params, base), list) for base in (params.g1, params.g2))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(params, "_add", counted("add", params._add))
    monkeypatch.setattr(params, "_dbl", counted("dbl", params._dbl))
    monkeypatch.setattr(curve_mod, "_select", counted("select", curve_mod._select))
    monkeypatch.setattr(curve_mod, "_blinded_inverse", counted("inverse", curve_mod._blinded_inverse))
    monkeypatch.setattr(FieldElement, "sqrt", counted("sqrt", FieldElement.sqrt))

    def work(key, data):
        """(count_ops tally, primitive counts) of one decryption of data, a blob or a ciphertext."""
        ct = parse_ciphertext(data) if isinstance(data, bytes) else data
        calls.clear()
        with count_ops() as ops:
            try:
                accepted = decrypt(key, ct) == message
            except InvalidCiphertext:
                accepted = False
        return accepted, vars(ops), dict(calls)

    accepted, *valid = work(priv, blob)
    assert accepted and valid[0] == {"point_adds": 4, "scalar_mults": 6, "negations": 2, "hashes": 2}
    # per chunk: the core call's 184 additions, 252 doublings and 156 row
    # scans, and e - mask's addition; one inversion each
    assert valid[1] == {"add": 2 * 185, "dbl": 2 * 252, "select": 2 * 156, "inverse": 2 * 2}
    # envelope (7 B) and chunk count (4 B), then u1, u2, e, v of each chunk, 33 B each
    for at in (11 + 33 * j for j in range(8)):
        flipped = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]  # 0x02 <-> 0x03: the negation
        assert work(priv, flipped) == (False, *valid), at
    assert work(wrong, blob) == (False, *valid)
    # an identity u1 or u2 (0x00) is hashed as it is, and a fresh stand-in takes its place
    for at in (11 + 33 * j for j in (0, 1, 4, 5)):
        assert work(priv, blob[:at] + b"\x00" + blob[at + 33 :]) == (False, *valid), at
    for at in (11 + 33 * j for j in (0, 4)):  # u1 and u2 both, in each chunk
        assert work(priv, blob[:at] + b"\x00\x00" + blob[at + 66 :]) == (False, *valid), at
    # mask points with a fixed-base table: decryption computes on fresh copies
    for point, at in ((params.g1, 11), (params.g2, 44), (tabled, 11), (params.g1, 143)):
        forged = blob[:at] + curve_mod.compress(params, point) + blob[at + 33 :]
        assert work(priv, forged) == (False, *valid), (point, at)
    # the one difference left is in parsing, public in the bytes: 0x00 takes no root
    for data, roots in ((blob, 8), (blob[:11] + b"\x00" + blob[44:], 7)):
        calls.clear()
        parse_ciphertext(data)
        assert calls == {"sqrt": roots}
    # u1 and u2 one object, in each chunk: each still builds its own rows
    ct = parse_ciphertext(blob)
    for index in (0, 1):
        chunks = list(ct.chunks)
        u1, _u2, e, v = chunks[index].u1, chunks[index].u2, chunks[index].e, chunks[index].v
        chunks[index] = CiphertextChunk(u1, u1, e, v)
        assert work(priv, Ciphertext(ct.curve_id, tuple(chunks))) == (False, *valid), index


@st.composite
def mutated(draw, blob):
    """blob with one substitution, truncation, extension or point change."""
    kind = draw(st.sampled_from(["substitute", "truncate", "extend", "prefix", "swap", "identity"]))
    # envelope (7 B) and chunk count (4 B), then eight 33-byte points
    starts = [11 + 33 * j for j in range(8)]
    if kind == "substitute":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1 :]
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + draw(st.binary(min_size=1, max_size=40))
    i = draw(st.sampled_from(starts))
    if kind == "prefix":
        return blob[:i] + bytes([draw(st.sampled_from([0x00, 0x02, 0x03, 0x04]))]) + blob[i + 1 :]
    if kind == "identity":
        return blob[:i] + b"\x00" + blob[i + 33 :]
    j = draw(st.sampled_from(starts))
    points = {i: blob[j : j + 33], j: blob[i : i + 33]}
    return blob[:11] + b"".join(points.get(k, blob[k : k + 33]) for k in starts)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decrypt_refuses_every_mutated_ciphertext(two_chunks, data):
    priv, message, blob = two_chunks
    changed = data.draw(mutated(blob))
    if changed == blob:
        assert decrypt(priv, parse_ciphertext(changed)) == message
        return
    with pytest.raises((ParseError, InvalidCiphertext)):
        decrypt(priv, parse_ciphertext(changed))


def test_decrypt_rejects_curve_mismatch(secp, toy):
    rng = random.Random(1003)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, b"hi", rng)
    wrong = PrivateKey(toy.curve_id, priv.x1 % toy.n, priv.x2 % toy.n,
                       priv.y1 % toy.n, priv.y2 % toy.n, priv.z % toy.n)
    with pytest.raises(InvalidCiphertext):
        decrypt(wrong, Ciphertext(toy.curve_id, ct.chunks))
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, Ciphertext(toy.curve_id, ct.chunks))


def test_decrypt_wrong_key_full_message(secp):
    rng = random.Random(1004)
    priv_a, pub_a = keygen(secp, rng)
    priv_b, _ = keygen(secp, rng)
    ct = encrypt(pub_a, b"confidential", rng)
    assert decrypt(priv_a, ct) == b"confidential"
    with pytest.raises(InvalidCiphertext):
        decrypt(priv_b, ct)


def test_encrypt_on_tiny_curve_fails_loudly(toy):
    rng = random.Random(1005)
    _, pub = keygen(toy, rng)
    with pytest.raises(ValueError):
        encrypt(pub, b"hello", rng)


# --- operation counts (actual behavior) -----------------------------------


def test_encrypt_chunk_operation_profile(toy):
    rng = random.Random(2000)
    _, pub = keygen(toy, rng)
    m = msg_point(toy, 5)
    with count_ops() as ops:
        encrypt_chunk(pub, m, chunk_header(0, 1), sample_scalar(toy.n, rng))
    # u1, u2, the mask r*h, and the two validity legs r*c and (r*alpha)*d
    assert ops.scalar_mults == 5
    assert ops.point_adds == 2
    assert ops.negations == 0
    assert ops.hashes == 1


def test_decrypt_chunk_operation_profile(toy):
    rng = random.Random(2001)
    priv, pub = keygen(toy, rng)
    m = msg_point(toy, 5)
    chunk = encrypt_chunk(pub, m, chunk_header(0, 1), sample_scalar(toy.n, rng))
    with count_ops() as ops:
        decrypt_chunk(priv, chunk, chunk_header(0, 1))
    assert ops.scalar_mults == 3
    assert ops.point_adds == 2
    assert ops.negations == 1
    assert ops.hashes == 1


def test_private_key_repr_withholds_the_scalars(secp):
    priv, _ = keygen(secp, random.Random(1007))
    scalars = (priv.x1, priv.x2, priv.y1, priv.y2, priv.z)
    for text in (repr(priv), str(priv)):
        assert text == "PrivateKey(curve_id=0x01, <secret>)"
        for s in scalars:
            for form in (str(s), f"{s:x}", f"{s:X}"):
                assert form not in text


# --- whole messages over the CPUs ------------------------------------------


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the process see n CPUs; yields the list of fork results."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))

    monkeypatch.setattr(os, "fork", counted_fork)
    set_cpus.forks = forks
    yield set_cpus
    assert no_child_left()


@pytest.fixture(scope="module")
def forty(secp):
    """(private key, public key, 1,200-byte message): forty chunks."""
    priv, pub = keygen(secp, random.Random(3000))
    return priv, pub, random.Random(3001).randbytes(40 * chunk_capacity(secp))


PER_ENC_CHUNK = {"point_adds": 2, "scalar_mults": 5, "negations": 0, "hashes": 1}
PER_DEC_CHUNK = {"point_adds": 2, "scalar_mults": 3, "negations": 1, "hashes": 1}


def per_chunk(ops, chunks):
    return {name: count / chunks for name, count in vars(ops).items()}


def test_slices_cover_the_chunks_in_order(cpus):
    cpus(2)
    assert ecs_mod._slices(1) == [(0, 1)]
    assert ecs_mod._slices(3) == [(0, 3)]
    assert ecs_mod._slices(4) == [(0, 2), (2, 4)]
    assert ecs_mod._slices(9) == [(0, 4), (4, 9)]
    assert ecs_mod._slices(137) == [(0, 68), (68, 137)]
    cpus(8)
    assert ecs_mod._slices(5) == [(0, 2), (2, 5)]
    assert ecs_mod._slices(16) == [(2 * i, 2 * i + 2) for i in range(8)]
    cpus(1)
    assert ecs_mod._slices(137) == [(0, 137)]


def test_fan_out_changes_no_byte_and_no_count(cpus, forty):
    priv, pub, message = forty
    blobs, counts = [], []
    for n in (1, 2):
        cpus(n)
        with count_ops() as enc:
            ct = encrypt(pub, message, random.Random(3002))
        with count_ops() as dec:
            assert decrypt(priv, ct) == message
        blobs.append(serialize_ciphertext(ct))
        counts.append((per_chunk(enc, 40), per_chunk(dec, 40)))
    assert len(cpus.forks) == 2  # one child per call with two CPUs
    assert blobs[0] == blobs[1]
    assert counts == [(PER_ENC_CHUNK, PER_DEC_CHUNK)] * 2


def test_fan_out_rejects_a_forged_chunk_in_any_slice(cpus, forty, secp):
    cpus(2)
    priv, pub, message = forty
    ct = encrypt(pub, message, random.Random(3003))
    seen = []
    for index in (0, 39):  # the parent's slice, the child's slice
        chunks = list(ct.chunks)
        u1, u2, e, v = chunks[index].u1, chunks[index].u2, chunks[index].e, chunks[index].v
        chunks[index] = CiphertextChunk(u1, u2, e, point_negate(secp, v))
        with count_ops() as ops:
            with pytest.raises(InvalidCiphertext):
                decrypt(priv, Ciphertext(ct.curve_id, tuple(chunks)))
        seen.append(vars(ops))
    assert len(cpus.forks) == 3
    assert seen == [{name: 40 * n for name, n in PER_DEC_CHUNK.items()}] * 2


def give_up(_signum, _frame):
    raise TimeoutError("the fan-out did not return")


def fan_out_within_a_minute(work, count):
    """ecs._fan_out(work, count), or TimeoutError where it would hang."""
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)
    try:
        return ecs_mod._fan_out(work, count)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def large_slices(start, stop):
    """About 80 KB of marshal data per 2-index slice, more than a pipe holds."""
    return [(os.getpid(), bytes([index]) * 40_000) for index in range(start, stop)]


def test_a_slice_larger_than_a_pipe_buffer_comes_back_whole(cpus):
    # each child blocks in os.write past the pipe's 64 KiB until the parent reads
    cpus(4)
    results = fan_out_within_a_minute(large_slices, 8)
    assert [data for _pid, data in results] == [bytes([index]) * 40_000 for index in range(8)]
    assert len(cpus.forks) == 3
    # the children's results are used, not recomputed here
    assert [pid for pid, _data in results] == [os.getpid()] * 2 + [pid for pid in cpus.forks for _ in range(2)]
    assert no_child_left()


def test_a_failed_first_slice_leaves_no_child_blocked_in_a_full_pipe(cpus):
    # every child blocks in a full pipe; closing the read ends, which only
    # this process holds, frees each of them to be reaped
    cpus(4)

    def work(start, stop):
        if start == 0:
            raise ValueError("this process's slice fails")
        return large_slices(start, stop)

    with pytest.raises(ValueError, match="slice fails"):
        fan_out_within_a_minute(work, 8)
    assert len(cpus.forks) == 3
    assert no_child_left()


class Interrupt(BaseException):
    """Raised in the caller as an interrupt is; pytest reports it as a failure, not a stop."""


def sleepy_slices(start, stop):
    """large_slices, after 2 s in the slice that starts at 2."""
    if start == 2:
        time.sleep(2)
    return large_slices(start, stop)


def interrupt_then_watch(_signum, _frame):
    """Raise Interrupt, re-armed as a watchdog that gives up 30 s later."""
    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    raise Interrupt


def fan_out_interrupted_at_one_second():
    """ecs._fan_out(sleepy_slices, 8) under 4 CPUs, interrupted while it reads slice 2's pipe."""
    previous = signal.signal(signal.SIGALRM, interrupt_then_watch)
    signal.alarm(1)
    try:
        ecs_mod._fan_out(sleepy_slices, 8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_interrupt_in_the_caller_reaps_every_child_and_propagates(cpus):
    # slices 4 and 6 block in full pipes while this process waits on
    # slice 2; the interrupt must end them all, not wait on a full pipe
    cpus(4)
    began = time.monotonic()
    with pytest.raises(Interrupt):
        fan_out_interrupted_at_one_second()
    assert time.monotonic() - began < 10
    assert len(cpus.forks) == 3
    assert no_child_left()


def fail_first_slice(start, stop):
    if start == 0:
        raise ValueError("this process's slice fails")
    return large_slices(start, stop)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_fan_out_leaves_no_descriptor_open(cpus):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    cpus(4)
    before = open_fds()
    fan_out_within_a_minute(large_slices, 8)
    assert open_fds() == before
    # counted while each traceback holds the fan-out's frame, so no pipe
    # the fan-out left open is closed by its collection first
    with pytest.raises(ValueError, match="slice fails") as failed:
        fan_out_within_a_minute(fail_first_slice, 8)
    assert open_fds() == before
    with pytest.raises(Interrupt) as interrupted:
        fan_out_interrupted_at_one_second()
    assert open_fds() == before
    del failed, interrupted
    assert len(cpus.forks) == 9
    assert no_child_left()


class FailingMarshal:
    """marshal for the children: ``dumps`` raises, cuts its last 7 bytes, or drops an entry."""

    loads = staticmethod(marshal.loads)

    def __init__(self, fault):
        self.fault = fault

    def dumps(self, value):
        if self.fault == "raise":
            raise RuntimeError("child fails before it writes")
        if self.fault == "short":  # whole data, one entry short of the slice
            result, tally = value
            return marshal.dumps((result[:-1], tally))
        return marshal.dumps(value)[:-7]


def no_resource():
    raise OSError("no fork or pipe")


@pytest.mark.parametrize("fault", ["fork", "raise", "truncate", "pipe", "short"])
def test_a_failed_child_costs_time_not_results(cpus, forty, monkeypatch, fault):
    priv, pub, message = forty
    cpus(1)
    ct = encrypt(pub, message, random.Random(3004))
    cpus(2)
    if fault in ("fork", "pipe"):
        monkeypatch.setattr(os, fault, no_resource)
    else:
        monkeypatch.setattr(ecs_mod, "marshal", FailingMarshal(fault))
    with count_ops() as enc:
        again = encrypt(pub, message, random.Random(3004))
    with count_ops() as dec:
        parsed = parse_ciphertext(serialize_ciphertext(again))
        assert decrypt(priv, parsed) == message
    assert serialize_ciphertext(again) == serialize_ciphertext(ct)
    assert parsed == ct
    # a failed child's tally is dropped, and its slice is counted here instead
    assert (per_chunk(enc, 40), per_chunk(dec, 40)) == (PER_ENC_CHUNK, PER_DEC_CHUNK)
    assert len(cpus.forks) == (0 if fault in ("fork", "pipe") else 3)


def test_an_error_in_the_parents_slice_reaps_the_children(cpus, forty, monkeypatch, secp):
    cpus(2)
    priv, pub, message = forty
    ct = encrypt(pub, message, random.Random(3009))
    broken = Ciphertext(ct.curve_id, (None,) + ct.chunks[1:])  # chunk 0 is no chunk
    with pytest.raises(InvalidCiphertext):
        decrypt(priv, broken)
    first = message[: chunk_capacity(secp)]
    real_encode = codec.encode_chunk

    def encode(params, data):
        if data == first:
            raise ValueError("no curve point found for chunk (pad counter exhausted)")
        return real_encode(params, data)

    monkeypatch.setattr(codec, "encode_chunk", encode)
    with pytest.raises(ValueError, match="pad counter exhausted"):
        encrypt(pub, message, random.Random(3009))
    assert len(cpus.forks) == 3


def test_short_messages_never_fork(cpus, secp):
    cpus(8)
    priv, pub = keygen(secp, random.Random(3005))
    rng = random.Random(3006)
    capacity = chunk_capacity(secp)
    for length in (0, 1, capacity, capacity + 1, 3 * capacity):
        message = rng.randbytes(length)
        ct = parse_ciphertext(serialize_ciphertext(encrypt(pub, message, rng)))
        assert decrypt(priv, ct) == message
    assert cpus.forks == []
    message = rng.randbytes(3 * capacity + 1)  # four chunks: two slices of two
    ct = parse_ciphertext(serialize_ciphertext(encrypt(pub, message, rng)))
    assert decrypt(priv, ct) == message
    assert len(cpus.forks) == 3  # encrypt, parse and decrypt


def test_no_fork_beside_another_thread(cpus, secp):
    cpus(2)
    priv, pub = keygen(secp, random.Random(3007))
    message = bytes(range(4 * chunk_capacity(secp)))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert decrypt(priv, encrypt(pub, message, random.Random(3008))) == message
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert cpus.forks == []
    assert decrypt(priv, encrypt(pub, message, random.Random(3008))) == message
    assert len(cpus.forks) == 2


def test_the_pinned_encryption_fans_out_on_two_cpus(cpus, secp):
    # test_seeded_encryption_bytes_are_pinned, through two processes
    cpus(2)
    rng = random.Random(0x5EED)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, bytes(range(250)), rng)
    assert hashlib.sha3_256(serialize_ciphertext(ct)).hexdigest() == (
        "32b06ab1d705453f3f289064ca5e43e640906846c4662973bdd3445807893b4d"
    )
    assert decrypt(priv, ct) == bytes(range(250))
    assert len(cpus.forks) == 2


def reap_any_child(_signum, _frame):
    """A SIGCHLD handler that waits for any child, as daemons' handlers do."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


@pytest.mark.parametrize("handler", [signal.SIG_IGN, reap_any_child], ids=["ignored", "handled"])
def test_fan_out_when_sigchld_reaps_the_children(cpus, forty, handler):
    priv, pub, message = forty
    cpus(1)
    ct = encrypt(pub, message, random.Random(3010))
    cpus(2)
    previous = signal.signal(signal.SIGCHLD, handler)
    try:
        with count_ops() as enc:
            again = encrypt(pub, message, random.Random(3010))
        with count_ops() as dec:
            parsed = parse_ciphertext(serialize_ciphertext(again))
            assert decrypt(priv, parsed) == message
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert serialize_ciphertext(again) == serialize_ciphertext(ct)
    assert parsed == ct
    assert (per_chunk(enc, 40), per_chunk(dec, 40)) == (PER_ENC_CHUNK, PER_DEC_CHUNK)
    assert len(cpus.forks) == 3


def test_a_fanned_out_process_counts_only_its_own_slice(cpus, secp, monkeypatch):
    # a child's uses of h, c and d end with it, and its result is used, not recomputed
    assert 5 < _TABLE_AT_USE <= 10
    cpus(2)
    assert ecs_mod._slices(11) == [(0, 5), (5, 11)]
    priv, pub = keygen(secp, random.Random(3011))
    message = bytes(11 * chunk_capacity(secp))
    ct = encrypt(pub, message, random.Random(3012))
    assert [held_by(secp, point) for point in (pub.h, pub.c, pub.d)] == [5] * 3
    calls = []
    real_decrypt_chunk = ecs_mod.decrypt_chunk

    def counted(*args):
        calls.append(args)
        return real_decrypt_chunk(*args)

    monkeypatch.setattr(ecs_mod, "decrypt_chunk", counted)
    assert decrypt(priv, ct) == message
    assert len(calls) == 5
    encrypt(pub, message, random.Random(3013))  # this process's uses 6 to 10 build the tables
    assert all(isinstance(held_by(secp, point), list) for point in (pub.h, pub.c, pub.d))
    assert len(cpus.forks) == 3


# --- parsing over the CPUs --------------------------------------------------


@pytest.fixture(scope="module")
def six(secp):
    """A six-chunk secp256k1 ciphertext's bytes: slices (0, 3) and (3, 6) on two CPUs."""
    _, pub = keygen(secp, random.Random(3015))
    message = random.Random(3016).randbytes(6 * chunk_capacity(secp))
    return serialize_ciphertext(encrypt(pub, message, random.Random(3017)))


def prefix_at(point):
    """Offset of a point's prefix in a ciphertext with no identity point (secp256k1)."""
    return 11 + 33 * point


def serial_parse(blob):
    """The one-pass parse: every point decompressed as soon as it is read."""
    envelope = wire_mod.parse_envelope(blob)
    params = wire_mod._expect_kind(envelope, wire_mod.KIND_CIPHERTEXT)
    reader = wire_mod._Reader(envelope.body)
    total = int.from_bytes(reader.take(4), "big")
    if total == 0:
        raise ParseError("ciphertext with zero chunks")
    chunks = [
        CiphertextChunk(*[wire_mod._read_point(reader, params) for _ in range(4)])
        for _ in range(total)
    ]
    reader.finish()
    return Ciphertext(params.curve_id, tuple(chunks))


def outcome(parse, blob):
    """parse(blob), or the message of its ParseError."""
    try:
        return parse(blob)
    except ParseError as exc:
        return str(exc)


def parse_outcomes(cpus, blob):
    """The outcomes of parse_ciphertext(blob) on 2 and on 1 CPU, and of serial_parse."""
    outcomes = []
    for n in (2, 1):
        cpus(n)
        outcomes.append(outcome(parse_ciphertext, blob))
    return outcomes + [outcome(serial_parse, blob)]


@st.composite
def ciphertext_mutation(draw, blob):
    """blob with up to three byte substitutions, then maybe cut short or extended.

    Substitutions favour point prefixes and the bytes 0x00, 0x02, 0x03
    and 0x05, which change how the scan reads the points after them.
    """
    mutated = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(range(prefix_at(0), len(blob), 33)) | st.integers(0, len(blob) - 1))
        mutated[at] = draw(st.sampled_from([0x00, 0x02, 0x03, 0x05]) | st.integers(0, 255))
    end = draw(st.sampled_from(["keep", "truncate", "extend"]))
    if end == "truncate":
        del mutated[draw(st.integers(0, len(blob) - 1)) :]
    elif end == "extend":
        mutated += draw(st.binary(min_size=1, max_size=40))
    return bytes(mutated)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_fanned_out_parse_equals_the_serial_one(cpus, six, data):
    blob = data.draw(ciphertext_mutation(six))
    fanned, one_cpu, serial = parse_outcomes(cpus, blob)
    assert fanned == one_cpu == serial


def with_point(blob, point, encoding):
    at = prefix_at(point)
    return blob[:at] + encoding + blob[at + len(encoding) :]


BAD_PREFIX = (5, b"\x05", "bad point prefix 0x05")  # chunk 1's u2, in the caller's slice
UNREDUCED_X = (18, b"\x02" + b"\xff" * 32, "encoded x is not reduced modulo p")  # chunk 4's e


@pytest.mark.parametrize(
    "bad, cut, expected, forks",
    [
        ([BAD_PREFIX], 0, BAD_PREFIX[2], 1),
        ([UNREDUCED_X], 0, UNREDUCED_X[2], 1),
        ([BAD_PREFIX, UNREDUCED_X], 0, BAD_PREFIX[2], 1),
        ([UNREDUCED_X], 5, UNREDUCED_X[2], 0),  # the scan fails: no fork
    ],
    ids=["callers-slice", "childs-slice", "both-slices", "bad-point-then-truncated"],
)
def test_a_fanned_out_parse_reports_the_first_bad_point(cpus, six, bad, cut, expected, forks):
    blob = six
    for point, encoding, _message in bad:
        blob = with_point(blob, point, encoding)
    blob = blob[: len(blob) - cut]
    assert parse_outcomes(cpus, blob) == [expected] * 3
    assert len(cpus.forks) == forks


def test_a_fanned_out_parse_uses_the_childs_slice(cpus, secp, monkeypatch):
    # chunks 5-10 are decompressed only in the child, once
    cpus(1)
    _, pub = keygen(secp, random.Random(3018))
    ct = encrypt(pub, bytes(11 * chunk_capacity(secp)), random.Random(3019))
    blob = serialize_ciphertext(ct)
    cpus(2)
    assert ecs_mod._slices(11) == [(0, 5), (5, 11)]
    calls = []
    real_decompress = wire_mod.decompress

    def counted(params, encoding):
        calls.append(encoding)
        return real_decompress(params, encoding)

    monkeypatch.setattr(wire_mod, "decompress", counted)
    assert parse_ciphertext(blob) == ct
    assert calls == [blob[prefix_at(q) : prefix_at(q + 1)] for q in range(20)]
    assert len(cpus.forks) == 1
