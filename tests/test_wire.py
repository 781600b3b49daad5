import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccs.curve import IDENTITY, scalar_mult
from eccs.ecs import Ciphertext, CiphertextChunk, PrivateKey, PublicKey, encrypt, keygen
from eccs.errors import ParseError
from eccs.wire import (
    KIND_PUBLIC_KEY,
    LABEL_CIPHERTEXT,
    LABEL_PRIVATE_KEY,
    LABEL_PUBLIC_KEY,
    MAGIC,
    armor,
    dearmor,
    parse_ciphertext,
    parse_envelope,
    parse_private_key,
    parse_public_key,
    serialize_ciphertext,
    serialize_private_key,
    serialize_public_key,
    unarmor,
)

from helpers import byte_mutation


@pytest.fixture(scope="module")
def toy_material(toy):
    rng = random.Random(0xA11CE)
    priv, pub = keygen(toy, rng)
    chunk = CiphertextChunk(
        scalar_mult(toy, toy.g1, 5),
        scalar_mult(toy, toy.g2, 5),
        scalar_mult(toy, toy.g1, 500),
        scalar_mult(toy, toy.g2, 900),
    )
    ct = Ciphertext(toy.curve_id, (chunk, chunk))
    return priv, pub, ct


@pytest.fixture(scope="module")
def secp_material(secp):
    rng = random.Random(0xB0B31)
    priv, pub = keygen(secp, rng)
    ct = encrypt(pub, b"wire format check", rng)
    return priv, pub, ct


# --- roundtrips and golden sizes ------------------------------------------


@pytest.mark.parametrize(
    "index, serialize, parse",
    [(1, serialize_public_key, parse_public_key), (0, serialize_private_key, parse_private_key),
     (2, serialize_ciphertext, parse_ciphertext)],
    ids=["public-key", "private-key", "ciphertext"],
)
def test_roundtrip(toy_material, secp_material, index, serialize, parse):
    for material in (toy_material, secp_material):
        blob = serialize(material[index])
        assert parse(blob) == material[index]
        assert serialize(parse(blob)) == blob


def test_envelope_layout(secp_material):
    _, pub, _ = secp_material
    blob = serialize_public_key(pub)
    assert blob[:4] == MAGIC == b"ECS1"
    assert blob[4] == 0x01  # version
    assert blob[5] == KIND_PUBLIC_KEY
    assert blob[6] == 0x01  # secp256k1 id
    envelope = parse_envelope(blob)
    assert envelope.kind == KIND_PUBLIC_KEY
    assert envelope.curve_id == 0x01
    assert envelope.body == blob[7:]


def test_golden_sizes_secp(secp, secp_material):
    priv, pub, _ = secp_material
    rng = random.Random(1)
    assert len(serialize_public_key(pub)) == 106
    assert len(serialize_private_key(priv)) == 167
    one_chunk = encrypt(pub, b"x", rng)
    assert len(one_chunk.chunks) == 1
    assert len(serialize_ciphertext(one_chunk)) == 143


def test_golden_sizes_toy(toy_material):
    priv, pub, ct = toy_material
    assert len(serialize_public_key(pub)) == 7 + 3 * 3
    assert len(serialize_private_key(priv)) == 7 + 5 * 2
    assert len(serialize_ciphertext(ct)) == 7 + 4 + 2 * 4 * 3


def test_identity_points_in_ciphertext(toy):
    chunk = CiphertextChunk(IDENTITY, IDENTITY, IDENTITY, IDENTITY)
    ct = Ciphertext(toy.curve_id, (chunk,))
    blob = serialize_ciphertext(ct)
    assert len(blob) == 7 + 4 + 4  # identity compresses to one byte
    assert parse_ciphertext(blob) == ct


# --- strictness -----------------------------------------------------------


@pytest.mark.parametrize(
    "at, new, parse, reason",
    [
        (0, b"XXXX", parse_public_key, "magic"),
        (4, b"\x02", parse_public_key, "version"),
        (5, b"\x07", parse_envelope, "kind"),
        (6, b"\x42", parse_public_key, "curve"),
    ],
    ids=["magic", "version", "kind", "curve-id"],
)
def test_rejects_an_unknown_envelope_field(secp_material, at, new, parse, reason):
    blob = serialize_public_key(secp_material[1])
    with pytest.raises(ParseError, match=reason):
        parse(blob[:at] + new + blob[at + len(new) :])


def test_rejects_kind_confusion(toy_material):
    priv, pub, ct = toy_material
    with pytest.raises(ParseError):
        parse_public_key(serialize_private_key(priv))
    with pytest.raises(ParseError):
        parse_private_key(serialize_public_key(pub))
    with pytest.raises(ParseError):
        parse_ciphertext(serialize_public_key(pub))


def test_rejects_all_truncations(toy_material):
    priv, pub, ct = toy_material
    for blob, parser in (
        (serialize_public_key(pub), parse_public_key),
        (serialize_private_key(priv), parse_private_key),
        (serialize_ciphertext(ct), parse_ciphertext),
    ):
        for cut in range(len(blob)):
            with pytest.raises(ParseError):
                parser(blob[:cut])


def test_rejects_trailing_bytes(toy_material):
    priv, pub, ct = toy_material
    with pytest.raises(ParseError, match="trailing"):
        parse_public_key(serialize_public_key(pub) + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        parse_private_key(serialize_private_key(priv) + b"\xff")
    with pytest.raises(ParseError, match="trailing"):
        parse_ciphertext(serialize_ciphertext(ct) + b"\x00")


def test_rejects_identity_in_public_key(toy, toy_material):
    _, pub, _ = toy_material
    blob = serialize_public_key(pub)
    # replace the first point (3 bytes at offset 7) with the identity byte
    mutated = blob[:7] + b"\x00" + blob[10:]
    with pytest.raises(ParseError, match="identity"):
        parse_public_key(mutated)


def test_rejects_out_of_range_scalars(toy, toy_material):
    priv = toy_material[0]
    blob = serialize_private_key(priv)
    zero = blob[:7] + (0).to_bytes(2, "big") + blob[9:]
    with pytest.raises(ParseError, match="scalar"):
        parse_private_key(zero)
    equal_n = blob[:7] + toy.n.to_bytes(2, "big") + blob[9:]
    with pytest.raises(ParseError, match="scalar"):
        parse_private_key(equal_n)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["c", "d", "h"])
def test_serialize_rejects_identity_in_public_key(toy_material, position):
    # parse_public_key refuses such keys, so no bytes are written for them
    pub = toy_material[1]
    points = [pub.c, pub.d, pub.h]
    points[position] = IDENTITY
    with pytest.raises(ValueError, match="identity"):
        serialize_public_key(PublicKey(pub.curve_id, *points))


def test_serialize_rejects_out_of_range_scalars(toy):
    bad = PrivateKey(toy.curve_id, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        serialize_private_key(bad)


def test_rejects_zero_chunk_ciphertext(toy, toy_material):
    ct = toy_material[2]
    blob = serialize_ciphertext(ct)
    mutated = blob[:7] + (0).to_bytes(4, "big") + blob[11:]
    with pytest.raises(ParseError):
        parse_ciphertext(mutated)
    with pytest.raises(ValueError):
        serialize_ciphertext(Ciphertext(toy.curve_id, ()))


def test_rejects_chunk_count_mismatch(toy_material):
    ct = toy_material[2]
    blob = serialize_ciphertext(ct)
    # declare three chunks but provide two
    mutated = blob[:7] + (3).to_bytes(4, "big") + blob[11:]
    with pytest.raises(ParseError):
        parse_ciphertext(mutated)
    # declare one chunk, second chunk's bytes become trailing garbage
    mutated = blob[:7] + (1).to_bytes(4, "big") + blob[11:]
    with pytest.raises(ParseError, match="trailing"):
        parse_ciphertext(mutated)


def test_rejects_invalid_point_encodings(toy, toy_material):
    _, pub, _ = toy_material
    blob = serialize_public_key(pub)
    bad_prefix = blob[:7] + b"\x05" + blob[8:]
    with pytest.raises(ParseError):
        parse_public_key(bad_prefix)
    # x >= p in the first point
    bad_x = blob[:7] + blob[7:8] + (toy.p).to_bytes(2, "big") + blob[10:]
    with pytest.raises(ParseError):
        parse_public_key(bad_x)
    # x = 0 has no curve point on the toy curve (rhs non-residue)
    bad_res = blob[:7] + blob[7:8] + (0).to_bytes(2, "big") + blob[10:]
    with pytest.raises(ParseError):
        parse_public_key(bad_res)


def test_fuzzed_mutations_parse_or_raise_parse_error(toy_material):
    rng = random.Random(0xF022)
    priv, pub, ct = toy_material
    specimens = (
        (serialize_public_key(pub), parse_public_key),
        (serialize_private_key(priv), parse_private_key),
        (serialize_ciphertext(ct), parse_ciphertext),
    )
    for blob, parser in specimens:
        for _ in range(2000):
            mutated = bytearray(blob)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                parser(bytes(mutated))
            except ParseError:
                pass  # expected for most mutations; anything else would fail


# --- armor ----------------------------------------------------------------


def test_armor_roundtrip_all_labels(toy_material):
    priv, pub, ct = toy_material
    cases = (
        (serialize_public_key(pub), LABEL_PUBLIC_KEY),
        (serialize_private_key(priv), LABEL_PRIVATE_KEY),
        (serialize_ciphertext(ct), LABEL_CIPHERTEXT),
    )
    for blob, label in cases:
        text = armor(blob, label)
        assert text.startswith(f"-----BEGIN {label}-----\n")
        assert text.endswith(f"-----END {label}-----\n")
        got_label, got = dearmor(text)
        assert (got_label, got) == (label, blob)


def test_armor_wraps_at_64_columns(secp_material):
    ct = secp_material[2]
    text = armor(serialize_ciphertext(ct), LABEL_CIPHERTEXT)
    body = text.strip().split("\n")[1:-1]
    assert all(len(line) <= 64 for line in body)
    assert all(len(line) == 64 for line in body[:-1])


def test_armor_rejects_unknown_label(toy_material):
    with pytest.raises(ValueError):
        armor(b"data", "ECCS SOMETHING")


def test_dearmor_strictness():
    blob = b"payload-bytes"
    text = armor(blob, LABEL_PUBLIC_KEY)
    # tampered base64 character
    corrupt = text.replace(text.split("\n")[1][:1], "*", 1)
    with pytest.raises(ParseError):
        dearmor(corrupt)
    with pytest.raises(ParseError):
        dearmor(text.replace("END ECCS PUBLIC KEY", "END ECCS PRIVATE KEY"))
    with pytest.raises(ParseError):
        dearmor(text.split("\n-----END")[0])  # footer missing
    with pytest.raises(ParseError):
        dearmor("-----BEGIN ECCS THING-----\nAAAA\n-----END ECCS THING-----\n")
    with pytest.raises(ParseError):
        dearmor("just some text\n")
    with pytest.raises(ParseError):
        dearmor("")
    with pytest.raises(ParseError, match="empty"):
        dearmor("-----BEGIN ECCS PUBLIC KEY-----\n-----END ECCS PUBLIC KEY-----\n")
    # whitespace inside the body is rejected
    lines = text.split("\n")
    spaced = "\n".join([lines[0], lines[1][:4] + " " + lines[1][4:], *lines[2:]])
    with pytest.raises(ParseError):
        dearmor(spaced)


def test_dearmor_tolerates_surrounding_blank_lines(toy_material):
    blob = serialize_public_key(toy_material[1])
    text = "\n\n" + armor(blob, LABEL_PUBLIC_KEY) + "\n\n"
    label, got = dearmor(text)
    assert (label, got) == (LABEL_PUBLIC_KEY, blob)


def test_dearmor_handles_crlf(toy_material):
    blob = serialize_public_key(toy_material[1])
    text = armor(blob, LABEL_PUBLIC_KEY).replace("\n", "\r\n")
    label, got = dearmor(text)
    assert (label, got) == (LABEL_PUBLIC_KEY, blob)


def test_unarmor_checks_the_label_against_the_content(toy_material):
    priv, pub, ct = toy_material
    blobs = {
        LABEL_PUBLIC_KEY: serialize_public_key(pub),
        LABEL_PRIVATE_KEY: serialize_private_key(priv),
        LABEL_CIPHERTEXT: serialize_ciphertext(ct),
    }
    for label, blob in blobs.items():
        assert unarmor(blob) == blob
        assert unarmor(armor(blob, label).encode("ascii")) == blob
        for other in blobs.keys() - {label}:
            with pytest.raises(ParseError, match="does not match the content"):
                unarmor(armor(blob, other).encode("ascii"))
    text = armor(blobs[LABEL_PUBLIC_KEY], LABEL_PUBLIC_KEY)
    with pytest.raises(ParseError, match="not ASCII"):
        unarmor(text.replace("\n", "\n\u00e9", 1).encode("utf-8"))


# --- property tests -------------------------------------------------------

LABELS = [LABEL_PUBLIC_KEY, LABEL_PRIVATE_KEY, LABEL_CIPHERTEXT]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["toy", "secp256k1"]), data=st.data())
def test_key_parsers_round_trip(toy, secp, name, data):
    params = toy if name == "toy" else secp
    scalars = data.draw(st.lists(st.integers(1, params.n - 1), min_size=5, max_size=5))
    priv = PrivateKey(params.curve_id, *scalars)
    pub = PublicKey(params.curve_id, *(scalar_mult(params, params.g1, k) for k in scalars[:3]))
    for key, serialize, parse, label in (
        (priv, serialize_private_key, parse_private_key, LABEL_PRIVATE_KEY),
        (pub, serialize_public_key, parse_public_key, LABEL_PUBLIC_KEY),
    ):
        blob = serialize(key)
        assert parse(blob) == key
        assert dearmor(armor(blob, label)) == (label, blob)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_key_parsers_refuse_mutations_only_with_parse_error(toy_material, secp_material, data):
    priv, pub, _ = data.draw(st.sampled_from([toy_material, secp_material]))
    serialize, parse, key = data.draw(
        st.sampled_from(
            [
                (serialize_private_key, parse_private_key, priv),
                (serialize_public_key, parse_public_key, pub),
            ]
        )
    )
    kind, blob = data.draw(byte_mutation(serialize(key)))
    try:
        got = parse(blob)
    except ParseError:
        return
    # a length change never parses; a substitution that does is canonical
    assert kind == "substitute"
    assert serialize(got) == blob


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(LABELS), payload=st.binary(min_size=1, max_size=300))
def test_dearmor_round_trips(label, payload):
    assert dearmor(armor(payload, label)) == (label, payload)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dearmor_refuses_mutations_only_with_parse_error(toy_material, data):
    priv, pub, _ = toy_material
    label, blob = data.draw(
        st.sampled_from(
            [
                (LABEL_PRIVATE_KEY, serialize_private_key(priv)),
                (LABEL_PUBLIC_KEY, serialize_public_key(pub)),
            ]
        )
    )
    _, text = data.draw(byte_mutation(armor(blob, label)))
    try:
        got_label, _ = dearmor(text)
    except ParseError:
        return
    assert got_label in LABELS
