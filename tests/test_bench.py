import random

import pytest

from eccs.bench import (
    DEFAULT_MESSAGE,
    LITERATURE_ROWS,
    elgamal_decrypt,
    elgamal_decrypt_message,
    elgamal_encrypt,
    elgamal_encrypt_message,
    elgamal_keygen,
    format_report,
    run_suite,
)
from eccs.curve import count_ops, point_add, scalar_mult
from eccs.ecs import (
    CiphertextChunk,
    chunk_header,
    decrypt_chunk,
    encrypt_chunk,
    keygen,
    sample_scalar,
)
from eccs.errors import InvalidCiphertext


def test_default_message_is_single_chunk():
    assert len(DEFAULT_MESSAGE) == 28  # fits one secp256k1 chunk (capacity 30)


# --- baseline correctness -------------------------------------------------


def test_elgamal_roundtrip_points(toy):
    rng = random.Random(0xE1)
    z, h = elgamal_keygen(toy, rng)
    assert h == scalar_mult(toy, toy.g1, z)
    for k in range(1, 30):
        m = scalar_mult(toy, toy.g1, k)
        assert elgamal_decrypt(toy, z, elgamal_encrypt(toy, h, m, rng)) == m


def test_elgamal_roundtrip_messages(secp):
    rng = random.Random(0xE2)
    z, h = elgamal_keygen(secp, rng)
    for message in (b"", b"x", DEFAULT_MESSAGE, bytes(range(100))):
        pairs = elgamal_encrypt_message(secp, h, message, rng)
        assert elgamal_decrypt_message(secp, z, pairs) == message


def test_elgamal_is_malleable_where_scheme_is_not(toy):
    """The paired tamper: the baseline accepts an additive maul, ours rejects."""
    rng = random.Random(0xE3)
    m = scalar_mult(toy, toy.g1, 321)

    z, h = elgamal_keygen(toy, rng)
    u, e = elgamal_encrypt(toy, h, m, rng)
    mauled_m = elgamal_decrypt(toy, z, (u, point_add(toy, e, toy.g1)))
    # the baseline happily decrypts - to a different, attacker-shifted point
    assert mauled_m == point_add(toy, m, toy.g1)

    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    mauled = CiphertextChunk(chunk.u1, chunk.u2, point_add(toy, chunk.e, toy.g1), chunk.v)
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, mauled, header)


# --- operation counts -----------------------------------------------------


def test_elgamal_encrypt_counts(toy):
    rng = random.Random(0xE4)
    _, h = elgamal_keygen(toy, rng)
    m = scalar_mult(toy, toy.g1, 5)
    with count_ops() as ops:
        elgamal_encrypt(toy, h, m, rng)
    assert ops.scalar_mults == 2
    assert ops.point_adds == 1
    assert ops.negations == 0
    assert ops.hashes == 0


def test_elgamal_decrypt_counts(toy):
    rng = random.Random(0xE5)
    z, h = elgamal_keygen(toy, rng)
    pair = elgamal_encrypt(toy, h, scalar_mult(toy, toy.g1, 5), rng)
    with count_ops() as ops:
        elgamal_decrypt(toy, z, pair)
    assert ops.scalar_mults == 1
    assert ops.point_adds == 1
    assert ops.negations == 1
    assert ops.hashes == 0


# --- suite and report -----------------------------------------------------


def test_run_suite_rejects_too_few_iterations():
    with pytest.raises(ValueError):
        run_suite(iterations=9)


@pytest.fixture(scope="module")
def report():
    return run_suite(iterations=10)


def test_run_suite_structure(report):
    assert report.curve == "secp256k1"
    assert report.message_bytes == 28
    assert report.iterations == 10
    assert [a.name for a in report.algorithms] == ["eccs", "ec-elgamal"]
    ours, baseline = report.algorithms
    assert ours.public_key_bytes == 106
    assert ours.private_key_bytes == 167
    assert [op.name for op in ours.ops] == ["keygen", "encrypt", "decrypt"]
    assert "not CCA-secure" in baseline.note
    for algo in report.algorithms:
        for op in algo.ops:
            assert op.median_ms > 0
            assert op.p90_ms >= op.median_ms


def test_run_suite_counts_single_chunk_message(report):
    ours, baseline = report.algorithms
    by_name = {op.name: op for op in ours.ops}
    assert by_name["keygen"].scalar_mults == 5
    assert by_name["keygen"].point_adds == 2
    assert (by_name["encrypt"].scalar_mults, by_name["encrypt"].point_adds) == (5, 2)
    assert by_name["encrypt"].hashes == 1
    assert (by_name["decrypt"].scalar_mults, by_name["decrypt"].point_adds) == (3, 2)
    assert by_name["decrypt"].negations == 1
    assert by_name["decrypt"].hashes == 1
    base = {op.name: op for op in baseline.ops}
    assert (base["encrypt"].scalar_mults, base["encrypt"].point_adds) == (2, 1)
    assert (base["decrypt"].scalar_mults, base["decrypt"].point_adds) == (1, 1)
    assert base["decrypt"].negations == 1


def test_literature_rows_quoted_not_measured():
    systems = [row["system"] for row in LITERATURE_ROWS]
    assert any("RSA" in s for s in systems)
    assert any("Kyber" in s for s in systems)
    assert any("SIDH" in s for s in systems)
    assert any("ECDH" in s for s in systems)
    published_self = next(row for row in LITERATURE_ROWS if "as published" in row["system"])
    assert published_self["pub"] == "64 B"  # quoted verbatim; measured is 106 B


def test_format_report_contents(report):
    text = format_report(report)
    assert "eccs" in text and "ec-elgamal" in text
    assert "public key 106 B" in text
    assert "private key 167 B" in text
    assert "quoted not measured" in text
    assert "64 B" in text  # the published claim stays visible next to measured sizes
    # machine-readable lines
    assert "eccs.encrypt.scalar_mults=5" in text
    assert "ec_elgamal.decrypt.scalar_mults=1" in text
    assert "eccs.public_key_bytes=106" in text
    for line in text.splitlines():
        if "=" in line and "." in line.split("=")[0]:
            key, value = line.split("=", 1)
            assert " " not in key
