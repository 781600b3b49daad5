import itertools
import random
from types import SimpleNamespace

import pytest

from eccs import bench
from eccs.bench import (
    DEFAULT_MESSAGE,
    KEY_SIZE_NOTE,
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


SCHEMES = (("eccs", "eccs"), ("ec_elgamal", "ec-elgamal"))  # (key prefix, table name)
OPS = ("keygen", "encrypt", "decrypt")
FIELDS = ("median_ms", "p90_ms", "scalar_mults", "point_adds", "negations", "hashes")


@pytest.fixture(scope="module")
def report():
    return run_suite(iterations=10)


def test_run_suite_structure(report):
    assert list(report)[:4] == ["curve", "message_bytes", "iterations", "host"]
    assert report["curve"] == "secp256k1"
    assert report["message_bytes"] == 28
    assert report["iterations"] == 10
    assert report["eccs.public_key_bytes"] == 106
    assert report["eccs.private_key_bytes"] == 167
    expected = []
    for prefix, _ in SCHEMES:
        expected += [f"{prefix}.public_key_bytes", f"{prefix}.private_key_bytes"]
        for op in OPS:
            expected += [f"{prefix}.{op}.{field}" for field in FIELDS]
            assert report[f"{prefix}.{op}.median_ms"] > 0
            assert report[f"{prefix}.{op}.p90_ms"] >= report[f"{prefix}.{op}.median_ms"]
    assert list(report)[4:] == expected


def test_run_suite_counts_single_chunk_message(report):
    def counts(prefix, op):
        return tuple(report[f"{prefix}.{op}.{field}"] for field in FIELDS[2:])

    assert counts("eccs", "keygen") == (5, 2, 0, 0)
    assert counts("eccs", "encrypt") == (5, 2, 0, 1)
    assert counts("eccs", "decrypt") == (3, 2, 1, 1)
    assert counts("ec_elgamal", "encrypt")[:2] == (2, 1)
    assert counts("ec_elgamal", "decrypt")[:3] == (1, 1, 1)


@pytest.mark.parametrize("n", [10, 25, 26, 46])
def test_p90_is_the_nearest_rank_sample(monkeypatch, n):
    # each op's n timed calls last 1, 2, ..., n ms; the warm-up calls read no clock
    readings = itertools.cycle([reading for k in range(1, n + 1) for reading in (0.0, k / 1e3)])
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(readings)))
    lines = format_report(run_suite(n)).splitlines()
    rank = -(-9 * n // 10)  # ceil(0.9 n): 24 of 26, 42 of 46
    for prefix, _ in SCHEMES:
        for op in OPS:
            assert f"{prefix}.{op}.p90_ms={rank:.3f}" in lines
            assert f"{prefix}.{op}.median_ms={(n + 1) / 2:.3f}" in lines


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
    lines = text.splitlines()
    assert lines[0] == "curve=secp256k1 message=28B iterations=10 host=" + report["host"]
    assert "eccs: public key 106 B, private key 167 B" in lines
    baseline_sizes = next(line for line in lines if line.startswith("ec-elgamal: public key"))
    assert "not CCA-secure" in baseline_sizes
    assert "quoted not measured" in text
    # the published claim stays visible next to measured sizes, with its note
    assert "64 B" in KEY_SIZE_NOTE and f"note: {KEY_SIZE_NOTE}" in lines
    # the last block is exactly the mapping's items after its four header keys, in order
    shown = [f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
             for key, value in list(report.items())[4:]]
    assert text.rsplit("\n\n", 1)[1].splitlines() == shown
    assert "eccs.encrypt.scalar_mults=5" in shown
    assert "ec_elgamal.decrypt.scalar_mults=1" in shown
    assert "eccs.public_key_bytes=106" in shown
    assert all(" " not in line for line in shown)
    # each table row shows its op's six mapping values
    for prefix, name in SCHEMES:
        for op in OPS:
            row = next(line.split() for line in lines if line.split()[:2] == [name, op])
            values = [report[f"{prefix}.{op}.{field}"] for field in FIELDS]
            assert row[2:] == [f"{values[0]:.3f}", f"{values[1]:.3f}", *map(str, values[2:])]
