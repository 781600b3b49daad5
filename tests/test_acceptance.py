"""Acceptance gate: one check per shipping criterion, one PASS/FAIL line each.

Run under pytest, or as a script for the summary form:

    python3 tests/test_acceptance.py

One check (6a) pins the published operation budget for encryption, which
the encryption equations themselves contradict; it is expected to fail
and is kept red deliberately.  See its docstring.
"""

import functools
import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time

from helpers import as_tuple

from eccs import bench
from eccs.curve import (
    count_ops,
    get_curve,
    point_add,
    point_negate,
    scalar_mult,
)
from eccs.ecs import (
    Ciphertext,
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
from eccs.oracle import brute_dlog, enumerate_points, independent_decrypt
from eccs.wire import (
    parse_ciphertext,
    parse_private_key,
    parse_public_key,
    serialize_ciphertext,
    serialize_private_key,
    serialize_public_key,
)

CHECKS = {}


def criterion(number: str, label: str):
    def register(fn):
        CHECKS[number] = (label, fn)
        return fn

    return register


def run_criterion(number: str) -> None:
    label, fn = CHECKS[number]
    try:
        fn()
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


@functools.lru_cache(maxsize=None)
def toy_table():
    return enumerate_points(get_curve("toy"))


def random_toy_point(table, rng):
    return table.to_point(table.points[rng.randrange(1, table.order)])


# --- criteria -------------------------------------------------------------


@criterion("1", "exhaustive ephemeral-scalar correctness")
def check_exhaustive_correctness():
    """Every ephemeral scalar, 20 keys: recomputed V matches and the
    blinding term strips off to the exact message point."""
    started = time.perf_counter()
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(2026)
    header = chunk_header(0, 1)
    for _ in range(20):
        priv, pub = keygen(toy, rng)
        m_point = random_toy_point(table, rng)
        for r in range(1, toy.n):
            chunk = encrypt_chunk(pub, m_point, header, r)
            alpha = hash_to_scalar(toy, header, chunk.u1, chunk.u2, chunk.e)
            v_dec = point_add(
                toy,
                scalar_mult(toy, chunk.u1, (priv.x1 + alpha * priv.y1) % toy.n),
                scalar_mult(toy, chunk.u2, (priv.x2 + alpha * priv.y2) % toy.n),
            )
            assert v_dec == chunk.v, f"validity identity broke at r={r}"
            recovered = point_add(
                toy, chunk.e, point_negate(toy, scalar_mult(toy, chunk.u1, priv.z))
            )
            assert recovered == m_point, f"message recovery broke at r={r}"
            assert decrypt_chunk(priv, chunk, header) == m_point
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion("2", "large-message roundtrip")
def check_roundtrip_at_scale():
    started = time.perf_counter()
    secp = get_curve("secp256k1")
    rng = random.Random(0xD0C5)
    priv, pub = keygen(secp, rng)
    for _ in range(100):
        message = rng.randbytes(rng.randrange(1, 4097))
        assert decrypt(priv, encrypt(pub, message, rng)) == message
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion("3", "ciphertext bit-flip rejection")
def check_tamper_rejection():
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0xF11)
    flips = rejections = 0
    for _ in range(50):
        priv, pub = keygen(toy, rng)
        chunk = encrypt_chunk(
            pub, random_toy_point(table, rng), chunk_header(0, 1), sample_scalar(toy.n, rng)
        )
        blob = serialize_ciphertext(Ciphertext(toy.curve_id, (chunk,)))
        for bit in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            flips += 1
            try:
                decrypt(priv, parse_ciphertext(bytes(mutated)))
            except (ParseError, InvalidCiphertext):
                rejections += 1
    assert rejections == flips, f"{flips - rejections} flips of {flips} were accepted"


@criterion("4", "independent decryption oracle agreement")
def check_oracle_equivalence():
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0x0AC1E)
    keys = [keygen(toy, rng) for _ in range(20)]
    for priv, pub in keys:
        assert brute_dlog(table, toy.g1, pub.h) == priv.z
    for _ in range(1000):
        priv, pub = keys[rng.randrange(len(keys))]
        header = chunk_header(rng.randrange(4), 4)
        m_point = random_toy_point(table, rng)
        chunk = encrypt_chunk(pub, m_point, header, sample_scalar(toy.n, rng))
        assert independent_decrypt(table, pub, chunk, header) == decrypt_chunk(
            priv, chunk, header
        )


@criterion("5", "group-law equivalence")
def check_group_law_equivalence():
    toy = get_curve("toy")
    table = toy_table()
    points = [table.to_point(t) for t in table.points]
    order = table.order
    for i, P in enumerate(points):
        row = i * order
        for j, Q in enumerate(points):
            expected = table.points[table.table[row + j]]
            assert as_tuple(point_add(toy, P, Q)) == expected, f"mismatch at {P}, {Q}"
    rng = random.Random(0x9E4)
    for _ in range(10_000):
        P = points[rng.randrange(order)]
        k = rng.randrange(toy.n)
        assert scalar_mult(toy, P, k) == table.mult(P, k)


@criterion("6a", "published encryption operation budget")
def check_published_encrypt_budget():
    """The published per-chunk budget for encryption is four scalar
    multiplications, two point additions and one hash.  The encryption
    equations require five products with the ephemeral scalar (r*G1,
    r*G2, r*H, r*C and (r*alpha)*D), so the measured count is five and
    this check fails.  It is kept red on purpose; the measured count is
    pinned by the neighbouring unit tests.
    """
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0xC0DE)
    _, pub = keygen(toy, rng)
    with count_ops() as ops:
        encrypt_chunk(
            pub, random_toy_point(table, rng), chunk_header(0, 1), sample_scalar(toy.n, rng)
        )
    measured = (ops.scalar_mults, ops.point_adds, ops.hashes)
    assert measured == (4, 2, 1), f"measured {measured}"


@criterion("6b", "decryption operation count")
def check_decrypt_count():
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0xDEC)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, random_toy_point(table, rng), header, sample_scalar(toy.n, rng))
    with count_ops() as ops:
        decrypt_chunk(priv, chunk, header)
    measured = (ops.scalar_mults, ops.point_adds, ops.hashes, ops.negations)
    assert measured == (3, 2, 1, 1), f"measured {measured}"


@criterion("6c", "baseline operation count")
def check_baseline_counts():
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0xE16)
    z, h = bench.elgamal_keygen(toy, rng)
    m_point = random_toy_point(table, rng)
    with count_ops() as ops:
        pair = bench.elgamal_encrypt(toy, h, m_point, rng)
    assert (ops.scalar_mults, ops.point_adds) == (2, 1)
    with count_ops() as ops:
        assert bench.elgamal_decrypt(toy, z, pair) == m_point
    assert (ops.scalar_mults, ops.point_adds) == (1, 1)


@criterion("7", "malleability contrast")
def check_malleability_contrast():
    toy = get_curve("toy")
    table = toy_table()
    rng = random.Random(0x3A11)
    m_point = random_toy_point(table, rng)
    shift = toy.g1

    z, h = bench.elgamal_keygen(toy, rng)
    u, e = bench.elgamal_encrypt(toy, h, m_point, rng)
    mauled = bench.elgamal_decrypt(toy, z, (u, point_add(toy, e, shift)))
    baseline_accepts = mauled == point_add(toy, m_point, shift)

    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, m_point, header, sample_scalar(toy.n, rng))
    mauled_chunk = type(chunk)(chunk.u1, chunk.u2, point_add(toy, chunk.e, shift), chunk.v)
    try:
        decrypt_chunk(priv, mauled_chunk, header)
        scheme_rejects = False
    except InvalidCiphertext:
        scheme_rejects = True

    assert baseline_accepts, "baseline unexpectedly blocked the shifted chunk"
    assert scheme_rejects, "validity check missed the shifted chunk"


@criterion("8", "wire format stability")
def check_wire_stability():
    secp = get_curve("secp256k1")
    rng = random.Random(0x3137E)
    priv, pub = keygen(secp, rng)
    assert len(serialize_public_key(pub)) == 106
    assert len(serialize_private_key(priv)) == 167
    one_chunk = encrypt(pub, b"fits in one chunk", rng)
    assert len(one_chunk.chunks) == 1
    assert len(serialize_ciphertext(one_chunk)) == 143

    # the published 64 B key size is quoted, never asserted against
    assert "64 B" in bench.KEY_SIZE_NOTE
    published = [row for row in bench.LITERATURE_ROWS if row["pub"] == "64 B"]
    assert len(published) == 1

    # plain random bytes: essentially never carry a valid envelope, so
    # every input must fail cleanly; structured mutations of valid
    # serializations are fuzzed separately in the wire tests
    parsers = (parse_public_key, parse_private_key, parse_ciphertext)
    for seed, parser in zip((101, 202, 303), parsers):
        fuzz = random.Random(seed)
        for _ in range(100_000):
            blob = fuzz.randbytes(fuzz.randrange(0, 200))
            try:
                parser(blob)
            except ParseError:
                continue
            raise AssertionError(f"{parser.__name__} accepted fuzz input {blob!r}")


@criterion("9", "hash known-answer vectors")
def check_hash_kats():
    vectors = (
        (b"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"),
        (b"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376",
        ),
    )
    assert len(vectors) >= 3 and vectors[0][0] == b""
    for message, digest in vectors:
        assert hashlib.sha3_256(message).hexdigest() == digest


@criterion("10", "command-line contract")
def check_cli_contract():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "eccs", *[str(a) for a in args]],
            capture_output=True,
            text=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        pub = os.path.join(tmp, "pk")
        priv = os.path.join(tmp, "sk")
        priv2 = os.path.join(tmp, "sk2")
        msg = os.path.join(tmp, "msg")
        ct = os.path.join(tmp, "ct")
        out = os.path.join(tmp, "out")
        with open(msg, "wb") as handle:
            handle.write(b"end to end through the command line")

        assert run("keygen", "--pub", pub, "--priv", priv).returncode == 0
        assert run("encrypt", "--pub", pub, "--in", msg, "--out", ct).returncode == 0
        assert run("decrypt", "--priv", priv, "--in", ct, "--out", out).returncode == 0
        with open(out, "rb") as handle:
            assert handle.read() == b"end to end through the command line"

        with open(ct, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 1
        bad = os.path.join(tmp, "bad")
        with open(bad, "wb") as handle:
            handle.write(bytes(blob))
        flipped = run("decrypt", "--priv", priv, "--in", bad, "--out", out + ".x")
        assert flipped.returncode == 4
        assert flipped.stderr == "error: invalid ciphertext\n"

        assert run("keygen", "--pub", pub + "2", "--priv", priv2).returncode == 0
        wrong = run("decrypt", "--priv", priv2, "--in", ct, "--out", out + ".y")
        assert wrong.returncode == 4
        assert wrong.stderr == "error: invalid ciphertext\n"


# --- pytest entry points --------------------------------------------------


def test_criterion_1():
    run_criterion("1")


def test_criterion_2():
    run_criterion("2")


def test_criterion_3():
    run_criterion("3")


def test_criterion_4():
    run_criterion("4")


def test_criterion_5():
    run_criterion("5")


def test_criterion_6a_expected_red():
    """Pins the published budget of 4 scalar multiplications; the
    equations need 5, so this stays red rather than bending the check."""
    run_criterion("6a")


def test_criterion_6b():
    run_criterion("6b")


def test_criterion_6c():
    run_criterion("6c")


def test_criterion_7():
    run_criterion("7")


def test_criterion_8():
    run_criterion("8")


def test_criterion_9():
    run_criterion("9")


def test_criterion_10():
    run_criterion("10")


if __name__ == "__main__":
    failed = []
    for number in CHECKS:
        try:
            run_criterion(number)
        except BaseException as exc:
            failed.append((number, exc))
    print()
    total = len(CHECKS)
    print(f"{total - len(failed)} of {total} criteria passed")
    for number, exc in failed:
        detail = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"  criterion {number}: {detail}")
    sys.exit(1 if failed else 0)
