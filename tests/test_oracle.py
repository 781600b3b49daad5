import random

import pytest

from eccs import ecs, oracle
from eccs.curve import (
    IDENTITY,
    count_ops,
    point_add,
    point_negate,
    scalar_mult,
)
from eccs.ecs import (
    CiphertextChunk,
    chunk_header,
    decrypt_chunk,
    encrypt_chunk,
    keygen,
    sample_scalar,
)
from eccs.errors import InvalidCiphertext
from eccs.oracle import (
    brute_dlog,
    enumerate_points,
    independent_decrypt,
    independent_decrypt_with_key,
)


@pytest.fixture(scope="module")
def table(toy):
    return enumerate_points(toy)


def test_enumeration_refuses_large_curves(secp):
    with pytest.raises(ValueError):
        enumerate_points(secp)


def test_enumeration_finds_whole_group(toy, table):
    assert table.order == toy.n
    assert table.points[0] is None  # identity first
    # every claimed point satisfies the curve equation
    for t in table.points[1:]:
        x, y = t
        assert y * y % toy.p == (x * x * x + toy.b) % toy.p


def test_enumeration_detects_wrong_order(toy, alt):
    # alt has p = 1063 < 2**20, so enumeration runs and must agree with n
    t = enumerate_points(alt)
    assert t.order == alt.n


def test_table_add_matches_group_law(toy, table):
    rng = random.Random(0xACE)
    pts = [table.to_point(t) for t in table.points]
    for _ in range(3000):
        P = rng.choice(pts)
        Q = rng.choice(pts)
        assert table.add(P, Q) == point_add(toy, P, Q)


def test_table_add_identity_and_inverse_rows(toy, table):
    g = toy.g1
    assert table.add(g, IDENTITY) == g
    assert table.add(IDENTITY, IDENTITY) == IDENTITY
    assert table.add(g, table.negate(g)) == IDENTITY
    assert table.negate(IDENTITY) == IDENTITY


def test_table_mult_is_repeated_addition(toy, table):
    rng = random.Random(0xBEE)
    for _ in range(50):
        k = rng.randrange(toy.n)
        assert table.mult(toy.g1, k) == scalar_mult(toy, toy.g1, k)
    assert table.mult(toy.g1, 0) == IDENTITY
    with pytest.raises(ValueError):
        table.mult(toy.g1, toy.n)


def test_table_negate_matches_group(toy, table):
    rng = random.Random(0xCAB)
    pts = [table.to_point(t) for t in table.points]
    for _ in range(100):
        P = rng.choice(pts)
        assert table.negate(P) == point_negate(toy, P)


def test_index_of_rejects_foreign_points(toy, table, secp):
    with pytest.raises(KeyError):
        table.index_of(secp.g1)


def test_brute_dlog_recovers_scalars(toy, table):
    rng = random.Random(0xD06)
    for _ in range(40):
        k = rng.randrange(toy.n)
        P = scalar_mult(toy, toy.g1, k)
        assert brute_dlog(table, toy.g1, P) == k
    assert brute_dlog(table, toy.g1, IDENTITY) == 0
    assert brute_dlog(table, toy.g2, scalar_mult(toy, toy.g2, 777)) == 777


def test_brute_dlog_recovers_private_z(toy, table):
    rng = random.Random(0xD07)
    priv, pub = keygen(toy, rng)
    assert brute_dlog(table, toy.g1, pub.h) == priv.z


def test_independent_decrypt_agrees_with_scheme(toy, table):
    rng = random.Random(0x1DE)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    for k in range(1, 40):
        m = scalar_mult(toy, toy.g1, k)
        chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
        assert independent_decrypt(table, pub, chunk, header) == m
        assert decrypt_chunk(priv, chunk, header) == m


def test_independent_decrypt_never_touches_private_key(toy, table):
    # the oracle only ever sees the public key; its answer still matches
    rng = random.Random(0x1DF)
    priv, pub = keygen(toy, rng)
    header = chunk_header(2, 5)
    m = scalar_mult(toy, toy.g2, 345)
    chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    assert independent_decrypt(table, pub, chunk, header) == m


def test_independent_decrypt_rejects_tampering(toy, table):
    rng = random.Random(0x1E0)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    m = scalar_mult(toy, toy.g1, 25)
    chunk = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    mauled = CiphertextChunk(chunk.u1, chunk.u2, point_add(toy, chunk.e, toy.g1), chunk.v)
    with pytest.raises(ValueError):
        independent_decrypt(table, pub, mauled, header)
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, mauled, header)
    # wrong header also fails in both implementations
    with pytest.raises(ValueError):
        independent_decrypt(table, pub, chunk, chunk_header(1, 2))
    with pytest.raises(InvalidCiphertext):
        decrypt_chunk(priv, chunk, chunk_header(1, 2))


def test_independent_decrypt_rejects_u2_forgery(toy, table):
    rng = random.Random(0x1E1)
    _, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, toy.g1, header, sample_scalar(toy.n, rng))
    forged = CiphertextChunk(chunk.u1, point_add(toy, chunk.u2, toy.g2), chunk.e, chunk.v)
    with pytest.raises(ValueError):
        independent_decrypt(table, pub, forged, header)


def test_independent_decrypt_rejects_identity_forgery(toy, table):
    # r = 0 makes u1 = u2 = v = identity, which every key would accept
    _, pub = keygen(toy, random.Random(0x1E3))
    forged = CiphertextChunk(IDENTITY, IDENTITY, toy.g1, IDENTITY)
    with pytest.raises(ValueError, match="identity"):
        independent_decrypt(table, pub, forged, chunk_header(0, 1))


def test_oracle_uses_no_group_ops_from_package(toy, table):
    # table queries must not route through curve.point_add / scalar_mult
    rng = random.Random(0x1E2)
    _, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    chunk = encrypt_chunk(pub, toy.g1, header, sample_scalar(toy.n, rng))
    with count_ops() as ops:
        table.add(toy.g1, toy.g2)
        table.mult(toy.g1, 500)
        brute_dlog(table, toy.g1, pub.h)
        independent_decrypt(table, pub, chunk, header)
    assert ops.point_adds == 0
    assert ops.scalar_mults == 0
    assert ops.negations == 0
    # the hash label is restated: the same bytes, not the scheme's object
    assert oracle._HASH_LABEL == ecs._HASH_LABEL and oracle._HASH_LABEL is not ecs._HASH_LABEL


def _verdict(decrypt, *args):
    """The plaintext point, or None where ``decrypt`` refuses."""
    try:
        return decrypt(*args)
    except (InvalidCiphertext, ValueError):
        return None


def test_every_substitution_gets_the_key_holding_oracles_verdict(toy, table):
    """Every group element in turn at each of u1, u2, e and v of one
    honest chunk: ``decrypt_chunk`` and the key-holding oracle give the
    same verdict and plaintext, and the public-key oracle accepts a
    subset of those."""
    rng = random.Random(0x5B)
    priv, pub = keygen(toy, rng)
    header = chunk_header(0, 1)
    m = scalar_mult(toy, toy.g1, 777)
    honest = encrypt_chunk(pub, m, header, sample_scalar(toy.n, rng))
    accepted = {}
    for position in ("u1", "u2", "e", "v"):
        accepted[position] = 0
        for t in table.points:
            point = table.to_point(t)
            chunk = CiphertextChunk(
                *(point if name == position else getattr(honest, name) for name in ("u1", "u2", "e", "v"))
            )
            got = _verdict(decrypt_chunk, priv, chunk, header)
            assert got == _verdict(independent_decrypt_with_key, table, priv, chunk, header), (position, t)
            public = _verdict(independent_decrypt, table, pub, chunk, header)
            assert public is None or public == got, (position, t)
            if got is not None:
                accepted[position] += 1
                if point == getattr(honest, position):
                    assert got == m and public == m
    # the honest chunk itself, plus chance acceptances at about 1 in 1093
    assert all(1 <= count <= 6 for count in accepted.values()), accepted
    assert accepted["v"] == 1  # v is compared, not hashed: only the honest v passes
