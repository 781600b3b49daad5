import random

import pytest

from eccs.curve import CurveParams
from eccs.field import FieldElement, MILLER_RABIN_ROUNDS, is_probable_prime

P_3MOD4 = 1051
P2_3MOD4 = 1063
P_1MOD4 = 1033  # 1033 % 4 == 1: square roots are refused
SECP_P = 2**256 - 2**32 - 977
TOY_ARGS = dict(
    curve_id=0x60,
    name="toy",
    p=1051,
    b=7,
    n=1093,
    g1=(3, 666),
    g2=(1033, 592),
    beta=180,
    lam=941,
)


def test_modulus_must_be_prime():
    # a curve checks both of its moduli, p and n, when it is built
    for key in ("p", "n"):
        for bad in (1050, 1094, 2, 3, -7, None):
            with pytest.raises(ValueError, match="odd prime > 3"):
                CurveParams(**{**TOY_ARGS, key: bad})
        for bad in (1051 * 1033, 9):
            with pytest.raises(ValueError, match="primality"):
                CurveParams(**{**TOY_ARGS, key: bad})


def test_is_probable_prime_known_values():
    assert is_probable_prime(1051)
    assert is_probable_prime(1093)
    assert is_probable_prime(SECP_P)
    assert not is_probable_prime(1)
    assert not is_probable_prime(1051 * 1093)
    # Carmichael numbers fool Fermat but not Miller-Rabin.
    assert not is_probable_prime(561)
    assert not is_probable_prime(41041)
    assert MILLER_RABIN_ROUNDS >= 64


def test_construction_reduces_to_canonical_range():
    assert FieldElement(P_3MOD4, P_3MOD4).value == 0
    assert FieldElement(-1, P_3MOD4).value == P_3MOD4 - 1
    assert FieldElement(2 * P_3MOD4 + 5, P_3MOD4).value == 5
    assert FieldElement(5, P_3MOD4).modulus == P_3MOD4


@pytest.mark.parametrize("p", [P_3MOD4, P2_3MOD4, 19, 23])
def test_sqrt_of_square_returns_even_root(p):
    for v in range(p):
        root = FieldElement(v * v, p).sqrt()
        assert type(root) is int
        assert root in (v, p - v)
        assert root * root % p == v * v % p
        if root != 0:
            assert root % 2 == 0


@pytest.mark.parametrize("p", [P_1MOD4, 13, 17])
def test_sqrt_refuses_fields_not_3_mod_4(p):
    # no root at all rather than a wrong one, for squares and non-squares
    for v in range(p):
        with pytest.raises(ValueError, match="p % 4 == 3"):
            FieldElement(v, p).sqrt()


@pytest.mark.parametrize("p", [P_3MOD4, P_1MOD4])
def test_is_square_matches_exhaustive_squares(p):
    squares = {v * v % p for v in range(p)}
    for v in range(p):
        assert FieldElement(v, p).is_square() is (v in squares)


def test_sqrt_of_nonresidue_raises():
    for p in (P_3MOD4, P2_3MOD4):
        for v in range(p):
            if not FieldElement(v, p).is_square():
                with pytest.raises(ValueError):
                    FieldElement(v, p).sqrt()
                break


def test_sqrt_large_field_fast_path():
    # secp256k1's prime is 3 mod 4
    assert SECP_P % 4 == 3
    rng = random.Random(1234)
    for _ in range(25):
        v = rng.randrange(SECP_P)
        root = FieldElement(v * v, SECP_P).sqrt()
        assert root * root % SECP_P == v * v % SECP_P
        assert root % 2 == 0 or root == 0


def test_sqrt_zero_is_zero():
    for p in (P_3MOD4, P2_3MOD4):
        assert FieldElement(0, p).sqrt() == 0
