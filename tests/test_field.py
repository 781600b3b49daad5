import random

import pytest

from eccs.field import FieldElement, MILLER_RABIN_ROUNDS, PrimeField, is_probable_prime

P_3MOD4 = 1051
P2_3MOD4 = 1063
P_1MOD4 = 1033  # 1033 % 4 == 1: square roots are refused
SECP_P = 2**256 - 2**32 - 977


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(1050)
    with pytest.raises(ValueError):
        PrimeField(1051 * 1033)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_primality_check_can_be_skipped_for_trusted_moduli():
    f = PrimeField(SECP_P, check_prime=False)
    assert f.modulus == SECP_P


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
    f = PrimeField(P_3MOD4)
    assert f(P_3MOD4).value == 0
    assert f(-1).value == P_3MOD4 - 1
    assert f(2 * P_3MOD4 + 5).value == 5
    with pytest.raises(ValueError):
        FieldElement(P_3MOD4, f)
    with pytest.raises(ValueError):
        FieldElement(-1, f)


def test_int_operands_are_coerced():
    f = PrimeField(P_3MOD4)
    assert f(7) == 7
    assert f(7) == 7 + P_3MOD4


def test_mixed_moduli_rejected():
    a = PrimeField(P_3MOD4)(5)
    b = PrimeField(P_1MOD4)(5)
    assert a != b


def test_elements_are_immutable_and_hashable():
    f = PrimeField(P_3MOD4)
    x = f(42)
    with pytest.raises(AttributeError):
        x.value = 1
    assert len({f(1), f(1), f(2)}) == 2


@pytest.mark.parametrize("p", [P_3MOD4, P2_3MOD4, 19, 23])
def test_sqrt_of_square_returns_even_root(p):
    f = PrimeField(p)
    for v in range(p):
        sq = f(v * v)
        root = sq.sqrt()
        assert root.value in (v, p - v)
        assert f(root.value * root.value) == sq
        if root.value != 0:
            assert root.value % 2 == 0


@pytest.mark.parametrize("p", [P_1MOD4, 13, 17])
def test_sqrt_refuses_fields_not_3_mod_4(p):
    # no root at all rather than a wrong one, for squares and non-squares
    f = PrimeField(p)
    for v in range(p):
        with pytest.raises(ValueError, match="p % 4 == 3"):
            f(v).sqrt()


@pytest.mark.parametrize("p", [P_3MOD4, P_1MOD4])
def test_is_square_matches_exhaustive_squares(p):
    f = PrimeField(p)
    squares = {v * v % p for v in range(p)}
    for v in range(p):
        assert f(v).is_square() == (v in squares)


def test_sqrt_of_nonresidue_raises():
    f = PrimeField(P_3MOD4)
    for v in range(P_3MOD4):
        if not f(v).is_square():
            with pytest.raises(ValueError):
                f(v).sqrt()
            break
    f2 = PrimeField(P2_3MOD4)
    for v in range(P2_3MOD4):
        if not f2(v).is_square():
            with pytest.raises(ValueError):
                f2(v).sqrt()
            break


def test_sqrt_large_field_fast_path():
    # secp256k1's prime is 3 mod 4
    assert SECP_P % 4 == 3
    rng = random.Random(1234)
    f = PrimeField(SECP_P, check_prime=False)
    for _ in range(25):
        v = rng.randrange(SECP_P)
        root = f(v * v).sqrt()
        assert f(root.value * root.value) == f(v * v)
        assert root.value % 2 == 0 or root.value == 0


def test_sqrt_zero_is_zero():
    for p in (P_3MOD4, P2_3MOD4):
        f = PrimeField(p)
        assert f(0).sqrt().value == 0


def test_to_bytes_fixed_width_roundtrip():
    f = PrimeField(P_3MOD4)
    assert f.width == 2
    assert f(1).to_bytes() == b"\x00\x01"
    assert f.from_bytes(b"\x00\x01") == f(1)
    big = PrimeField(SECP_P, check_prime=False)
    assert big.width == 32
    rng = random.Random(5)
    for _ in range(200):
        x = big(rng.randrange(SECP_P))
        assert big.from_bytes(x.to_bytes()) == x
        assert len(x.to_bytes()) == 32


def test_from_bytes_rejects_bad_input():
    f = PrimeField(P_3MOD4)
    with pytest.raises(ValueError):
        f.from_bytes(b"\x01")  # wrong width
    with pytest.raises(ValueError):
        f.from_bytes(b"\x00\x01\x02")
    with pytest.raises(ValueError):
        f.from_bytes((P_3MOD4).to_bytes(2, "big"))  # == modulus, not reduced


def test_field_equality_and_repr():
    assert PrimeField(P_3MOD4) == PrimeField(P_3MOD4)
    assert PrimeField(P_3MOD4) != PrimeField(P_1MOD4)
    assert hash(PrimeField(P_3MOD4)) == hash(PrimeField(P_3MOD4))
    assert "0x41b" in repr(PrimeField(P_3MOD4))
