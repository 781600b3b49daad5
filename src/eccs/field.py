"""Prime fields for curve coordinates and scalars.

A ``PrimeField`` fixes the modulus; its elements are immutable and always
hold a canonical representative in ``[0, modulus)``.  The same machinery
serves both the coordinate field of a curve and the scalar field modulo
the group order.
"""

from __future__ import annotations

import secrets

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# 64 rounds keeps the error probability of accepting a composite below
# 4**-64 even for adversarially chosen moduli.
MILLER_RABIN_ROUNDS = 64


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin primality test with uniformly random bases."""
    if n < 2:
        return False
    for small in _SMALL_PRIMES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = 2 + secrets.randbelow(n - 3)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic context modulo a fixed odd prime ``p > 3``.

    Construction verifies primality (Miller-Rabin, 64 rounds) unless the
    caller opts out for modulus values that are already trusted.
    """

    __slots__ = ("modulus", "width")

    def __init__(self, modulus: int, *, check_prime: bool = True) -> None:
        if not isinstance(modulus, int) or modulus <= 3 or modulus % 2 == 0:
            raise ValueError(f"modulus must be an odd prime > 3, got {modulus!r}")
        if check_prime and not is_probable_prime(modulus):
            raise ValueError(f"modulus {modulus:#x} failed the primality test")
        self.modulus = modulus
        # Fixed byte width used for all serialized elements of this field.
        self.width = (modulus.bit_length() + 7) // 8

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimeField):
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus:#x})"

    def from_bytes(self, data: bytes) -> "FieldElement":
        """Decode a fixed-width big-endian element; rejects out-of-range values."""
        if len(data) != self.width:
            raise ValueError(f"expected {self.width} bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        if value >= self.modulus:
            raise ValueError("encoded value is not reduced modulo the field prime")
        return FieldElement(value, self)


class FieldElement:
    """Immutable element of a ``PrimeField``: a canonical value and its field.

    It has no arithmetic operators; curve points hold plain ints.  It
    serves the Euler criterion, square roots and the fixed-width encoding.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField) -> None:
        if not 0 <= value < field.modulus:
            raise ValueError(f"value {value} outside [0, {field.modulus})")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return (
                self.value == other.value
                and self.field.modulus == other.field.modulus
            )
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.modulus))

    def __repr__(self) -> str:
        return f"FieldElement({self.value:#x} mod {self.field.modulus:#x})"

    def is_square(self) -> bool:
        """Euler criterion; zero counts as a square."""
        if self.value == 0:
            return True
        p = self.field.modulus
        return pow(self.value, (p - 1) // 2, p) == 1

    def sqrt(self) -> "FieldElement":
        """Canonical square root: of the two roots r and p - r, the even one.

        Only fields with p % 4 == 3, the curve fields of this package, are
        served: the root is v**((p + 1) / 4), checked by squaring it.
        Raises ``ValueError`` for quadratic non-residues and for every
        element of any other field.  The canonical choice makes point
        decompression and the deterministic generator derivation
        reproducible everywhere.
        """
        p = self.field.modulus
        if p % 4 != 3:
            raise ValueError("square roots need a field with p % 4 == 3")
        v = self.value
        root = pow(v, (p + 1) // 4, p)
        if root * root % p != v:
            raise ValueError("element is not a quadratic residue")
        if root % 2 == 1:
            root = p - root
        return self.field(root)

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding; width is a property of the field."""
        return self.value.to_bytes(self.field.width, "big")
