"""Prime-field helpers: a primality test, the one square-root rule and
the package's one entropy source.

Field values are plain ints reduced mod p everywhere in the package.
``FieldElement`` only carries a value and its modulus to the Euler
criterion and the square root, so every such call in the package goes
through one place.  ``_SYSTEM_RNG`` draws from the operating system's
entropy (``os.urandom``) and serves every random value the package
picks: Miller-Rabin bases, inversion blinds and the default scalars.
"""

from __future__ import annotations

import random

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# 64 rounds keeps the error probability of accepting a composite below
# 4**-64 even for adversarially chosen moduli.
MILLER_RABIN_ROUNDS = 64

_SYSTEM_RNG = random.SystemRandom()


def is_probable_prime(n: int) -> bool:
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
    for _ in range(MILLER_RABIN_ROUNDS):
        a = _SYSTEM_RNG.randrange(2, n - 1)
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


class FieldElement:
    """An int reduced mod p, carried to ``is_square`` or ``sqrt``."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        self.value = value % modulus
        self.modulus = modulus

    def is_square(self) -> bool:
        """Euler criterion; zero counts as a square."""
        p = self.modulus
        return self.value == 0 or pow(self.value, (p - 1) // 2, p) == 1

    def sqrt(self) -> int:
        """Canonical square root: of the two roots r and p - r, the even one.

        Only moduli with p % 4 == 3, the curve fields of this package, are
        served: the root is v**((p + 1) / 4), checked by squaring it.
        Raises ``ValueError`` for quadratic non-residues and for every
        value under any other modulus.  The canonical choice makes point
        decompression and the deterministic generator derivation
        reproducible everywhere.
        """
        p = self.modulus
        if p % 4 != 3:
            raise ValueError("square roots need a field with p % 4 == 3")
        v = self.value
        root = pow(v, (p + 1) // 4, p)
        if root * root % p != v:
            raise ValueError("element is not a quadratic residue")
        return p - root if root % 2 else root
