"""Cramer-Shoup public-key encryption on short-Weierstrass elliptic curves.

The package provides the full pipeline: field arithmetic on plain ints
with one carrier for the Euler test and square roots, complete curve
group law with constant-shape scalar multiplication, message-to-point
encoding, the encryption scheme itself, deterministic wire formats, a
benchmark harness with an ElGamal baseline, and a brute-force
verification oracle for small curves.
"""

from .curve import CurveParams, CurvePoint, curve_by_id, get_curve
from .ecs import (
    Ciphertext,
    CiphertextChunk,
    PrivateKey,
    PublicKey,
    decrypt,
    encrypt,
    keygen,
)
from .errors import InvalidCiphertext, ParseError

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "CurvePoint",
    "Ciphertext",
    "CiphertextChunk",
    "PrivateKey",
    "PublicKey",
    "InvalidCiphertext",
    "ParseError",
    "curve_by_id",
    "decrypt",
    "encrypt",
    "get_curve",
    "keygen",
]
