"""Small independent reference implementations used by the unit tests.

The affine chord-and-tangent routines here deliberately share no code
with the package: inversions use the extended Euclid algorithm and the
group law is the textbook case split, so agreement with the projective
formulas is meaningful.  ``reference_keygen`` and ``reference_encrypt``
build key and ciphertext bytes from these routines and ``hashlib`` alone.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from hypothesis import strategies as st


def egcd_inverse(v: int, p: int) -> int:
    old_r, r = v % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise ZeroDivisionError(f"{v} not invertible mod {p}")
    return old_s % p


def aff_add(p: int, a: int, P, Q):
    """Affine addition; points are (x, y) tuples, None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * egcd_inverse(2 * y1, p) % p
    else:
        lam = (y2 - y1) * egcd_inverse(x2 - x1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def aff_mul(p: int, a: int, P, k: int):
    """Double-and-add on affine tuples."""
    result = None
    addend = P
    while k:
        if k & 1:
            result = aff_add(p, a, result, addend)
        addend = aff_add(p, a, addend, addend)
        k >>= 1
    return result


def as_tuple(point):
    """CurvePoint -> (x, y) tuple or None."""
    if point.is_identity:
        return None
    return point.x, point.y


def held_by(params, point):
    """point's use count as a base under params (0 for none), or its fixed-base table.

    The one place the tests read where ``curve._fixed_table`` keeps them:
    a private slot of the point object, under the curve's spec.
    """
    spec, held = getattr(point, "_table", (params._spec, 0))
    return held if spec == params._spec else 0


class CallCounter(Counter):
    """Calls per name, made through the wrappers ``wrap`` returns.

    The shape tests patch a primitive with ``wrap(name, fn)`` and read
    ``counter[name]``; ``clear`` starts a new tally.
    """

    def wrap(self, name, fn):
        def wrapper(*args):
            self[name] += 1
            return fn(*args)

        return wrapper


def reference_encode(p: int, b: int, capacity: int, data: bytes):
    """(x, y) of the try-and-increment chunk encoding on y^2 = x^3 + b, p % 4 == 3.

    x is [pad][length][data][zero fill] for the smallest pad that puts x
    below p with x^3 + b a square by Euler's criterion; y is the even one
    of its two roots.  None when all 256 pads fail.
    """
    body = bytes([len(data)]) + data + bytes(capacity - len(data))
    for pad in range(256):
        x = int.from_bytes(bytes([pad]) + body, "big")
        if x >= p:
            continue
        rhs = (x * x * x + b) % p
        if rhs and pow(rhs, (p - 1) // 2, p) != 1:
            continue
        y = pow(rhs, (p + 1) // 4, p)
        return x, y if y % 2 == 0 else p - y
    return None


# The scheme restated from its description, for byte-level comparison.
# Scalars are drawn by rejection like the package's sampler, so the same
# seeded rng yields the same keys and ciphertexts.
_ENVELOPE = b"ECS1\x01"  # magic and format version
_HASH_LABEL = b"ECCS-v1-alpha"


def _reference_scalar(n: int, rng) -> int:
    while True:
        k = rng.getrandbits(n.bit_length())
        if 1 <= k < n:
            return k


def _reference_compress(p: int, point) -> bytes:
    if point is None:
        return b"\x00"
    x, y = point
    return bytes([2 + y % 2]) + x.to_bytes((p.bit_length() + 7) // 8, "big")


def reference_keygen(spec: dict, rng):
    """((c, d, h), public key bytes) for a registry spec, drawing x1, x2, y1, y2, z."""
    p, n, g1, g2 = spec["p"], spec["n"], spec["g1"], spec["g2"]
    x1, x2, y1, y2, z = (_reference_scalar(n, rng) for _ in range(5))
    c = aff_add(p, 0, aff_mul(p, 0, g1, x1), aff_mul(p, 0, g2, x2))
    d = aff_add(p, 0, aff_mul(p, 0, g1, y1), aff_mul(p, 0, g2, y2))
    h = aff_mul(p, 0, g1, z)
    body = b"".join(_reference_compress(p, point) for point in (c, d, h))
    return (c, d, h), _ENVELOPE + bytes([0x01, spec["curve_id"]]) + body


def reference_encrypt(spec: dict, public, message: bytes, rng) -> bytes:
    """Ciphertext bytes of message under public = (c, d, h).

    Every chunk's r is drawn, in chunk order, before any chunk is built;
    alpha hashes the label, curve id, chunk index and count, and the
    compressed u1, u2 and e.
    """
    p, b, n, g1, g2 = spec["p"], spec["b"], spec["n"], spec["g1"], spec["g2"]
    c, d, h = public
    capacity = (p.bit_length() - 16) // 8
    pieces = [message[i : i + capacity] for i in range(0, len(message), capacity)] or [b""]
    total = len(pieces)
    rs = [_reference_scalar(n, rng) for _ in pieces]
    body = [total.to_bytes(4, "big")]
    for index, (piece, r) in enumerate(zip(pieces, rs)):
        u1 = aff_mul(p, 0, g1, r)
        u2 = aff_mul(p, 0, g2, r)
        e = aff_add(p, 0, aff_mul(p, 0, h, r), reference_encode(p, b, capacity, piece))
        points = [_reference_compress(p, point) for point in (u1, u2, e)]
        header = bytes([spec["curve_id"]]) + index.to_bytes(4, "big") + total.to_bytes(4, "big")
        digest = hashlib.sha3_256(_HASH_LABEL + header + b"".join(points)).digest()
        alpha = int.from_bytes(digest, "big") % n
        v = aff_add(p, 0, aff_mul(p, 0, c, r), aff_mul(p, 0, d, r * alpha % n))
        body += points + [_reference_compress(p, v)]
    return _ENVELOPE + bytes([0x03, spec["curve_id"]]) + b"".join(body)


class SeqRng:
    """rng stand-in that replays a fixed list of integers.

    ``getrandbits`` returns the next queued value regardless of the
    requested width, letting tests pin exact secret scalars (values are
    chosen in range, so rejection sampling accepts them first try).
    """

    def __init__(self, values):
        self._values = list(values)

    def getrandbits(self, _nbits: int) -> int:
        if not self._values:
            raise AssertionError("SeqRng ran out of queued values")
        return self._values.pop(0)


@st.composite
def byte_mutation(draw, blob):
    """(kind, blob) with one substitution, truncation or extension of blob.

    Works on bytes and on str alike: an extension or substitute is drawn
    as the same type as blob.
    """
    kind = draw(st.sampled_from(["substitute", "truncate", "extend"]))
    pieces = st.text if isinstance(blob, str) else st.binary
    if kind == "truncate":
        return kind, blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return kind, blob + draw(pieces(min_size=1, max_size=40))
    i = draw(st.integers(0, len(blob) - 1))
    return kind, blob[:i] + draw(pieces(min_size=1, max_size=1)) + blob[i + 1 :]
