"""Brute-force reference implementation for small curves.

Everything here is computed the slow, obvious way and shares no
arithmetic with :mod:`eccs.curve` or :mod:`eccs.ecs`: affine
chord-and-tangent addition with extended-Euclid inversion, point
enumeration by tabulating squares, scalar multiplication by literal
repeated addition, and discrete logs by linear scan.  Agreement between
this module and the real implementation is therefore evidence, not
tautology.

Only curves with p below 2**20 are accepted; the point of the oracle is
exhaustive verification, which is meaningless at cryptographic sizes.
"""

from __future__ import annotations

from array import array

try:
    from _sha3 import sha3_256
except ImportError:  # FIPS-configured CPython builds have no builtin SHA3
    from hashlib import sha3_256

from .curve import CurveParams, CurvePoint, IDENTITY

_MAX_P_BITS = 20

# Must byte-for-byte match the scheme's hash inputs; deliberately
# restated here rather than imported so a drift in either place shows up
# as an oracle/scheme disagreement in the tests.
_HASH_LABEL = b"ECCS-v1-alpha"


def _egcd_inverse(value: int, p: int) -> int:
    old_r, r = value % p, p
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise ZeroDivisionError(f"{value} has no inverse mod {p}")
    return old_s % p


class GroupTable:
    """Fully materialized group: point list plus an n-by-n addition table.

    Points are ordered identity first, then by (x, y); the table stores
    point indices in a flat ``array('H')``.  All group queries after
    construction are pure lookups.
    """

    def __init__(self, params: CurveParams, points: list, table: array) -> None:
        self.params = params
        self.points = points
        self.index = {pt: i for i, pt in enumerate(points)}
        self.table = table
        self.order = len(points)

    def index_of(self, point: CurvePoint) -> int:
        """Index of a package-level point; KeyError if not in the group."""
        return self.index[_as_tuple(point)]

    def add_indices(self, i: int, j: int) -> int:
        return self.table[i * self.order + j]

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        result = self.add_indices(self.index_of(P), self.index_of(Q))
        return self.to_point(self.points[result])

    def mult(self, P: CurvePoint, k: int) -> CurvePoint:
        """k-fold repeated addition, one table lookup per step."""
        if not 0 <= k < self.params.n:
            raise ValueError("scalar outside [0, n)")
        base = self.index_of(P)
        acc = 0  # identity
        for _ in range(k):
            acc = self.table[acc * self.order + base]
        return self.to_point(self.points[acc])

    def negate(self, P: CurvePoint) -> CurvePoint:
        t = _as_tuple(P)
        if t is None:
            return IDENTITY
        x, y = t
        return self.to_point((x, (self.params.p - y) % self.params.p))

    def to_point(self, t) -> CurvePoint:
        if t is None:
            return IDENTITY
        return self.params.point(t[0], t[1])


def _as_tuple(point: CurvePoint):
    if point.is_identity:
        return None
    return point.x, point.y


def enumerate_points(params: CurveParams) -> GroupTable:
    """Find every point by tabulating squares, then build the addition table."""
    p = params.p
    if p.bit_length() > _MAX_P_BITS:
        raise ValueError(f"refusing exhaustive enumeration for p >= 2**{_MAX_P_BITS}")
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points: list = [None]
    for x in range(p):
        rhs = (x * x % p * x + params.b) % p
        for y in roots.get(rhs, ()):
            points.append((x, y))
    order = len(points)
    if order != params.n:
        raise ValueError(f"enumeration found {order} points, parameters claim {params.n}")
    # inverse table amortizes the egcd cost across the n^2 additions
    inverses = [0] * p
    for v in range(1, p):
        inverses[v] = _egcd_inverse(v, p)

    def fast_add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            slope = 3 * x1 * x1 * inverses[2 * y1 % p] % p
        else:
            slope = (y2 - y1) * inverses[(x2 - x1) % p] % p
        x3 = (slope * slope - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    index = {pt: i for i, pt in enumerate(points)}
    table = array("H", bytes(2 * order * order))
    for i, P in enumerate(points):
        row = i * order
        for j, Q in enumerate(points):
            table[row + j] = index[fast_add(P, Q)]
    return GroupTable(params, points, table)


def brute_dlog(table: GroupTable, base: CurvePoint, target: CurvePoint) -> int:
    """Smallest k with k * base == target, by linear scan."""
    base_idx = table.index_of(base)
    target_idx = table.index_of(target)
    acc = 0
    for k in range(table.order):
        if acc == target_idx:
            return k
        acc = table.add_indices(acc, base_idx)
    raise ValueError("target not in the subgroup generated by base")


def _compress_tuple(t, width: int) -> bytes:
    if t is None:
        return b"\x00"
    x, y = t
    return bytes([0x02 + (y & 1)]) + x.to_bytes(width, "big")


def _alpha(params: CurveParams, header: bytes, u1, u2, e) -> int:
    """The binding hash of a chunk, from its points as tuples, with the
    oracle's own point serialization."""
    width = (params.p.bit_length() + 7) // 8
    digest = sha3_256(
        _HASH_LABEL
        + bytes([params.curve_id])
        + header
        + _compress_tuple(u1, width)
        + _compress_tuple(u2, width)
        + _compress_tuple(e, width)
    ).digest()
    return int.from_bytes(digest, "big") % params.n


def _chunk_tuples(table: GroupTable, chunk) -> tuple:
    """The chunk's u1, u2, e and v as tuples; ``ValueError`` for a point outside the group."""
    points = tuple(_as_tuple(pt) for pt in (chunk.u1, chunk.u2, chunk.e, chunk.v))
    for t in points:
        if t is not None and t not in table.index:
            raise ValueError("point outside the group")
    return points


def independent_decrypt(table: GroupTable, pub, chunk, header: bytes) -> CurvePoint:
    """Decrypt a chunk using only the public key and exhaustive search.

    Recovers the ephemeral scalar r from u1 and the receiver scalar z
    from h by brute-force discrete log, re-derives the binding hash with
    its own point serialization, checks u2 and the validity point, and
    unmasks the message.  Raises ``ValueError`` on any inconsistency,
    and for r = 0 (an identity u1), which no honest encryption makes.
    """
    params = table.params
    if pub.curve_id != params.curve_id:
        raise ValueError("public key curve does not match the table")
    u1, u2, e, v = _chunk_tuples(table, chunk)
    r = brute_dlog(table, params.g1, chunk.u1)
    if r == 0:
        raise ValueError("u1 is the identity")
    if table.mult(params.g2, r) != table.to_point(u2):
        raise ValueError("u2 is not r * g2")
    alpha = _alpha(params, header, u1, u2, e)
    expected_v = table.add(
        table.mult(table.to_point(_as_tuple(pub.c)), r),
        table.mult(table.to_point(_as_tuple(pub.d)), r * alpha % params.n),
    )
    if expected_v != table.to_point(v):
        raise ValueError("validity point mismatch")
    z = brute_dlog(table, params.g1, pub.h)
    mask = table.mult(chunk.u1, z)
    return table.add(chunk.e, table.negate(mask))


def independent_decrypt_with_key(table: GroupTable, priv, chunk, header: bytes) -> CurvePoint:
    """Decrypt a chunk with the private key, by table arithmetic.

    The Cramer-Shoup check restated: refuse an identity u1 or u2, hash
    with the oracle's own serialization, recompute
    v' = (x1 + alpha*y1)*u1 + (x2 + alpha*y2)*u2 by repeated addition,
    and unmask e - z*u1.  Unlike ``independent_decrypt``, which holds
    only the public key and so refuses any u2 other than r*g2, it
    accepts a chunk whose (u1, u2) is no Diffie-Hellman pair when v
    matches by chance, as decryption does.  Raises ``ValueError`` on
    any failure.
    """
    params = table.params
    if priv.curve_id != params.curve_id:
        raise ValueError("private key curve does not match the table")
    u1, u2, e, v = _chunk_tuples(table, chunk)
    if u1 is None or u2 is None:
        raise ValueError("u1 or u2 is the identity")
    n = params.n
    alpha = _alpha(params, header, u1, u2, e)
    expected_v = table.add(
        table.mult(chunk.u1, (priv.x1 + alpha * priv.y1) % n),
        table.mult(chunk.u2, (priv.x2 + alpha * priv.y2) % n),
    )
    if expected_v != table.to_point(v):
        raise ValueError("validity point mismatch")
    return table.add(chunk.e, table.negate(table.mult(chunk.u1, priv.z)))
