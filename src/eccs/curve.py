"""Curve groups y^2 = x^3 + b over F_p, p % 4 == 3, with a complete law.

That is the one curve shape served here, and both registry curves
(secp256k1 and toy) have it: no x term gives one pair of cheap complete
formulas, and p % 4 == 3 gives square roots as a single power.  Points
are affine; the identity is the distinguished ``IDENTITY`` value.
Internally the group law runs on projective coordinates using complete
addition formulas, so no input pair needs special-casing.  The formulas
are complete only on odd-order groups; every curve accepted here has
prime (hence odd) order, which parameter validation enforces.

All scalar multiplication goes through one multi-scalar core,
``linear_combinations``, which computes sums of products k1*P1 + ... in
one call; ``scalar_mult`` is its one-term case.  Every scalar is read
one way: a GLV split by the endomorphism (x, y) -> (beta*x, y), which
every curve accepted here has and carries, gives two half-length
values, read as signed odd 5-bit digits, one entry added per digit, over
a row of the base's 16 odd multiples and a row of their images.  Most
bases get the two rows per call, and the terms of a sum share their
doublings (Straus).  A point object used often as a base has a
fixed-base table, the two rows at every window: a sum's tabled terms
take one Straus pass of a single window over their rows, with no
doublings, and one addition joins it to the other pass.  The registry
curves' g1 and g2 objects have theirs from their first use, shipped
with the package as data files checked against a pinned digest when
first read.  All results of a call go to affine with one inversion.
Iteration counts depend only on the curve and on the shape of the sums,
every table entry is chosen by a masked scan of its whole row, and
signs are applied by a mask, so the sequence of arithmetic operations
does not depend on the scalars.  Python integers are not a hard
side-channel boundary, but the structure keeps the usual leak classes
(branches, table indices) out of the scalar path.  Converting results
back to affine uses the built-in inverse on a randomly blinded input.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Sequence

from .errors import PackageDataError, ParseError
from .field import _SYSTEM_RNG, FieldElement, is_probable_prime
from .record import Record

# CPython's builtin SHA3 spares the process hashlib's OpenSSL binding;
# FIPS-configured distributions build CPython without it.
try:
    from _sha3 import sha3_256
except ImportError:
    from hashlib import sha3_256

G2_DOMAIN_TAG = b"ECCS-G2-v1"

SECP256K1_ID = 0x01
TOY_ID = 0x7F

# ---------------------------------------------------------------------------
# points


class CurvePoint(Record):
    """Affine curve point with int coordinates; ``x is None`` marks the identity.

    Construction checks nothing: ``is_on_curve``, which every public
    operation applies to its points, accepts only ints in [0, p) that
    satisfy the curve equation.  The private slot, no field, holds the
    object's uses as a base and then its fixed-base table, under one
    curve's spec (``_fixed_table``): they go with the object, and an
    equal object, a copy included, starts from none.
    """

    __slots__ = ("x", "y", "_table")

    @property
    def is_identity(self) -> bool:
        return self.x is None


IDENTITY = CurvePoint(None, None)


# ---------------------------------------------------------------------------
# operation counting


class OpCounter:
    """Tally of group-level operations observed inside a ``count_ops`` block.

    Not slotted: ``vars(counter)`` is the tally as a dict.
    """

    def __init__(self) -> None:
        self.point_adds = self.scalar_mults = self.negations = self.hashes = 0


_active_counter: ContextVar[Optional[OpCounter]] = ContextVar("eccs_op_counter", default=None)


@contextmanager
def count_ops() -> Iterator[OpCounter]:
    """Count public group operations (and scheme hashes) in the enclosed block.

    Only calls to the public API are tallied; the additions inside a
    scalar multiplication do not count.  A ``linear_combinations`` sum
    of t terms counts as the t scalar multiplications and t - 1 point
    additions it stands for.  The active counter is context-local: each
    thread (and each asyncio task) counts only its own operations, and
    an inner block counts its operations instead of the outer one.
    """
    counter = OpCounter()
    token = _active_counter.set(counter)
    try:
        yield counter
    finally:
        _active_counter.reset(token)


def _tally(op: str, count: int = 1) -> None:
    counter = _active_counter.get()
    if counter is not None:
        setattr(counter, op, getattr(counter, op) + count)


# ---------------------------------------------------------------------------
# complete projective formulas (Renes-Costello-Batina, EUROCRYPT 2016)


def _group_law(b3, p):
    """Complete addition and doubling on (X : Y : Z) triples of y^2 = x^3 + b.

    b3 = 3*b mod p; (0 : 1 : 0) is the identity and results are reduced
    mod p.  These are the formulas for that shape (algorithms 7 and 9
    there), the only one ``CurveParams`` accepts.
    """

    def add(X1, Y1, Z1, X2, Y2, Z2):
        t0 = X1 * X2 % p
        t1 = Y1 * Y2 % p
        t2 = Z1 * Z2 % p
        t3 = (X1 + Y1) * (X2 + Y2) - t0 - t1
        t4 = (Y1 + Z1) * (Y2 + Z2) - t1 - t2
        t5 = (X1 + Z1) * (X2 + Z2) - t0 - t2
        x3 = t0 + t0 + t0
        t2 = b3 * t2
        z3 = (t1 + t2) % p
        t1 = (t1 - t2) % p
        y3 = b3 * t5 % p
        X3 = (t3 * t1 - t4 * y3) % p
        Y3 = (y3 * x3 + t1 * z3) % p
        Z3 = (z3 * t4 + x3 * t3) % p
        return X3, Y3, Z3

    def dbl(X, Y, Z):
        t0 = Y * Y % p
        t2 = b3 * (Z * Z) % p
        t8 = t0 << 3
        t3 = t0 - 3 * t2
        X3 = (t3 * (X * Y % p) << 1) % p
        Y3 = (t3 * (t0 + t2) + t2 * t8) % p
        Z3 = Y * Z % p * t8 % p
        return X3, Y3, Z3

    return add, dbl


# ---------------------------------------------------------------------------
# constant-shape multi-scalar core
#
# A value v of 5*w bits is read, in 5-bit windows d_i, as the signed
# odd-digit number
#     read(v) = sum_{i<w} (2*d_i - 31) * 32**i = 2*v - (32**w - 1).
# Every digit is odd and nonzero, so a row only holds the 16 odd
# multiples P, 3P, ..., 31P, none of them the identity when P has prime
# order above 31.  The GLV split (``_Endomorphism.split``) turns a scalar
# k into two such values with read(v1) + lam*read(v2) == k (mod n).


def _odd_multiples(add, dbl, X, Y, Z):
    """The row [P, 3P, 5P, ..., 31P] for P = (X : Y : Z)."""
    twice = dbl(X, Y, Z)
    row = [(X, Y, Z)]
    for _ in range(15):
        row.append(add(*row[-1], *twice))
    return row


def _pack(points, p):
    """Row entries as single integers X | Y << s | Z << 2s, s = bits of p."""
    s = p.bit_length()
    return [X | Y << s | Z << 2 * s for X, Y, Z in points]


def _select(row, window, p):
    """Entry for the digit 2*window - 31 of a 5-bit window, by a masked scan.

    A row holds 16 entries: digits 1, 3, ..., 31 sit at indices 0, 1, ...,
    15, and every entry of the row is read.  A negative digit takes the
    entry of its absolute value and negates y by a mask.
    """
    neg = (window - 16) >> 5  # -1 below digit zero, else 0
    index = (window ^ neg) & 15
    entry = 0
    for j, packed in enumerate(row):
        entry |= (((j ^ index) - 1) >> 4) & packed  # -1 & packed where j == index
    s = p.bit_length()
    mask = (1 << s) - 1
    X, Y, Z = entry & mask, entry >> s & mask, entry >> 2 * s
    Y ^= neg & (Y ^ (p - Y))
    return X, Y, Z


def _straus(add, dbl, p, rows, values, windows):
    """sum_j read(values[j]) * P_j, where rows[j] is the packed row of P_j.

    One pass over the 5-bit windows, top first, with the doublings shared
    by all rows (Straus).  The pass starts from the first row's top entry,
    not from the identity, so it always makes windows * len(rows) - 1
    additions and 5 * (windows - 1) doublings, whatever the values.
    """
    top = 5 * windows - 5
    X, Y, Z = _select(rows[0], values[0] >> top & 31, p)
    for row, v in zip(rows[1:], values[1:]):
        X, Y, Z = add(X, Y, Z, *_select(row, v >> top & 31, p))
    for shift in range(top - 5, -1, -5):
        X, Y, Z = dbl(*dbl(*dbl(*dbl(*dbl(X, Y, Z)))))
        for row, v in zip(rows, values):
            X, Y, Z = add(X, Y, Z, *_select(row, v >> shift & 31, p))
    return X, Y, Z


def _blinded_inverse(v, p: int) -> int:
    """1/v mod p, for v != 0 mod p.

    The built-in inverse takes variable time, so it only ever sees v*r
    for a fresh uniform r in [1, p) from ``field._SYSTEM_RNG``, which is
    independent of v.
    """
    r = _SYSTEM_RNG.randrange(1, p)
    return r * pow(v * r % p, -1, p) % p


def _normalize(points, p):
    """Projective points (Z reduced mod p) scaled to Z = 1, with one inversion.

    The identity, Z == 0, enters the product as 1 and leaves with Z = 0.
    A generator over a list: each point is scaled as it is taken, so
    ``_affine`` builds its points with no list of scaled triples between.
    """
    zinv = []
    acc = 1
    for _, _, Z in points:
        zinv.append(acc)
        acc = acc * (Z or 1) % p
    inv = _blinded_inverse(acc, p)
    for i in range(len(points) - 1, -1, -1):
        zinv[i] = inv * zinv[i] % p
        inv = inv * (points[i][2] or 1) % p
    for (X, Y, Z), scale in zip(points, zinv):
        yield X * scale % p, Y * scale % p, Z and 1


def _raw_multiple(p: int, b: int, k: int, x: int, y: int):
    """k * (x, y) as a projective triple, for odd k, computed on raw integers.

    The proof behind the order and endomorphism checks.  The multiple is
    exactly k, over as many windows as k needs, with no endomorphism
    split: the split presumes what those checks are to establish.
    """
    if k % 2 == 0:
        raise ValueError("the multiple to prove must be odd")
    add, dbl = _group_law(3 * b % p, p)
    windows = (k.bit_length() + 4) // 5
    v = (k + (1 << 5 * windows) - 1) >> 1  # read(v) == k exactly
    row = _pack(_odd_multiples(add, dbl, x, y, 1), p)
    return _straus(add, dbl, p, [row], [v], windows)


def _lam_acts_as_beta(p: int, b: int, n: int, beta: int, lam: int, x: int, y: int) -> bool:
    """lam * (x, y) == (beta * x, y), for (x, y) of proved odd order n.

    An even lam is read as lam + n, the same multiple of (x, y); both
    secp256k1 roots are even.
    """
    X, Y, Z = _raw_multiple(p, b, lam if lam % 2 else lam + n, x, y)
    return Z % p != 0 and (X - beta * x * Z) % p == 0 and (Y - y * Z) % p == 0


def _short_basis(n: int, lam: int) -> tuple[int, int, int, int]:
    """Short (a1, b1), (a2, b2) with a + b*lam == 0 mod n and a1*b2 - a2*b1 == n.

    The extended Euclidean algorithm on (n, lam) passes through such
    vectors; the ones around sqrt(n) are short (GLV, section 4).
    """
    root = math.isqrt(n)
    r0, r1, t0, t1 = n, lam, 0, 1
    while r1 >= root:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    a1, b1 = r1, -t1
    a2, b2 = min((r0, -t0), (r2, -t2), key=lambda v: v[0] * v[0] + v[1] * v[1])
    if a1 * b2 - a2 * b1 < 0:
        a1, b1, a2, b2 = a2, b2, a1, b1
    return a1, b1, a2, b2


class _Endomorphism:
    """(x, y) -> (beta*x, y), which acts on the group as multiplication by lam.

    ``split`` turns a scalar k into two values v1, v2 of 5*windows bits
    with read(v1) + lam*read(v2) == k (mod n), each about half as long
    as n (Gallant, Lambert and Vanstone, CRYPTO 2001).
    """

    __slots__ = ("beta", "windows", "_n", "_basis", "_shift", "_inv2", "_half")

    def __init__(self, n: int, beta: int, lam: int) -> None:
        a1, b1, a2, b2 = _short_basis(n, lam)
        # rounding leaves |s1| <= (|a1| + |a2|) / 2 and |s2| <= (|b1| + |b2|) / 2
        bound = max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2
        self.beta = beta
        self.windows = (bound.bit_length() + 5) // 5  # one bit to spare for the sign
        self._n = n
        self._basis = (a1, b1, a2, b2)
        self._shift = (-1 - lam) % n
        self._inv2 = (n + 1) // 2
        self._half = 1 << (5 * self.windows - 1)

    def split(self, k: int) -> tuple[int, int]:
        n = self._n
        a1, b1, a2, b2 = self._basis
        s = (k + self._shift) * self._inv2 % n  # k == 2*s + 1 + lam
        c1 = (2 * b2 * s + n) // (2 * n)  # round(b2 * s / n)
        c2 = (n - 2 * b1 * s) // (2 * n)  # round(-b1 * s / n)
        # s1 + lam*s2 == s; adding half to both adds (1 + lam) to the reading
        return s - c1 * a1 - c2 * a2 + self._half, -c1 * b1 - c2 * b2 + self._half


# ---------------------------------------------------------------------------
# curve parameters


class CurveParams:
    """Validated domain parameters for one curve y^2 = x^3 + b over F_p.

    The arguments are the registry spec's fields, in ``_SPEC_FIELDS``
    order, and a curve is its spec: equality and the hash read every one
    of them, name, beta and lam included.  Only p % 4 == 3 is accepted,
    else construction raises ``ValueError``.  Construction re-derives
    every claimed property: primality of p and n, b != 0 (a
    non-singular equation), both generators on the curve with exact
    order n, the Hasse bound, and cofactor 1 (forced by 2n exceeding the
    upper Hasse limit).  ``beta`` and ``lam`` are required: every curve
    of this shape with prime order has p == 1 (mod 3), hence the
    endomorphism (x, y) -> (beta*x, y) that scalar multiplication uses.
    Construction checks that beta is a nontrivial cube root of 1 mod p
    and proves lam * g1 == (beta * x, y) by an exact multiple of g1,
    computed without that endomorphism.  A corrupted constant therefore
    fails loudly at construction instead of mis-encrypting later.

    ``curve_by_id`` builds registry curves through ``_pinned`` instead,
    which skips the three proofs (primality, exact order n, lam * g1)
    once the spec has matched its pinned digest; the tests and
    ``eccs selftest`` construct the same specs here, with every proof.
    """

    __slots__ = (
        "curve_id",
        "name",
        "p",
        "b",
        "n",
        "coord_bytes",
        "scalar_bytes",
        "g1",
        "g2",
        "_add",
        "_dbl",
        "_glv",
        "_ships_tables",
        "_spec",
    )

    def __init__(
        self,
        curve_id: int,
        name: str,
        p: int,
        b: int,
        n: int,
        g1: tuple[int, int],
        g2: tuple[int, int],
        beta: int,
        lam: int,
    ) -> None:
        self._setup(curve_id, name, p, b, n, g1, g2, beta, lam, proofs=True)

    @classmethod
    def _pinned(cls, spec: dict) -> "CurveParams":
        """A registry curve whose spec matched its pinned digest.

        The digest stands for the proofs the tests ran on these exact
        constants, so only the cheap checks run: b reduced and nonzero,
        p % 4 == 3, Hasse bound, cofactor and both generators on the
        curve.
        """
        params = cls.__new__(cls)
        params._setup(*(spec[key] for key in _SPEC_FIELDS), proofs=False)
        return params

    def _setup(self, curve_id, name, p, b, n, g1, g2, beta, lam, *, proofs) -> None:
        if not 0 <= curve_id <= 0xFF:
            raise ValueError("curve id must fit in one byte")
        self.curve_id = curve_id
        self.name = name
        for label, modulus in (("p", p), ("n", n)):
            if not isinstance(modulus, int) or modulus <= 3 or modulus % 2 == 0:
                raise ValueError(f"{label} must be an odd prime > 3, got {modulus!r}")
            if proofs and not is_probable_prime(modulus):
                raise ValueError(f"{label} = {modulus:#x} failed the primality test")
        self.p = p
        self.n = n
        # fixed big-endian widths of every serialized coordinate and scalar
        self.coord_bytes = (p.bit_length() + 7) // 8
        self.scalar_bytes = (n.bit_length() + 7) // 8
        if not 0 <= b < p:
            raise ValueError("b must be reduced mod p")
        if p % 4 != 3:
            raise ValueError("only fields with p % 4 == 3 are supported")
        if b == 0:
            raise ValueError("singular curve: b == 0")
        self.b = b
        two_sqrt = math.isqrt(4 * p)  # floor(2 * sqrt(p)); 2 * isqrt(p) may fall short
        if not (p + 1 - two_sqrt <= n <= p + 1 + two_sqrt):
            raise ValueError("group order violates the Hasse bound")
        if 2 * n <= p + 1 + two_sqrt:
            # otherwise a cofactor >= 2 could hide inside the Hasse interval
            raise ValueError("order too small to force cofactor 1")
        self._add, self._dbl = _group_law(3 * b % p, p)
        # a registry curve under its pinned digest takes g1's and g2's
        # tables from the package; a proved curve builds its own
        self._ships_tables = not proofs
        self.g1 = self._checked_generator(g1, "g1", proofs)
        self.g2 = self._checked_generator(g2, "g2", proofs)
        self._glv = self._checked_endomorphism(beta, lam, proofs)
        self._spec = (curve_id, name, p, b, n, tuple(g1), tuple(g2), beta, lam)

    def _checked_generator(self, xy: tuple[int, int], label: str, proofs: bool) -> CurvePoint:
        x, y = xy
        point = self.point(x, y)
        if proofs and _raw_multiple(self.p, self.b, self.n, x, y)[2] % self.p:
            raise ValueError(f"{label} does not have order n")
        return point

    def _checked_endomorphism(self, beta, lam, proofs: bool) -> _Endomorphism:
        p, n = self.p, self.n
        if (
            not isinstance(beta, int)
            or not isinstance(lam, int)
            or not 1 < beta < p
            or not 1 < lam < n
            or pow(beta, 3, p) != 1
        ):
            raise ValueError("beta must be a cube root of unity mod p and 1 < lam < n")
        if proofs and not _lam_acts_as_beta(p, self.b, n, beta, lam, self.g1.x, self.g1.y):
            raise ValueError("lam * g1 is not (beta * x, y)")
        return _Endomorphism(n, beta, lam)

    def point(self, x: int, y: int) -> CurvePoint:
        """The affine point (x, y), or ``ValueError`` unless ``_on_curve`` accepts it.

        Nothing is reduced: x and y must already be ints in [0, p).
        """
        if not self._on_curve(x, y):
            raise ValueError("point is not on the curve")
        return CurvePoint(x, y)

    def _on_curve(self, x, y) -> bool:
        """x and y are ints in [0, p) with y^2 == x^3 + b."""
        p = self.p
        return (
            type(x) is int
            and type(y) is int
            and 0 <= x < p
            and 0 <= y < p
            and y * y % p == (x * x % p * x + self.b) % p
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveParams):
            return NotImplemented
        return self._spec == other._spec

    def __hash__(self) -> int:
        return hash(self._spec)

    def __repr__(self) -> str:
        return f"CurveParams({self.name!r}, id={self.curve_id:#04x})"


# ---------------------------------------------------------------------------
# group operations


def _require_member(params: CurveParams, point: CurvePoint) -> None:
    if not is_on_curve(params, point):
        raise ValueError("point is not on the curve")


def is_on_curve(params: CurveParams, point: CurvePoint) -> bool:
    """Membership check: the identity, or int coordinates in [0, p) on the curve."""
    if point.is_identity:
        return point.y is None
    return params._on_curve(point.x, point.y)


def _affine(params: CurveParams, triples) -> list[CurvePoint]:
    """Affine points of the group law's triples, with one blinded inversion per call.

    A triple with Z == 0 becomes ``IDENTITY``; every other result is
    checked by ``params.point``.
    """
    return [params.point(X, Y) if Z else IDENTITY for X, Y, Z in _normalize(triples, params.p)]


def point_add(params: CurveParams, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Complete addition: any pair of group elements, identity included."""
    _tally("point_adds")
    _require_member(params, p1)
    _require_member(params, p2)
    t1, t2 = ((0, 1, 0) if P.is_identity else (P.x, P.y, 1) for P in (p1, p2))
    return _affine(params, [params._add(*t1, *t2)])[0]


def point_negate(params: CurveParams, point: CurvePoint) -> CurvePoint:
    _tally("negations")
    _require_member(params, point)
    if point.is_identity:
        return IDENTITY
    return CurvePoint(point.x, (params.p - point.y) % params.p)


def _as_scalar(params: CurveParams, k: int) -> int:
    if not isinstance(k, int):
        raise TypeError(f"scalar must be int, got {type(k).__name__}")
    if not 0 <= k < params.n:
        raise ValueError("scalar outside [0, n)")
    return k


# The break-even count: a base gets its fixed-base table on this use.  On
# secp256k1 (CPython 3.11, a 2-vCPU Xeon VM whose speed drifts; medians of
# 10 rounds, three runs) building the 52-row table takes 4.1-4.5 ms, and
# each use of it takes 0.46-0.50 ms where a variable-base multiplication
# takes 1.08-1.16 ms.  Within one run the build costs what 6.3-6.9 uses save.
# Building it once the untabled uses have cost about as much extra as the
# table keeps every base within about 1.5 times the cost of the best
# choice made knowing its use count.  Bases used fewer times (a fresh
# key's h, c and d in its one chunk) never pay for a table, and neither do
# decryption's, which are fresh copies (``ecs.decrypt_chunk``).  The
# registry curves' g1 and g2 objects are not counted: their tables ship
# with the package (``_load_generator_tables``).  Uses are counted per
# point object, and each process counts the uses it makes itself: a
# fanned-out message's child ends with its uses and any table it builds.
_TABLE_AT_USE = 7


def _rows(params: CurveParams, points: list) -> list:
    """``points`` packed in rows of 16, then their images (beta*X, Y, Z), lam times them.

    Every row is built here: a base's two rows for one call, from its odd
    multiples (the values of ``params._glv.split(k)`` read on them sum to
    k), and its fixed-base table (``_table_rows``).
    """
    p, beta = params.p, params._glv.beta
    flat = _pack(points + [(beta * X % p, Y, Z) for X, Y, Z in points], p)
    return [flat[i : i + 16] for i in range(0, len(flat), 16)]


def _table_rows(params: CurveParams, point: CurvePoint) -> list:
    """The fixed-base table of a base: ``_rows`` of its odd multiples at every window.

    For w = ``params._glv.windows``, row i < w holds the packed 16 odd
    multiples of 32**i * point with Z = 1, from a chain of doublings and
    one inversion, and row w + i their images, lam times them, at one
    multiplication by beta each.  The one build of a table: at a base's
    ``_TABLE_AT_USE``-th use, and for the shipped generator tables
    (``_generator_table_bytes``).
    """
    add, dbl = params._add, params._dbl
    points = []
    base = (point.x, point.y, 1)
    for _ in range(params._glv.windows):
        row = _odd_multiples(add, dbl, *base)
        points += row
        base = add(*row[-1], *base)  # 31B + B
    return _rows(params, list(_normalize(points, params.p)))


def _generator_table_bytes(params: CurveParams) -> bytes:
    """g1's table rows, then g2's, each entry as ``_select`` reads it, less Z = 1.

    The content of a registry curve's shipped table file, built by
    ``_table_rows`` from ``params``; the tests and ``eccs selftest``
    build it from curves with every proof and compare.
    """
    s = params.p.bit_length()
    width, xy = (2 * s + 7) // 8, (1 << 2 * s) - 1
    return b"".join(
        (entry & xy).to_bytes(width, "big")
        for base in (params.g1, params.g2)
        for row in _table_rows(params, base)
        for entry in row
    )


def _shipped_table_bytes(curve_id: int) -> bytes:
    """The content of a registry curve's table file; ``PackageDataError`` if unreadable."""
    try:
        with open(_TABLE_FILE.format(curve_id), "rb") as f:
            return f.read()
    except OSError as exc:  # the CLI would report an OSError as an entropy failure
        raise PackageDataError(f"cannot read generator tables: {exc}") from None


def _load_generator_tables(params: CurveParams) -> None:
    """Give the objects ``params.g1`` and ``params.g2`` their shipped tables.

    The file must match its pinned digest, else ``PackageDataError``; the
    digest stands for the build the tests compared it with, so no entry
    is checked here.
    """
    data = _shipped_table_bytes(params.curve_id)
    if sha3_256(data).hexdigest() != _TABLE_DIGESTS[params.curve_id]:
        raise PackageDataError(f"generator tables {params.curve_id:#04x} do not match their pinned digest")
    s = params.p.bit_length()
    width, one = (2 * s + 7) // 8, 1 << 2 * s  # Z == 1, packed as ``_pack`` packs it
    flat = [int.from_bytes(data[i : i + width], "big") | one for i in range(0, len(data), width)]
    rows = [flat[i : i + 16] for i in range(0, len(flat), 16)]
    w = 2 * params._glv.windows
    for base, table in ((params.g1, rows[:w]), (params.g2, rows[w:])):
        object.__setattr__(base, "_table", (params._spec, table))


def _fixed_table(params: CurveParams, point: CurvePoint):
    """The base's fixed-base table (see ``_table_rows``), or None.

    A point object keeps its uses as a base, then its table, in its
    ``_table`` slot under the spec of the curve that counted them; under
    any other curve it starts from none, since another spec (toy's other
    (beta, lam) pairing, say) gives other rows.  On a registry curve
    loaded through ``curve_by_id``, the objects ``params.g1`` and
    ``params.g2`` take the shipped tables from their first use.  Any
    other object gets its table built on its ``_TABLE_AT_USE``-th use.
    """
    spec, held = getattr(point, "_table", (params._spec, 0))
    if spec != params._spec:
        held = 0
    if not isinstance(held, int):
        return held
    if params._ships_tables and (point is params.g1 or point is params.g2):
        _load_generator_tables(params)
        return point._table[1]
    held += 1
    table = _table_rows(params, point) if held >= _TABLE_AT_USE else None
    object.__setattr__(point, "_table", (params._spec, table or held))
    return table


def linear_combinations(
    params: CurveParams,
    sums: Sequence[Sequence[tuple[CurvePoint, int]]],
) -> list[CurvePoint]:
    """sum_j k_j * P_j for each sum of (P_j, k_j) terms, sharing the work.

    A sum of t terms stands for, and is tallied as, t scalar
    multiplications and t - 1 point additions.  Every scalar is split
    once by the curve's endomorphism into two half-length values, read
    as signed odd 5-bit digits over a row of the base's 16 odd multiples
    and a row of their images.  In each sum the terms whose bases have
    a fixed-base table, which holds both rows at every window, take one
    Straus pass of a single window (one entry per row, no doublings).
    The other terms take one Straus pass with shared doublings over
    their two rows, and one addition joins the two passes' results.
    A base object's rows are built and its membership checked once per
    call, however many terms use it, and every result goes to affine
    with one inversion.  Each term still counts as one use of its base
    object towards a fixed-base table; a registry curve's g1 and g2
    objects take their shipped tables at their first use instead.  The
    sequence of operations depends only on the curve and on the shape of
    the sums (their sizes, and which bases are the identity or have a
    table), never on the scalars.
    """
    glv = params._glv
    add, dbl, p = params._add, params._dbl, params.p
    rows_of: dict[int, Optional[list]] = {}  # checked base id -> its rows, or None before any
    results = []
    for terms in sums:
        _tally("scalar_mults", len(terms))
        _tally("point_adds", max(len(terms) - 1, 0))
        tab_rows, tab_digits, var_rows, var_values = [], [], [], []
        for point, k in terms:
            k = _as_scalar(params, k)
            key = id(point)
            if key not in rows_of:
                _require_member(params, point)
                rows_of[key] = None
            if point.is_identity:
                continue
            values = glv.split(k)
            table = _fixed_table(params, point)
            if table is not None:
                tab_rows += table
                tab_digits += [v >> i & 31 for v in values for i in range(0, 5 * glv.windows, 5)]
                continue
            if rows_of[key] is None:
                rows_of[key] = _rows(params, _odd_multiples(add, dbl, point.x, point.y, 1))
            var_rows += rows_of[key]
            var_values += values
        total = _straus(add, dbl, p, var_rows, var_values, glv.windows) if var_rows else None
        if tab_rows:
            entries = _straus(add, dbl, p, tab_rows, tab_digits, 1)
            total = entries if total is None else add(*total, *entries)
        results.append((0, 1, 0) if total is None else total)
    return _affine(params, results)


def scalar_mult(params: CurveParams, point: CurvePoint, k: int) -> CurvePoint:
    """k * point, with a sequence of operations that does not depend on k.

    The one-term case of ``linear_combinations``, which says how the
    scalar is read: split in two halves, each digit of which adds one
    entry chosen by a masked scan of a whole row.  A point object used
    often as a base, and a registry curve's g1 or g2 object from its
    first use, has a fixed-base table and needs no doublings.  Iteration
    counts depend only on the curve.
    """
    return linear_combinations(params, [[(point, k)]])[0]


# ---------------------------------------------------------------------------
# point compression


def _lift_x(p: int, b: int, x: int) -> Optional[int]:
    """The even y with y^2 == x^3 + b mod p, for x in [0, p); None if there is none."""
    try:
        return FieldElement(x * x % p * x + b, p).sqrt()
    except ValueError:
        return None


def compress(params: CurveParams, point: CurvePoint) -> bytes:
    """0x00 for the identity, else 0x02/0x03 (y parity) plus big-endian x."""
    _require_member(params, point)
    if point.is_identity:
        return b"\x00"
    prefix = 0x02 if point.y % 2 == 0 else 0x03
    return bytes([prefix]) + point.x.to_bytes(params.coord_bytes, "big")


def decompress(params: CurveParams, data: bytes) -> CurvePoint:
    """Inverse of ``compress``; rejects anything but a canonical encoding."""
    if len(data) == 0:
        raise ParseError("empty point encoding")
    prefix = data[0]
    if prefix == 0x00:
        if len(data) != 1:
            raise ParseError("identity encoding must be a single byte")
        return IDENTITY
    if prefix not in (0x02, 0x03):
        raise ParseError(f"bad point prefix {prefix:#04x}")
    if len(data) != 1 + params.coord_bytes:
        raise ParseError("wrong compressed point length")
    x = int.from_bytes(data[1:], "big")
    if x >= params.p:
        raise ParseError("encoded x is not reduced modulo p")
    y = _lift_x(params.p, params.b, x)
    if y is None:
        raise ParseError("x coordinate has no point on the curve")
    # y != 0: the proofs and the cofactor check force odd prime order, so no (x, 0)
    if prefix == 0x03:
        y = params.p - y
    return CurvePoint(x, y)


def compressed_size(params: CurveParams) -> int:
    """Length of a non-identity compressed point for this curve."""
    return 1 + params.coord_bytes


# ---------------------------------------------------------------------------
# second-generator derivation and the small-curve search


def derive_g2(curve_id: int, p: int, b: int, n: int) -> tuple[int, int]:
    """Deterministic second generator with no known discrete log to g1.

    Hash-to-curve by try-and-increment: x is SHA3-256 of ``G2_DOMAIN_TAG``,
    the curve id and a 32-bit counter, reduced mod p; each x takes one
    square-root attempt, and the first that succeeds yields the candidate
    (even root), which must then have exact order n.  Everyone
    re-deriving with the same tag gets the same point, and nobody learns
    a scalar relating it to g1.
    """
    tag = G2_DOMAIN_TAG + bytes([curve_id])
    for counter in range(2**32):
        digest = sha3_256(tag + counter.to_bytes(4, "big")).digest()
        x = int.from_bytes(digest, "big") % p
        y = _lift_x(p, b, x)
        if y is not None and _raw_multiple(p, b, n, x, y)[2] % p == 0:
            return x, y
    raise ValueError("no generator found in the counter range")


def _count_points(p: int, b: int) -> int:
    """#E(F_p) by summing Legendre symbols; only sensible for small p."""
    total = p + 1
    for x in range(p):
        rhs = (x * x % p * x + b) % p
        if rhs == 0:
            continue
        total += 1 if FieldElement(rhs, p).is_square() else -1
    return total


def _cube_roots_of_unity(m: int) -> list[int]:
    """The two nontrivial cube roots of 1 modulo a prime m == 1 (mod 3), smaller first."""
    g = 2
    while pow(g, (m - 1) // 3, m) == 1:
        g += 1
    root = pow(g, (m - 1) // 3, m)
    return sorted((root, root * root % m))


def toy_curve_search() -> CurveParams:
    """Re-run the search that produced the registry's toy curve.

    Scans primes p >= 1009 with p % 4 == 3 and the fixed equation
    y^2 = x^3 + 7 until the group order n is prime (cofactor 1 by
    construction) and differs from p.  g1 is the point with the smallest
    x, canonical even y; g2 comes from ``derive_g2``.  beta is the
    smaller nontrivial cube root of 1 mod p, and lam the cube root of 1
    mod n with lam * g1 == (beta * x, y); the same rule gives
    secp256k1's pair.  The result, endomorphism included, must equal the
    frozen registry entry, which the test suite asserts.
    """
    b = 7
    p = 1009
    while True:
        if p % 4 == 3 and is_probable_prime(p):
            n = _count_points(p, b)
            if n != p and 2 * n > p + 1 + math.isqrt(4 * p) and is_probable_prime(n):
                g1 = next((x, y) for x in range(p) if (y := _lift_x(p, b, x)) is not None)
                g2 = derive_g2(TOY_ID, p, b, n)
                beta = _cube_roots_of_unity(p)[0]
                roots = _cube_roots_of_unity(n)
                lam = next(r for r in roots if _lam_acts_as_beta(p, b, n, beta, r, *g1))
                return CurveParams(TOY_ID, "toy", p, b, n, g1, g2, beta, lam)
        p += 2


# ---------------------------------------------------------------------------
# registry

_REGISTRY_SPECS: dict[int, dict] = {
    SECP256K1_ID: dict(
        curve_id=SECP256K1_ID,
        name="secp256k1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
        b=7,
        n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
        g1=(
            0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
            0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
        ),
        # derive_g2(0x01, p, 7, n) at counter 0; regenerated by tests
        g2=(
            0x9B87DF2B2083C5095C3BDAAEB321151E2BE89C5B772DBA9D711E2E86E5AD6076,
            0x08554BF431EFE0801349CEAF8498A33DF168280A7D7EEDE3736BCDD909684E22,
        ),
        # beta is the smaller nontrivial cube root of 1 mod p, lam the cube
        # root of 1 mod n with lam * g1 == (beta * x, y); re-derived by tests
        beta=0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE,
        lam=0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
    ),
    TOY_ID: dict(
        curve_id=TOY_ID,
        name="toy",
        p=1051,
        b=7,
        n=1093,
        g1=(3, 666),
        # derive_g2(0x7F, 1051, 7, 1093) at counter 3; regenerated by tests
        g2=(1033, 592),
        # as for secp256k1; the other pairing is (870, 151)
        beta=180,
        lam=941,
    ),
}

# The one definition of a curve: the digest's field order, ``CurveParams``'s
# arguments and the spec its equality reads; ``_pinned`` reads only these.
_SPEC_FIELDS = ("curve_id", "name", "p", "b", "n", "g1", "g2", "beta", "lam")


def _spec_digest(spec: dict) -> str:
    """SHA3-256 hex digest of a canonical byte encoding of a registry spec.

    Fields go in ``_SPEC_FIELDS`` order, a point as its x then its y.
    Each integer is big-endian in its minimal length and each string is
    UTF-8; every value is preceded by its byte length in two bytes.
    """
    out = bytearray(b"ECCS-registry-v1")
    for key in _SPEC_FIELDS:
        value = spec[key]
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, str):
                raw = item.encode()
            else:
                raw = item.to_bytes((item.bit_length() + 7) // 8, "big")
            out += len(raw).to_bytes(2, "big") + raw
    return sha3_256(out).hexdigest()


# _spec_digest of each registry spec above, taken when the tests and
# ``eccs selftest`` had proved every property of it with ``CurveParams``;
# a test recomputes them, so a changed constant needs a new digest here.
_REGISTRY_DIGESTS: dict[int, str] = {
    SECP256K1_ID: "8a5e2cfbe7379f428181f2396b39ef864e3cd0b108d435487ba0fddd9f0a8502",
    TOY_ID: "16e18807e30fb7b037e620ef36bd0f152ca26bb8acf4962fb1701b3b368dfa7a",
}

# SHA3-256 of each registry curve's shipped table file (g1's and g2's
# fixed-base tables, ``_generator_table_bytes``), taken when the tests and
# ``eccs selftest`` had rebuilt it from the curve with every proof; a test
# rebuilds both files, so a changed constant needs new files and digests.
# A file holds g1's rows, then g2's, each entry X | Y << s (s = bits of p)
# in (2s + 7) // 8 big-endian bytes, 106,496 B on secp256k1 and 384 B on
# toy; _generator_table_bytes(CurveParams(**spec)) is gtables-<id>.bin.
_TABLE_DIGESTS: dict[int, str] = {
    SECP256K1_ID: "77059ede9cc7a2c86d0fe0c7483d77b27bf05263838a4c4dbaf2cc82f94ea3c1",
    TOY_ID: "a79b3ce88447c411f0b4794d3e1d5e99dbf46bfc96c2d2f82e4c38fe04ee3e62",
}

_TABLE_FILE = os.path.join(os.path.dirname(__file__), "gtables-{:02x}.bin")

_loaded: dict[int, CurveParams] = {}


def curve_by_id(curve_id: int) -> CurveParams:
    """Registry lookup by wire identifier.

    On first use in a process the spec's digest is recomputed and compared
    with its pinned value, and the curve is built without re-running the
    proofs that digest stands for (see ``CurveParams``).  A spec that no
    longer matches its digest raises ``PackageDataError``.
    """
    try:
        spec = _REGISTRY_SPECS[curve_id]
    except KeyError:
        raise ParseError(f"unknown curve id {curve_id:#04x}") from None
    params = _loaded.get(curve_id)
    if params is None:
        if _spec_digest(spec) != _REGISTRY_DIGESTS[curve_id]:
            raise PackageDataError(f"registry spec {curve_id:#04x} does not match its pinned digest")
        params = CurveParams._pinned(spec)
        _loaded[curve_id] = params
    return params


def get_curve(name: str) -> CurveParams:
    """Registry lookup by name ('secp256k1' or 'toy')."""
    for curve_id, spec in _REGISTRY_SPECS.items():
        if spec["name"] == name:
            return curve_by_id(curve_id)
    raise ValueError(f"unknown curve {name!r}")
