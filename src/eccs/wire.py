"""Deterministic binary serialization and ASCII armor.

Every object travels in the same envelope: magic ``ECS1``, a format
version, a kind byte, the curve id, then a kind-specific body.  Curve
points use the compressed encoding from :mod:`eccs.curve`; scalars are
fixed-width big-endian.  Parsers are strict: exact lengths, canonical
encodings, every declared invariant checked, and unknown or trailing
bytes rejected with :class:`~eccs.errors.ParseError`.

A ciphertext of four or more chunks has its points decompressed over
the CPUs, in the slices ``ecs.encrypt`` and ``ecs.decrypt`` use; the
structural checks stay in the calling process.  The result, or the
first fault and its message, is the one a single pass computes, and a
parser that raises returns nothing: the chunks are assembled only once
every slice is whole.
"""

from __future__ import annotations

import base64

from .curve import CurveParams, CurvePoint, compress, curve_by_id, decompress
from .ecs import Ciphertext, PrivateKey, PublicKey, _fan_out_chunks
from .errors import ParseError
from .record import Record

MAGIC = b"ECS1"
VERSION = 0x01

KIND_PUBLIC_KEY = 0x01
KIND_PRIVATE_KEY = 0x02
KIND_CIPHERTEXT = 0x03

LABEL_PUBLIC_KEY = "ECCS PUBLIC KEY"
LABEL_PRIVATE_KEY = "ECCS PRIVATE KEY"
LABEL_CIPHERTEXT = "ECCS MESSAGE"

# armor label -> the envelope kind it may wrap
_LABELS = {
    LABEL_PUBLIC_KEY: KIND_PUBLIC_KEY,
    LABEL_PRIVATE_KEY: KIND_PRIVATE_KEY,
    LABEL_CIPHERTEXT: KIND_CIPHERTEXT,
}

_ARMOR_WIDTH = 64


class Envelope(Record):
    """Parsed outer frame; the body is still kind-specific raw bytes."""

    __slots__ = ("kind", "curve_id", "body")


class _Reader:
    """Cursor over a byte string that refuses to read past the end."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise ParseError("truncated input")
        piece = self._data[self._pos : end]
        self._pos = end
        return piece

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise ParseError(f"{len(self._data) - self._pos} trailing bytes")


def _pack(kind: int, curve_id: int, body: bytes) -> bytes:
    return MAGIC + bytes([VERSION, kind, curve_id]) + body


def parse_envelope(data: bytes) -> Envelope:
    """Split off the common header; used directly by format sniffing."""
    reader = _Reader(data)
    if reader.take(4) != MAGIC:
        raise ParseError("bad magic")
    version = reader.take(1)[0]
    if version != VERSION:
        raise ParseError(f"unsupported version {version}")
    kind = reader.take(1)[0]
    if kind not in (KIND_PUBLIC_KEY, KIND_PRIVATE_KEY, KIND_CIPHERTEXT):
        raise ParseError(f"unknown kind {kind:#04x}")
    curve_id = reader.take(1)[0]
    return Envelope(kind, curve_id, data[7:])


def _take_point(reader: _Reader, params: CurveParams) -> bytes:
    """A point's raw encoding, its length set by its prefix; not yet checked."""
    prefix = reader.take(1)
    if prefix == b"\x00":
        return prefix
    return prefix + reader.take(params.coord_bytes)


def _read_point(reader: _Reader, params: CurveParams) -> CurvePoint:
    return decompress(params, _take_point(reader, params))


def _read_scalar(reader: _Reader, params: CurveParams) -> int:
    value = int.from_bytes(reader.take(params.scalar_bytes), "big")
    if not 1 <= value < params.n:
        raise ParseError("secret scalar outside [1, n-1]")
    return value


def _expect_kind(envelope: Envelope, kind: int) -> CurveParams:
    if envelope.kind != kind:
        raise ParseError(f"wrong kind {envelope.kind:#04x}")
    return curve_by_id(envelope.curve_id)


# --- public keys ----------------------------------------------------------


def serialize_public_key(pub: PublicKey) -> bytes:
    params = curve_by_id(pub.curve_id)
    points = (pub.c, pub.d, pub.h)
    if any(point.is_identity for point in points):
        raise ValueError("public key points must not be the identity")
    body = b"".join(compress(params, point) for point in points)
    return _pack(KIND_PUBLIC_KEY, pub.curve_id, body)


def parse_public_key(data: bytes) -> PublicKey:
    envelope = parse_envelope(data)
    params = _expect_kind(envelope, KIND_PUBLIC_KEY)
    reader = _Reader(envelope.body)
    points = [_read_point(reader, params) for _ in range(3)]
    reader.finish()
    if any(point.is_identity for point in points):
        raise ParseError("public key points must not be the identity")
    return PublicKey(params.curve_id, *points)


# --- private keys ---------------------------------------------------------


def serialize_private_key(priv: PrivateKey) -> bytes:
    params = curve_by_id(priv.curve_id)
    width = params.scalar_bytes
    scalars = (priv.x1, priv.x2, priv.y1, priv.y2, priv.z)
    if not all(1 <= s < params.n for s in scalars):
        raise ValueError("secret scalar outside [1, n-1]")
    body = b"".join(s.to_bytes(width, "big") for s in scalars)
    return _pack(KIND_PRIVATE_KEY, priv.curve_id, body)


def parse_private_key(data: bytes) -> PrivateKey:
    envelope = parse_envelope(data)
    params = _expect_kind(envelope, KIND_PRIVATE_KEY)
    reader = _Reader(envelope.body)
    scalars = [_read_scalar(reader, params) for _ in range(5)]
    reader.finish()
    return PrivateKey(params.curve_id, *scalars)


# --- ciphertexts ----------------------------------------------------------


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    params = curve_by_id(ct.curve_id)
    total = len(ct.chunks)
    if not 1 <= total <= 0xFFFFFFFF:
        raise ValueError("ciphertext must carry between 1 and 2**32-1 chunks")
    parts = [total.to_bytes(4, "big")]
    for chunk in ct.chunks:
        for point in (chunk.u1, chunk.u2, chunk.e, chunk.v):
            parts.append(compress(params, point))
    return _pack(KIND_CIPHERTEXT, ct.curve_id, b"".join(parts))


def parse_ciphertext(data: bytes) -> Ciphertext:
    """The ciphertext in data; any fault raises ``ParseError``.

    The whole structure is checked here first: header, chunk count,
    every point's length and the end of the input.  That scan only
    slices bytes.  The points are then decompressed, one square root
    each, over the slices of ``ecs._fan_out``; a child that meets a bad
    point sends nothing, so its slice is decompressed again here and
    raises.  Either way the first fault in input order speaks: a
    structural fault raises only after the points before it have been
    decompressed.
    """
    envelope = parse_envelope(data)
    params = _expect_kind(envelope, KIND_CIPHERTEXT)
    reader = _Reader(envelope.body)
    total = int.from_bytes(reader.take(4), "big")
    if total == 0:
        raise ParseError("ciphertext with zero chunks")
    encodings = []
    try:
        for _ in range(4 * total):
            encodings.append(_take_point(reader, params))
        reader.finish()
    except ParseError:
        for encoding in encodings:
            decompress(params, encoding)
        raise

    def chunk_points(index: int) -> list:
        return [decompress(params, encoding) for encoding in encodings[4 * index : 4 * index + 4]]

    return Ciphertext(params.curve_id, _fan_out_chunks(chunk_points, total))


# --- ASCII armor ----------------------------------------------------------


def armor(data: bytes, label: str) -> str:
    """PEM-style wrapping: BEGIN/END lines around 64-column base64."""
    if label not in _LABELS:
        raise ValueError(f"unknown armor label {label!r}")
    encoded = base64.b64encode(data).decode("ascii")
    lines = [f"-----BEGIN {label}-----"]
    lines.extend(
        encoded[i : i + _ARMOR_WIDTH] for i in range(0, len(encoded), _ARMOR_WIDTH)
    )
    lines.append(f"-----END {label}-----")
    return "\n".join(lines) + "\n"


def dearmor(text: str) -> tuple[str, bytes]:
    """Inverse of ``armor``; returns (label, payload).

    Strict framing: recognized label, matching BEGIN/END lines, valid
    base64 in between.  Leading/trailing blank lines are tolerated,
    nothing else.
    """
    lines = [line.rstrip("\r") for line in text.strip().split("\n")]
    first = lines[0]
    if not (first.startswith("-----BEGIN ") and first.endswith("-----")):
        raise ParseError("missing armor header")
    label = first[len("-----BEGIN ") : -len("-----")]
    if label not in _LABELS:
        raise ParseError(f"unknown armor label {label!r}")
    if lines[-1] != f"-----END {label}-----":
        raise ParseError("missing or mismatched armor footer")
    blob = "".join(lines[1:-1])
    if not blob:
        raise ParseError("empty armor body")
    if any(ch.isspace() for ch in blob):
        raise ParseError("whitespace inside armor body")
    try:
        data = base64.b64decode(blob, validate=True)
    except ValueError as exc:
        raise ParseError(f"bad base64 payload: {exc}") from None
    return label, data


def unarmor(raw: bytes) -> bytes:
    """The binary payload of raw, dearmored if it is armored.

    An armor label must name the payload's own envelope kind; whether
    that kind is the one the caller wants is the parser's check.
    """
    if raw.lstrip()[:11] != b"-----BEGIN ":
        return raw
    try:
        label, data = dearmor(raw.decode("ascii"))
    except UnicodeDecodeError:
        raise ParseError("armored input is not ASCII") from None
    if _LABELS[label] != parse_envelope(data).kind:
        raise ParseError(f"armor label {label!r} does not match the content")
    return data
