"""Reversible byte-string-to-point encoding.

A chunk of at most ``chunk_capacity`` bytes becomes the x coordinate of
a curve point: a one-byte pad counter, a one-byte length, the data, and
a zero fill.  The pad counter is bumped until the resulting x is both
below p and the x of an actual curve point (about half of all x values
are; 256 attempts fail with probability around 2**-256).  Each candidate
x costs one square-root attempt, which doubles as the square test.

The embedded length plus the zero-fill check make decoding strict: a
point that did not come out of ``encode_chunk`` is overwhelmingly likely
to be rejected rather than silently decoded to garbage.
"""

from __future__ import annotations

from .curve import CurveParams, CurvePoint, _lift_x

# [pad][length] prefix ahead of the data inside the x coordinate
_OVERHEAD = 2


def chunk_capacity(params: CurveParams) -> int:
    """Payload bytes per point; 16 bits are reserved for pad and length."""
    capacity = (params.p.bit_length() - 8 * _OVERHEAD) // 8
    if capacity < 1:
        raise ValueError(
            f"curve {params.name!r} is too small to embed messages in coordinates"
        )
    return capacity


def encode_chunk(params: CurveParams, data: bytes) -> CurvePoint:
    """Map data to a point; deterministic (smallest workable pad wins)."""
    capacity = chunk_capacity(params)
    if len(data) > capacity:
        raise ValueError(f"chunk of {len(data)} bytes exceeds capacity {capacity}")
    body = bytes([len(data)]) + data + bytes(capacity - len(data))
    for pad in range(256):
        x = int.from_bytes(bytes([pad]) + body, "big")
        if x >= params.p:
            continue
        y = _lift_x(params.p, params.b, x)
        if y is not None:  # else x^3 + b is not a square: try the next pad
            return CurvePoint(x, y)
    raise ValueError("no curve point found for chunk (pad counter exhausted)")


def decode_chunk(params: CurveParams, point: CurvePoint) -> bytes:
    """Recover the bytes embedded in a point's x coordinate.

    Rejects the identity, length bytes beyond capacity, and any nonzero
    fill: those canaries distinguish decrypted garbage from real chunks.
    """
    capacity = chunk_capacity(params)
    if point.is_identity:
        raise ValueError("identity point carries no chunk")
    raw = point.x.to_bytes(params.coord_bytes, "big")
    head = len(raw) - (capacity + _OVERHEAD)
    if head and any(raw[:head]):
        raise ValueError("x coordinate too large for a chunk encoding")
    layout = raw[head:]
    length = layout[1]
    if length > capacity:
        raise ValueError("embedded length exceeds capacity")
    data = layout[_OVERHEAD : _OVERHEAD + length]
    if any(layout[_OVERHEAD + length :]):
        raise ValueError("nonzero fill after embedded data")
    return data


def split_message(params: CurveParams, message: bytes) -> list[bytes]:
    """Cut a message into capacity-sized chunks; empty message -> one empty chunk."""
    capacity = chunk_capacity(params)
    if not message:
        return [b""]
    return [message[i : i + capacity] for i in range(0, len(message), capacity)]


def join_message(chunks: list[bytes]) -> bytes:
    return b"".join(chunks)
