"""Cramer-Shoup encryption over the curve groups of :mod:`eccs.curve`.

The scheme encrypts one curve point per chunk under an ElGamal-style
mask and attaches a validity point V bound, through a hash, to the whole
chunk and its position in the message.  Decryption recomputes V from the
private key and rejects on mismatch, which is what buys chosen-
ciphertext security: tampered or replayed chunks fail before any
plaintext is released.

Secret-dependent work is confined to the curve's multi-scalar core,
``linear_combinations``, and its one-term case ``scalar_mult`` (a fixed
sequence of operations with masked table scans), and to a comparison
with no early exit; there are no secret-indexed lookups, the only early exit
ahead of the validity check is the public membership check on the
chunk's points, and a message is rejected only after all of its chunks
have been decrypted.  Decryption computes on fresh copies of the mask
points, which no fixed-base table reaches, so every forgery that parses
costs the group work of a valid message, whatever its mask points equal.
Key generation and decryption hand their sums of products to the core in
one call each, so they share rows, doublings and the final inversion.

A whole message uses the CPUs the process may run on
(``os.sched_getaffinity``; ``taskset`` limits them): ``encrypt``,
``decrypt`` and ``wire.parse_ciphertext`` map a per-chunk function
through ``_fan_out``, which computes one slice of chunks per CPU, the
first here and each other in a forked child.  Every r is drawn in chunk
order before any work is split, so the result is the one a single
process computes, byte for byte.
"""

from __future__ import annotations

import marshal
import os
import sys
from functools import reduce
from operator import or_, xor

from . import codec
from .curve import (
    CurveParams,
    CurvePoint,
    _tally,
    compress,
    count_ops,
    curve_by_id,
    is_on_curve,
    linear_combinations,
    point_add,
    point_negate,
    scalar_mult,
    sha3_256,
)
from .errors import InvalidCiphertext
from .field import _SYSTEM_RNG
from .record import Record

# Domain-separation label for the validity hash.
_HASH_LABEL = b"ECCS-v1-alpha"

# Fewest chunks a process of a fanned-out message computes.  A fork, its
# pipe and its reaping took 1.8-3.6 ms in a 20 MiB process, against about
# 5 ms per secp256k1 chunk, so a slice of one chunk saves little or
# nothing; a message of 1 to 3 chunks stays in one process.
_SLICE_AT_CHUNKS = 2


class PrivateKey(Record):
    """Five secret scalars in [1, n-1]; its repr shows none of them."""

    __slots__ = ("curve_id", "x1", "x2", "y1", "y2", "z")

    def __repr__(self) -> str:
        return f"PrivateKey(curve_id={self.curve_id:#04x}, <secret>)"


class PublicKey(Record):
    """Commitments c = x1*g1 + x2*g2, d = y1*g1 + y2*g2, h = z*g1."""

    __slots__ = ("curve_id", "c", "d", "h")


class CiphertextChunk(Record):
    """One encrypted point: mask pair (u1, u2), payload e, validity v."""

    __slots__ = ("u1", "u2", "e", "v")


class Ciphertext(Record):
    """A message's chunks, in order, on one curve."""

    __slots__ = ("curve_id", "chunks")


def sample_scalar(n: int, rng=None) -> int:
    """Uniform scalar in [1, n-1] by rejection sampling.

    Draws n.bit_length() bits and retries until the value lands in
    range, so no modular folding bias; rng must expose getrandbits.
    Every secret scalar is drawn here, by ``keygen`` and ``encrypt``
    (and ``bench``'s baseline).  None means ``field._SYSTEM_RNG``, the
    operating system's entropy, which the package's other draws share.
    """
    if rng is None:
        rng = _SYSTEM_RNG
    bits = n.bit_length()
    while True:
        k = rng.getrandbits(bits)
        if 1 <= k < n:
            return k


def keygen(params: CurveParams, rng=None) -> tuple[PrivateKey, PublicKey]:
    """Fresh key pair; rng defaults to the operating system's entropy."""
    n = params.n
    x1, x2, y1, y2, z = (sample_scalar(n, rng) for _ in range(5))
    g1, g2 = params.g1, params.g2
    c, d, h = linear_combinations(
        params, [[(g1, x1), (g2, x2)], [(g1, y1), (g2, y2)], [(g1, z)]]
    )
    if c.is_identity or d.is_identity:  # a key that encryption refuses; h = z*g1 never is
        return keygen(params, rng)  # so all five scalars are drawn again
    private = PrivateKey(params.curve_id, x1, x2, y1, y2, z)
    public = PublicKey(params.curve_id, c, d, h)
    return private, public


def chunk_header(index: int, total: int) -> bytes:
    """Position tag hashed into each chunk: 32-bit index and chunk count.

    Binding the position prevents reordering or truncating multi-chunk
    messages without tripping the validity check.
    """
    if not 0 <= index < total <= 0xFFFFFFFF:
        raise ValueError("chunk index/total out of range")
    return index.to_bytes(4, "big") + total.to_bytes(4, "big")


def hash_to_scalar(
    params: CurveParams,
    header: bytes,
    u1: CurvePoint,
    u2: CurvePoint,
    e: CurvePoint,
) -> int:
    """SHA3-256 over label, curve id, header and the compressed points, mod n."""
    _tally("hashes")
    digest = sha3_256(
        _HASH_LABEL
        + bytes([params.curve_id])
        + header
        + compress(params, u1)
        + compress(params, u2)
        + compress(params, e)
    ).digest()
    return int.from_bytes(digest, "big") % params.n


def encrypt_chunk(
    pub: PublicKey, m_point: CurvePoint, header: bytes, r: int
) -> CiphertextChunk:
    """Encrypt one message point under r, which the caller draws and never reuses.

    ``ValueError`` for an r outside [1, n-1] (``TypeError`` for another
    non-int) and, before any scalar work, for a key whose c, d or h is
    the identity: an identity h would leave e equal to m_point.
    """
    params = curve_by_id(pub.curve_id)
    if not 1 <= r < params.n:
        raise ValueError("ephemeral scalar outside [1, n-1]")
    if pub.c.is_identity or pub.d.is_identity or pub.h.is_identity:
        raise ValueError("public key has an identity point")
    u1 = scalar_mult(params, params.g1, r)
    u2 = scalar_mult(params, params.g2, r)
    e = point_add(params, scalar_mult(params, pub.h, r), m_point)
    alpha = hash_to_scalar(params, header, u1, u2, e)
    r_alpha = r * alpha % params.n
    v = point_add(
        params, scalar_mult(params, pub.c, r), scalar_mult(params, pub.d, r_alpha)
    )
    return CiphertextChunk(u1, u2, e, v)


def _equal_bytes(a: bytes, b: bytes) -> bool:
    """a == b, found by folding every byte pair: no exit at the first difference.

    The lengths are public (a compressed point or the 1-byte identity).
    """
    return not reduce(or_, map(xor, a, b), len(a) ^ len(b))


def decrypt_chunk(
    priv: PrivateKey, chunk: CiphertextChunk, header: bytes
) -> CurvePoint:
    """Recover the message point, or raise ``InvalidCiphertext``.

    A chunk whose u1 or u2 is the identity is refused: honest encryption
    never makes one (r is in [1, n-1]), and a chunk with u1 = u2 = v =
    identity would pass the validity check and decrypt to its e under
    every key.  It is refused after the same group work as any other
    chunk: the chunk is hashed as it is, and the core call gets g1 in
    place of an identity u1 and g2 in place of an identity u2.  The core
    works on a fresh copy of each of its two bases, so neither has a
    fixed-base table or shares rows with the other, whatever its value.
    The expected validity point and the candidate plaintext are both
    computed before the comparison, and the comparison itself runs over
    compressed encodings via ``_equal_bytes``, which has no early exit;
    nothing about the failure mode distinguishes which part of the chunk
    was bad.  A ``PackageDataError`` (a damaged install, not a bad
    chunk) is no ``ValueError`` and passes through.
    """
    try:
        params = curve_by_id(priv.curve_id)
        u1, u2, e, v = chunk.u1, chunk.u2, chunk.e, chunk.v
        for point in (u1, u2, e, v):
            if not is_on_curve(params, point):
                raise InvalidCiphertext
        n = params.n
        alpha = hash_to_scalar(params, header, u1, u2, e)
        s1 = (priv.x1 + alpha * priv.y1) % n
        s2 = (priv.x2 + alpha * priv.y2) % n
        b1, b2 = (g if u.is_identity else u for u, g in ((u1, params.g1), (u2, params.g2)))
        # fresh copies: no base reaches a fixed-base table or shares another's rows
        b1, b2 = CurvePoint(b1.x, b1.y), CurvePoint(b2.x, b2.y)
        expected_v, mask = linear_combinations(
            params, [[(b1, s1), (b2, s2)], [(b1, priv.z)]]
        )
        m_point = point_add(params, e, point_negate(params, mask))
        valid = _equal_bytes(compress(params, expected_v), compress(params, v))
        if not valid or u1.is_identity or u2.is_identity:
            raise InvalidCiphertext
        return m_point
    except (ValueError, TypeError, AttributeError):
        raise InvalidCiphertext from None


def _slices(count: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) slices of range(count), one per process.

    One per CPU the process may run on, as long as every slice gets
    ``_SLICE_AT_CHUNKS`` chunks.  One slice where ``fork`` or
    ``sched_getaffinity`` is missing, and in a process with other
    threads: a fork copies the locks they hold but not the threads that
    would release them.  The cut depends only on the count and the CPU
    set.
    """
    cpus = 1
    threading = sys.modules.get("threading")  # no Python thread runs unless it is loaded
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        if threading is None or threading.active_count() == 1:
            cpus = len(os.sched_getaffinity(0))
    processes = max(1, min(cpus, count // _SLICE_AT_CHUNKS))
    bounds = [count * i // processes for i in range(processes + 1)]
    return list(zip(bounds, bounds[1:]))


def _fork(fn, start: int, stop: int, pipes: list):
    """(pid, read end) of a child that sends ``fn(index)`` over its slice; None if fork fails.

    ``pipes`` are the read ends the caller holds already.  The child
    closes them and its own read end first, so each read end lives only
    in the caller, as a file object whose second ``close`` does nothing.
    The child inherits the key, the tables and the input; a parsing
    child's ``fn`` uses no key and sends back the coordinates of public
    points.  It writes its result and its ``count_ops`` tally to the pipe
    as ``marshal`` data, and leaves by ``os._exit``, with status 0 only
    once all of it is written.  Whatever happens in it, even an
    interrupt or a read end closed by the caller, ends there: it prints
    nothing and never returns into the caller's code.  The uses it makes
    of each base, and any table it builds, end with it.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        for pipe in pipes:
            pipe.close()
        os.close(read)
        with count_ops() as ops:
            result = [fn(index) for index in range(start, stop)]
        data = memoryview(marshal.dumps((result, vars(ops))))
        while data:
            data = data[os.write(write, data) :]
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int) -> None:
    """Wait for the child; one reaped already by the caller's SIGCHLD handling is done."""
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _collect(pipe, size: int):
    """The child's whole result, its tally added to the caller's; None otherwise.

    Reads the pipe to its end.  A child is judged by its data alone: it
    writes only once its work is done, so a result that loads whole at
    the slice's size is the verdict, whatever its exit status, and a
    child reaped by the caller's SIGCHLD handling is judged the same way.
    """
    try:
        result, tally = marshal.loads(pipe.read())
    except (EOFError, ValueError, TypeError):
        return None
    if len(result) != size:
        return None
    for op, count in tally.items():
        _tally(op, count)
    return result


def _fan_out(fn, count: int) -> list:
    """[fn(index) for index in range(count)], over ``_slices(count)``.

    This process computes the first slice, and a forked child each
    other.  A slice whose fork fails, or whose child ends without a
    whole result, is computed here, so children only add speed.  On any
    exit, an exception or interrupt included, every read end is closed,
    which ends a child blocked in a full pipe, and every child is reaped
    once its current slice ends.
    """
    slices = _slices(count)
    children = {}  # start of a forked slice -> (pid, read end)
    try:
        for start, stop in slices[1:]:
            child = _fork(fn, start, stop, [pipe for _pid, pipe in children.values()])
            if child is not None:
                children[start] = child
        results = []
        for start, stop in slices:
            got = _collect(children[start][1], stop - start) if start in children else None
            results += [fn(index) for index in range(start, stop)] if got is None else got
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            _reap(pid)


def _fan_out_chunks(chunk_points, count: int) -> tuple[CiphertextChunk, ...]:
    """Chunks 0 .. count-1 from ``chunk_points(index)``; a child sends their points' (x, y) pairs."""

    def pairs(index: int) -> tuple:
        return tuple((point.x, point.y) for point in chunk_points(index))

    return tuple(
        CiphertextChunk(*(CurvePoint(x, y) for x, y in points))
        for points in _fan_out(pairs, count)
    )


def encrypt(pub: PublicKey, message: bytes, rng=None) -> Ciphertext:
    """Encrypt an arbitrary byte string as a sequence of bound chunks.

    Every r is drawn from rng in chunk order before any work is split,
    so the ciphertext does not depend on the number of CPUs.
    """
    params = curve_by_id(pub.curve_id)
    pieces = codec.split_message(params, message)
    total = len(pieces)
    rs = [sample_scalar(params.n, rng) for _ in pieces]

    def chunk_points(index: int) -> tuple:
        m_point = codec.encode_chunk(params, pieces[index])
        chunk = encrypt_chunk(pub, m_point, chunk_header(index, total), rs[index])
        return chunk.u1, chunk.u2, chunk.e, chunk.v

    return Ciphertext(params.curve_id, _fan_out_chunks(chunk_points, total))


def decrypt(priv: PrivateKey, ciphertext: Ciphertext) -> bytes:
    """Decrypt a full message; any failure raises ``InvalidCiphertext``.

    Every chunk is decrypted and decoded before the message is accepted
    or rejected as a whole, so the work done, and with it the time taken,
    does not depend on which chunk is bad.  A rejected chunk decodes its
    public e point in place of the message point it did not yield.
    """
    try:
        if ciphertext.curve_id != priv.curve_id:
            raise InvalidCiphertext
        params = curve_by_id(priv.curve_id)
        chunks = ciphertext.chunks
        total = len(chunks)
        if total == 0:
            raise InvalidCiphertext

        def verdict(index: int) -> tuple[bool, bytes]:
            chunk, ok = chunks[index], True
            try:
                point = decrypt_chunk(priv, chunk, chunk_header(index, total))
            except InvalidCiphertext:
                ok, point = False, chunk.e
            try:
                return ok, codec.decode_chunk(params, point)
            except ValueError:
                return False, b""

        results = _fan_out(verdict, total)
        if not all(ok for ok, _piece in results):
            raise InvalidCiphertext
        return codec.join_message([piece for _ok, piece in results])
    except (ValueError, TypeError, AttributeError):
        raise InvalidCiphertext from None
