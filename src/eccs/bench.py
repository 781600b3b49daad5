"""Benchmark harness with an EC-ElGamal comparison baseline.

Measures keygen/encrypt/decrypt wall time and exact group-operation
counts for this package's scheme and for textbook EC-ElGamal on the same
curve and message codec.  Timing numbers are informative only; the
operation counts are exact and asserted by tests.

The ElGamal baseline is NOT CCA-secure - its ciphertexts are malleable
by construction - and exists purely as a cost yardstick and as the
contrast case for the tamper-rejection tests.

For systems this package does not implement (RSA, ECDH, SIDH, Kyber and
a big-integer Cramer-Shoup), the report quotes published figures, tagged
as literature values, instead of pretending to measure them.
"""

from __future__ import annotations

import time

from . import codec
from .curve import (
    CurveParams,
    CurvePoint,
    compress,
    count_ops,
    get_curve,
    point_add,
    point_negate,
    scalar_mult,
)
from .ecs import decrypt, encrypt, keygen, sample_scalar
from .record import Record
from .wire import serialize_private_key, serialize_public_key

# 28 bytes -> a single chunk on secp256k1 (capacity 30)
DEFAULT_MESSAGE = b"lightweight curve encryption"

_WARMUP_ITERS = 3


# --- EC-ElGamal baseline --------------------------------------------------


def elgamal_keygen(params: CurveParams, rng=None) -> tuple[int, CurvePoint]:
    """Secret scalar z and public point h = z * g1."""
    z = sample_scalar(params.n, rng)
    return z, scalar_mult(params, params.g1, z)


def elgamal_encrypt(
    params: CurveParams, h: CurvePoint, m_point: CurvePoint, rng=None
) -> tuple[CurvePoint, CurvePoint]:
    """(u, e) = (r * g1, r * h + m); malleable, no integrity binding."""
    r = sample_scalar(params.n, rng)
    u = scalar_mult(params, params.g1, r)
    e = point_add(params, scalar_mult(params, h, r), m_point)
    return u, e


def elgamal_decrypt(
    params: CurveParams, z: int, pair: tuple[CurvePoint, CurvePoint]
) -> CurvePoint:
    """m = e - z * u; accepts anything, there is no validity check."""
    u, e = pair
    return point_add(params, e, point_negate(params, scalar_mult(params, u, z)))


def elgamal_encrypt_message(
    params: CurveParams, h: CurvePoint, message: bytes, rng=None
) -> list[tuple[CurvePoint, CurvePoint]]:
    return [
        elgamal_encrypt(params, h, codec.encode_chunk(params, piece), rng)
        for piece in codec.split_message(params, message)
    ]


def elgamal_decrypt_message(params: CurveParams, z: int, pairs) -> bytes:
    return codec.join_message(
        [codec.decode_chunk(params, elgamal_decrypt(params, z, pair)) for pair in pairs]
    )


# --- report types ---------------------------------------------------------


class OpStats(Record):
    """One operation's measured profile: name, median_ms, p90_ms and its op counts."""

    __slots__ = ("name", "median_ms", "p90_ms", "scalar_mults", "point_adds", "negations", "hashes")


class AlgorithmReport(Record):
    """One scheme's key sizes, a tuple of ``OpStats`` and a note."""

    __slots__ = ("name", "public_key_bytes", "private_key_bytes", "ops", "note")


class BenchReport(Record):
    """The run's settings, a tuple of ``AlgorithmReport`` and a tuple of notes."""

    __slots__ = ("curve", "message_bytes", "iterations", "host", "algorithms", "notes")


# Published comparison figures (milliseconds on an Intel Core i7-8565U,
# reference implementations; key sizes as printed).  Quoted, not
# measured here; "init" covers key generation / setup.
LITERATURE_SOURCE = "literature"
LITERATURE_ROWS = (
    dict(system="RSA (4096)", pub="512 B", priv="512 B", enc_ms="116", dec_ms="4", init_ms="17700"),
    dict(system="ECC-ElGamal (256)", pub="32 B", priv="32 B", enc_ms="19", dec_ms="7", init_ms="397"),
    dict(system="Cramer-Shoup classic (256)", pub="1 KB", priv="1 KB", enc_ms="3", dec_ms="1", init_ms="3"),
    dict(system="this scheme (256), as published", pub="64 B", priv="64 B", enc_ms="41", dec_ms="43", init_ms="473"),
    dict(system="ECDH (secp256k1)", pub="32 B", priv="32 B", enc_ms="-", dec_ms="-", init_ms="682"),
    dict(system="SIDH (P751)", pub="564 B", priv="48 B", enc_ms="-", dec_ms="-", init_ms="687"),
    dict(system="Kyber (1024)", pub="1.5 KB", priv="3.1 KB", enc_ms="2", dec_ms="4", init_ms="152"),
)

KEY_SIZE_NOTE = (
    "the published table lists 64 B for both keys of this scheme, which no "
    "serialization of 3 points + 5 scalars at 256 bits can meet; measured "
    "sizes are reported above and the published figure is quoted as-is"
)


def _time_op(fn, iterations: int) -> tuple[float, float]:
    import statistics  # here, not at the top: a one-shot CLI process never needs it

    for _ in range(_WARMUP_ITERS):
        fn()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    samples.sort()
    median = statistics.median(samples)
    p90 = samples[min(len(samples) - 1, round(0.9 * (len(samples) - 1)))]
    return median, p90


def _profile(name: str, fn, iterations: int) -> OpStats:
    median, p90 = _time_op(fn, iterations)
    with count_ops() as ops:
        fn()
    return OpStats(
        name,
        median,
        p90,
        ops.scalar_mults,
        ops.point_adds,
        ops.negations,
        ops.hashes,
    )


def run_suite(iterations: int = 25) -> BenchReport:
    """Measure both schemes on DEFAULT_MESSAGE; at least 10 iterations for stable quantiles."""
    import platform  # here, not at the top: a one-shot CLI process never needs it

    if iterations < 10:
        raise ValueError("need at least 10 iterations")
    params = get_curve("secp256k1")
    message = DEFAULT_MESSAGE

    priv, pub = keygen(params)
    ciphertext = encrypt(pub, message)
    ours = AlgorithmReport(
        "eccs",
        len(serialize_public_key(pub)),
        len(serialize_private_key(priv)),
        (
            _profile("keygen", lambda: keygen(params), iterations),
            _profile("encrypt", lambda: encrypt(pub, message), iterations),
            _profile("decrypt", lambda: decrypt(priv, ciphertext), iterations),
        ),
        "",
    )

    z, h = elgamal_keygen(params)
    pairs = elgamal_encrypt_message(params, h, message)
    baseline = AlgorithmReport(
        "ec-elgamal",
        len(compress(params, h)),
        params.scalar_bytes,
        (
            _profile("keygen", lambda: elgamal_keygen(params), iterations),
            _profile(
                "encrypt",
                lambda: elgamal_encrypt_message(params, h, message),
                iterations,
            ),
            _profile("decrypt", lambda: elgamal_decrypt_message(params, z, pairs), iterations),
        ),
        "baseline only, malleable, not CCA-secure; key sizes are raw, no envelope",
    )

    host = f"{platform.python_implementation()} {platform.python_version()} on {platform.machine() or 'unknown'}"
    return BenchReport(params.name, len(message), iterations, host, (ours, baseline), (KEY_SIZE_NOTE,))


def format_report(report: BenchReport) -> str:
    """Aligned human-readable table followed by machine-readable lines."""
    lines = [
        f"curve={report.curve} message={report.message_bytes}B "
        f"iterations={report.iterations} host={report.host}",
        "",
        f"{'algorithm':<12} {'op':<8} {'median ms':>10} {'p90 ms':>10} "
        f"{'smul':>5} {'padd':>5} {'neg':>4} {'hash':>5}",
    ]
    for algo in report.algorithms:
        for op in algo.ops:
            lines.append(
                f"{algo.name:<12} {op.name:<8} {op.median_ms:>10.3f} "
                f"{op.p90_ms:>10.3f} {op.scalar_mults:>5} {op.point_adds:>5} "
                f"{op.negations:>4} {op.hashes:>5}"
            )
    lines.append("")
    for algo in report.algorithms:
        sizes = f"{algo.name}: public key {algo.public_key_bytes} B, private key {algo.private_key_bytes} B"
        if algo.note:
            sizes += f"  ({algo.note})"
        lines.append(sizes)
    lines.append("")
    lines.append(f"published figures, quoted not measured [{LITERATURE_SOURCE}]:")
    lines.append(
        f"  {'system':<32} {'pub':>7} {'priv':>7} {'enc ms':>7} {'dec ms':>7} {'init ms':>8}"
    )
    for row in LITERATURE_ROWS:
        lines.append(
            f"  {row['system']:<32} {row['pub']:>7} {row['priv']:>7} "
            f"{row['enc_ms']:>7} {row['dec_ms']:>7} {row['init_ms']:>8}"
        )
    lines.append("")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    for algo in report.algorithms:
        prefix = algo.name.replace("-", "_")
        lines.append(f"{prefix}.public_key_bytes={algo.public_key_bytes}")
        lines.append(f"{prefix}.private_key_bytes={algo.private_key_bytes}")
        for op in algo.ops:
            lines.append(f"{prefix}.{op.name}.median_ms={op.median_ms:.3f}")
            lines.append(f"{prefix}.{op.name}.p90_ms={op.p90_ms:.3f}")
            lines.append(f"{prefix}.{op.name}.scalar_mults={op.scalar_mults}")
            lines.append(f"{prefix}.{op.name}.point_adds={op.point_adds}")
            lines.append(f"{prefix}.{op.name}.negations={op.negations}")
            lines.append(f"{prefix}.{op.name}.hashes={op.hashes}")
    return "\n".join(lines) + "\n"
