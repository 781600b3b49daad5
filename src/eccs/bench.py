"""Benchmark harness with an EC-ElGamal comparison baseline.

``run_suite`` measures keygen, encrypt and decrypt for this package's
scheme and for textbook EC-ElGamal on the same curve and message codec,
and returns one flat mapping in print order: ``curve``, ``message_bytes``,
``iterations`` and ``host``; then, for each scheme PREFIX (``eccs``,
``ec_elgamal``), ``PREFIX.public_key_bytes`` and ``PREFIX.private_key_bytes``,
and for each op (``keygen``, ``encrypt``, ``decrypt``) ``PREFIX.OP.median_ms``
and ``.p90_ms``, the wall time, and ``.scalar_mults``, ``.point_adds``,
``.negations`` and ``.hashes``, the exact operation counts of one call.
``format_report`` prints it as a table, then its items after the four
header keys as ``key=value`` lines.  Timing numbers are informative only;
the operation counts are exact and asserted by tests.

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

_NOTES = {"ec_elgamal": "baseline only, malleable, not CCA-secure; key sizes are raw, no envelope"}

_OPS = ("keygen", "encrypt", "decrypt")
_FIELDS = ("median_ms", "p90_ms", "scalar_mults", "point_adds", "negations", "hashes")
_ROW = "{:<12} {:<8} {:>10.3f} {:>10.3f} {:>5} {:>5} {:>4} {:>5}"


def _measure(fn, iterations: int) -> tuple:
    """Median and p90 ms of ``iterations`` timed calls, then one counted call's four counts.

    p90 is the nearest-rank sample, rank ceil(0.9 n), the rule of
    perfbench's ``percentile``.
    """
    for _ in range(_WARMUP_ITERS):
        fn()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    samples.sort()
    median = (samples[(iterations - 1) // 2] + samples[iterations // 2]) / 2
    p90 = samples[-(-9 * iterations // 10) - 1]
    with count_ops() as ops:
        fn()
    return median, p90, ops.scalar_mults, ops.point_adds, ops.negations, ops.hashes


def run_suite(iterations: int = 25) -> dict:
    """Measure both schemes on DEFAULT_MESSAGE; at least 10 iterations for stable quantiles.

    Returns ``curve``, ``message_bytes``, ``iterations`` and ``host``, then,
    under the prefixes ``eccs.`` and ``ec_elgamal.``, ``public_key_bytes``,
    ``private_key_bytes`` and, for each op, ``OP.median_ms``, ``OP.p90_ms``,
    ``OP.scalar_mults``, ``OP.point_adds``, ``OP.negations`` and ``OP.hashes``.
    """
    import platform  # here, not at the top: a one-shot CLI process never needs it

    if iterations < 10:
        raise ValueError("need at least 10 iterations")
    params = get_curve("secp256k1")
    message = DEFAULT_MESSAGE
    report = {
        "curve": params.name,
        "message_bytes": len(message),
        "iterations": iterations,
        "host": f"{platform.python_implementation()} {platform.python_version()} on {platform.machine() or 'unknown'}",
    }

    priv, pub = keygen(params)
    ciphertext = encrypt(pub, message)
    z, h = elgamal_keygen(params)
    pairs = elgamal_encrypt_message(params, h, message)
    schemes = (
        ("eccs", len(serialize_public_key(pub)), len(serialize_private_key(priv)),
         (lambda: keygen(params), lambda: encrypt(pub, message), lambda: decrypt(priv, ciphertext))),
        ("ec_elgamal", len(compress(params, h)), params.scalar_bytes,
         (lambda: elgamal_keygen(params), lambda: elgamal_encrypt_message(params, h, message),
          lambda: elgamal_decrypt_message(params, z, pairs))),
    )
    for prefix, public_bytes, private_bytes, fns in schemes:
        report[f"{prefix}.public_key_bytes"] = public_bytes
        report[f"{prefix}.private_key_bytes"] = private_bytes
        for op, fn in zip(_OPS, fns):
            for field, value in zip(_FIELDS, _measure(fn, iterations)):
                report[f"{prefix}.{op}.{field}"] = value
    return report


def format_report(report: dict) -> str:
    """Aligned human-readable table of ``run_suite``'s mapping, then its measured items as ``key=value``."""
    measured = [(key, value) for key, value in report.items() if "." in key]
    prefixes = [key.split(".")[0] for key, _ in measured if key.endswith(".public_key_bytes")]
    lines = [
        f"curve={report['curve']} message={report['message_bytes']}B "
        f"iterations={report['iterations']} host={report['host']}",
        "",
        f"{'algorithm':<12} {'op':<8} {'median ms':>10} {'p90 ms':>10} "
        f"{'smul':>5} {'padd':>5} {'neg':>4} {'hash':>5}",
    ]
    for prefix in prefixes:
        for op in _OPS:
            values = (report[f"{prefix}.{op}.{field}"] for field in _FIELDS)
            lines.append(_ROW.format(prefix.replace("_", "-"), op, *values))
    lines.append("")
    for prefix in prefixes:
        sizes = (
            f"{prefix.replace('_', '-')}: public key {report[prefix + '.public_key_bytes']} B, "
            f"private key {report[prefix + '.private_key_bytes']} B"
        )
        if prefix in _NOTES:
            sizes += f"  ({_NOTES[prefix]})"
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
    lines += ["", f"note: {KEY_SIZE_NOTE}", ""]
    lines += [f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}" for key, value in measured]
    return "\n".join(lines) + "\n"
