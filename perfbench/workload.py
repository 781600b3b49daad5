"""One benchmark workload in a fresh Python process.

run.py starts it as

    python perfbench/workload.py WORKLOAD SEED SECONDS TRACE [--setup-only]

with the checkout's ``src`` first on PYTHONPATH, and reads the single
JSON line it prints.  Import, the first ``get_curve`` and the workload's
key material are paid here, as a user pays them, before the first timed
op.  Load is a closed loop: one client, no threads, each op starts when
the previous one has finished.  Every input comes from SEED.

Only names, times, counts and exit codes leave this process: never a
scalar, key, plaintext or argument value.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans

import eccs
from eccs import codec, curve, ecs, wire
from eccs.errors import InvalidCiphertext, ParseError

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
CLI_HELPER = HERE / "cli_child.py"

MESSAGE_BYTES = 28  # len(eccs.bench.DEFAULT_MESSAGE): one chunk
BULK_BYTES = 4096
POOL_KEYS = 32  # many-keys-short key pairs made in set-up; later ones per op
SPLICE_EVERY = 8
CHILD_TIMEOUT_S = 60
REJECT_LINE = b"error: invalid ciphertext\n"

# logical op counts per encrypted chunk: a pinned contract of the scheme
ENC_CHUNK_CONTRACT = {"scalar_mults": 5, "point_adds": 2, "hashes": 1}

# The host's speed drifts by tens of percent over minutes on shared machines.
# A fixed big-int loop, run untimed between ops for REF_SHARE of the run,
# tracks that drift; run.py scales the gated timings to a host that runs
# REF_ITERS iterations of it in REF_NOMINAL_S.
REF_ITERS = 3_000
REF_NOMINAL_S = 0.0025
REF_SHARE = 0.1
REF_SETUP_S = 0.1  # after a set-up-only process's set-up


def reference_loop() -> int:
    """Big-int multiply-reduce work that uses nothing from eccs."""
    p = 2**255 - 19
    x = y = 0x5DEECE66D
    for _ in range(REF_ITERS):
        x = x * y % p
        y = (y + x) % p
    return x


class Run:
    """Clock, samples, verdicts and (for a traced run) spans of one process."""

    def __init__(self, seed: int, seconds: float, trace: bool, setup_only: bool,
                 in_process: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_only = setup_only
        # False for cli-oneshot: its spans come from CLI helper processes
        self.in_process = in_process
        self.recorder = spans.Recorder()
        self.tracer = spans.Tracer(self.recorder)
        self.samples: dict[str, list[float]] = {}
        self.nbytes: Counter = Counter()
        self.op_seconds: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self.cli_reports: list[dict] = []
        self.reference_s = 0.0
        self.reference_loops = 0
        self.ready_at = 0.0
        self._start = 0.0
        self._traced = False
        self._op_s = 0.0

    def rng(self, stream: str) -> random.Random:
        """An independent, seed-determined stream per kind of input."""
        return random.Random(f"{self.seed}/{stream}")

    def ready(self) -> None:
        """Set-up is over: the next thing this process does is a timed op."""
        self.tracer.uninstall()
        self.ready_at = time.monotonic()
        self._start = time.perf_counter()

    def ops(self):
        """Op indices until the run's seconds are used up (none in set-up-only mode)."""
        if self.setup_only:
            while self.reference_s < REF_SETUP_S:
                self._reference_once()
            return
        minimum = 2 if self.trace else 1  # a traced run needs one op of each kind
        i = 0
        while i < minimum or time.perf_counter() - self._start < self.seconds:
            yield i
            i += 1
            # between ops: the reference loop gets REF_SHARE of the run so far
            while self.reference_s < REF_SHARE * (time.perf_counter() - self._start):
                self._reference_once()

    def _reference_once(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.reference_s += time.perf_counter() - start
        self.reference_loops += 1

    def traced(self, i: int) -> bool:
        """Traced runs alternate traced and untraced ops, to measure the overhead."""
        return self.trace and i % 2 == 0

    def begin(self, i: int, traced: bool) -> None:
        self._traced = traced
        self._op_s = 0.0
        if traced and self.in_process:
            self.recorder.op = i
            self.tracer.install()

    def end(self, faults: list[str]) -> None:
        if self.tracer.installed:
            self.tracer.uninstall()
        self.op_seconds[self._traced].append(self._op_s)
        self.verdict(faults)

    def verdict(self, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.failures.update(faults)

    def timed(self, series: str, fn, nbytes: int = 0):
        """Run ``fn`` under the clock; return (result, exception or None)."""
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller's check judges it
            result, error = None, exc
        elapsed = time.perf_counter() - start
        self.samples.setdefault(series, []).append(elapsed)
        self.nbytes[series] += nbytes
        self._op_s += elapsed
        return result, error

    def check_mutation(self, rng: random.Random, blob: bytes, open_blob) -> None:
        """Untimed check op: a bit flip or truncation of a timed ciphertext must be refused."""
        if rng.random() < 0.5:
            bit = rng.randrange(8 * len(blob))
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            kind = "bit flip"
        else:
            mutated = blob[: rng.randrange(len(blob))]
            kind = "truncation"
        fault = refusal_fault(lambda: open_blob(bytes(mutated)))
        self.verdict([f"{kind}: {fault}"] if fault else [])

    def result(self, all_spans: list) -> dict:
        series = {
            name: {
                "n": len(values),
                "total_s": sum(values),
                "bytes": self.nbytes[name],
                "p50_s": spans.percentile(values, 0.5),
                "p90_s": spans.percentile(values, 0.9),
            }
            for name, values in self.samples.items()
        }
        untraced = self.op_seconds[False]
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        out = {
            "ready_at": self.ready_at,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(self.failures),
            "series": series,
            "ops": len(untraced) + len(self.op_seconds[True]),
            "op_ms_mean": 1e3 * sum(untraced) / len(untraced) if untraced else None,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
            # > 1 when this run's host was faster than the nominal one
            "host_speed": (REF_NOMINAL_S * self.reference_loops / self.reference_s
                           if self.reference_loops else None),
            "reference_loops": self.reference_loops,
            "extra": dict(self.extra),
        }
        if self.trace and not self.setup_only:
            out["layers"] = layer_metrics(self, all_spans)
        return out


def refusal_fault(fn) -> str | None:
    """None if ``fn`` raises ParseError or InvalidCiphertext, else what went wrong."""
    try:
        fn()
    except (ParseError, InvalidCiphertext):
        return None
    except Exception as exc:  # any other type is itself the failure
        return f"raised {type(exc).__name__}"
    return "accepted"


def count_faults(run: Run, kind: str, ops: dict, chunks: int) -> list[str]:
    """Record count_ops tallies; the encrypt tallies must meet the 5/2/1 contract."""
    run.counts[f"{kind}_chunks"] += chunks
    for field in ("scalar_mults", "point_adds", "hashes"):
        run.counts[f"{kind}_{field}"] += ops[field]
    if kind != "enc":
        return []
    if any(ops[field] != n * chunks for field, n in ENC_CHUNK_CONTRACT.items()):
        return ["encrypt op counts differ from 5/2/1 per chunk"]
    return []


def _encrypt(pub, message: bytes, rng):
    with curve.count_ops() as ops:
        ciphertext = ecs.encrypt(pub, message, rng)
    return wire.serialize_ciphertext(ciphertext), vars(ops)


def _decrypt(priv, blob: bytes):
    with curve.count_ops() as ops:
        plain = ecs.decrypt(priv, wire.parse_ciphertext(blob))
    return plain, vars(ops)


def round_trip(run: Run, priv, pub, message: bytes, rng, chunks: int):
    """Timed encrypt+serialize, then timed parse+decrypt; returns (blob, faults)."""
    out, error = run.timed("enc", lambda: _encrypt(pub, message, rng), len(message))
    if error is not None:
        return None, [f"encrypt raised {type(error).__name__}"]
    blob, ops = out
    faults = count_faults(run, "enc", ops, chunks)
    out, error = run.timed("dec", lambda: _decrypt(priv, blob), len(message))
    if error is not None:
        return blob, faults + [f"decrypt raised {type(error).__name__}"]
    plain, ops = out
    count_faults(run, "dec", ops, chunks)
    if plain != message:
        faults.append("wrong plaintext")
    run.extra["ct_bytes"] += len(blob)
    run.extra["pt_bytes"] += len(message)
    return blob, faults


def flip_prefix(params, blob: bytes, point_index: int) -> bytes | None:
    """Negate one point by flipping its 02/03 prefix; None if it has no such prefix."""
    header = len(wire.MAGIC) + 3 + 4  # magic, version, kind, curve id; chunk count
    offset = header + point_index * curve.compressed_size(params)
    if blob[offset] not in (0x02, 0x03):
        return None
    flipped = bytearray(blob)
    flipped[offset] ^= 0x01
    return bytes(flipped)


# --- workloads ------------------------------------------------------------


def bulk_4k(run: Run) -> None:
    """4 KiB messages to one key: scalar multiplication dominates, per-key work amortises."""
    params = curve.get_curve("secp256k1")
    priv, pub = ecs.keygen(params, run.rng("keys"))
    chunks = len(codec.split_message(params, bytes(BULK_BYTES)))
    messages, enc_rng, checks = run.rng("messages"), run.rng("encrypt"), run.rng("checks")
    run.ready()
    for i in run.ops():
        message = messages.randbytes(BULK_BYTES)
        run.begin(i, run.traced(i))
        blob, faults = round_trip(run, priv, pub, message, enc_rng, chunks)
        run.end(faults)
        if blob is not None:
            run.check_mutation(checks, blob, lambda b: ecs.decrypt(priv, wire.parse_ciphertext(b)))


def many_keys_short(run: Run) -> None:
    """One 28 B message per fresh key pair: accept and reject paths, nothing amortises."""
    params = curve.get_curve("secp256k1")
    keys = run.rng("keys")
    wrong_priv, _ = ecs.keygen(params, keys)
    pool = [ecs.keygen(params, keys) for _ in range(POOL_KEYS)]
    capacity = codec.chunk_capacity(params)
    messages, enc_rng, tampers = run.rng("messages"), run.rng("encrypt"), run.rng("tamper")
    checks, probes, yard = run.rng("checks"), run.rng("splice"), run.rng("elgamal")
    run.ready()
    for i in run.ops():
        # keys beyond the set-up pool are made here, untimed and untraced
        priv, pub = pool[i] if i < len(pool) else ecs.keygen(params, keys)
        message = messages.randbytes(MESSAGE_BYTES)
        tamper = tampers.randrange(5)
        traced = run.traced(i)
        run.begin(i, traced)
        blob, faults = round_trip(run, priv, pub, message, enc_rng, 1)
        if blob is not None:
            faults += timed_reject(run, params, priv, wrong_priv, blob, tamper)
        if traced:
            run.recorder.op = "yardstick"  # kept out of the per-op figures
            faults += elgamal_yardstick(params, priv, pub, message, yard)
        run.end(faults)
        wrong_priv = priv
        if blob is not None:
            run.check_mutation(checks, blob, lambda b: ecs.decrypt(priv, wire.parse_ciphertext(b)))
        if i % SPLICE_EVERY == SPLICE_EVERY - 1:
            splice_probe(run, priv, pub, probes, capacity)


def timed_reject(run: Run, params, priv, wrong_priv, blob: bytes, tamper: int) -> list[str]:
    """Tamper 0-3 negates u1, u2, e or v; tamper 4 decrypts under the wrong key.

    Both inputs parse and run the full decrypt_chunk, which must raise
    InvalidCiphertext.
    """
    key = priv
    if tamper == 4:
        key, bad = wrong_priv, blob
    else:
        bad = flip_prefix(params, blob, tamper)
        if bad is None:
            return ["ciphertext point without a 02/03 prefix"]
    _, error = run.timed("reject", lambda: ecs.decrypt(key, wire.parse_ciphertext(bad)))
    if error is None:
        return ["tampered ciphertext accepted"]
    if not isinstance(error, InvalidCiphertext):
        return [f"tampered ciphertext raised {type(error).__name__}"]
    return []


def elgamal_yardstick(params, priv, pub, message: bytes, rng) -> list[str]:
    """EC-ElGamal under the same z and h = z*g1, the paper's comparison point."""
    m_point = codec.encode_chunk(params, message)
    pair = eccs.bench.elgamal_encrypt(params, pub.h, m_point, rng)
    if eccs.bench.elgamal_decrypt(params, priv.z, pair) != m_point:
        return ["ElGamal yardstick round trip failed"]
    return []


def splice_probe(run: Run, priv, pub, rng, capacity: int) -> None:
    """Chunk 0 of A with chunk 1 of B, both to the current key.

    An accepted splice is counted, not failed: it is the known defect the
    splice_accept_ratio shows.  Any other outcome than a refusal or
    exactly A[0] || B[1] is a failure.
    """
    a, b = rng.randbytes(2 * capacity), rng.randbytes(2 * capacity)
    ca, cb = ecs.encrypt(pub, a, rng), ecs.encrypt(pub, b, rng)
    spliced = ecs.Ciphertext(ca.curve_id, (ca.chunks[0], cb.chunks[1]))
    blob = wire.serialize_ciphertext(spliced)
    run.extra["splice_probes"] += 1
    try:
        plain = ecs.decrypt(priv, wire.parse_ciphertext(blob))
    except (ParseError, InvalidCiphertext):
        return
    except Exception as exc:  # any other type is a failure of the check
        run.verdict([f"splice probe raised {type(exc).__name__}"])
        return
    if plain == a[:capacity] + b[capacity:]:
        run.extra["splice_accepted"] += 1
    else:
        run.verdict(["splice accepted with a wrong plaintext"])


def cli_oneshot(run: Run) -> None:
    """keygen, encrypt, decrypt and a rejected decrypt, one ``python -m eccs`` process each."""
    params = curve.get_curve("secp256k1")
    # CLI processes cannot be counted from outside: hold the 5/2/1 contract in-process
    priv, pub = ecs.keygen(params, run.rng("contract"))
    _, ops = _encrypt(pub, bytes(MESSAGE_BYTES), run.rng("contract-encrypt"))
    run.verdict(count_faults(run, "enc", ops, 1))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    # --seed makes every ciphertext repeat for a given SEED; the CLI accepts it
    # only in test builds
    env = dict(os.environ, ECCS_TEST_BUILD="1")
    seeds, messages = run.rng("cli-seeds"), run.rng("messages")
    tampers, checks = run.rng("tamper"), run.rng("checks")
    run.ready()
    try:
        for cycle in run.ops():
            cli_cycle(run, params, cycle, os.path.join(workdir, str(cycle)), env,
                      seeds, messages.randbytes(MESSAGE_BYTES), tampers.randrange(4), checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_cycle(run, params, cycle, cycle_dir, env, seeds, message, tamper, checks) -> None:
    """Four timed CLI processes and one untimed check op on the cycle's ciphertext."""
    os.mkdir(cycle_dir)
    path = {name: os.path.join(cycle_dir, name)
            for name in ("pub", "priv", "msg", "ct", "pt", "bad", "bad_pt")}
    with open(path["msg"], "wb") as handle:
        handle.write(message)
    traced = run.traced(cycle)
    base = 4 * cycle

    argv = ["keygen", "--pub", path["pub"], "--priv", path["priv"], "--armor",
            "--seed", str(seeds.getrandbits(63))]
    faults = cli_op(run, env, base, traced, "keygen", argv, 0, cycle_dir)
    if not faults:
        mode = stat.S_IMODE(os.stat(path["priv"]).st_mode)
        if mode != 0o600:
            faults.append(f"private key file mode {mode:o}")
    run.end(faults)
    if faults:
        return

    argv = ["encrypt", "--pub", path["pub"], "--in", path["msg"], "--out", path["ct"],
            "--armor", "--seed", str(seeds.getrandbits(63))]
    faults = cli_op(run, env, base + 1, traced, "enc", argv, len(message), cycle_dir)
    run.end(faults)
    if faults:
        return

    argv = ["decrypt", "--priv", path["priv"], "--in", path["ct"], "--out", path["pt"]]
    faults = cli_op(run, env, base + 2, traced, "dec", argv, len(message), cycle_dir)
    if not faults:
        with open(path["pt"], "rb") as handle:
            if handle.read() != message:
                faults.append("wrong plaintext")
    run.end(faults)

    with open(path["ct"], encoding="ascii") as handle:
        label, blob = wire.dearmor(handle.read())
    run.extra["ct_bytes"] += len(blob)
    run.extra["pt_bytes"] += len(message)
    bad = flip_prefix(params, blob, tamper)
    if bad is None:
        run.verdict(["ciphertext point without a 02/03 prefix"])
        return
    with open(path["bad"], "w", encoding="ascii") as handle:
        handle.write(wire.armor(bad, label))
    argv = ["decrypt", "--priv", path["priv"], "--in", path["bad"], "--out", path["bad_pt"]]
    faults = cli_op(run, env, base + 3, traced, "reject", argv, 0, cycle_dir,
                       code=4, stderr=REJECT_LINE)
    if os.path.exists(path["bad_pt"]):
        faults.append("plaintext written for a rejected ciphertext")
    run.end(faults)

    with open(path["priv"], encoding="ascii") as handle:
        priv = wire.parse_private_key(wire.dearmor(handle.read())[1])
    run.check_mutation(checks, blob, lambda b: ecs.decrypt(priv, wire.parse_ciphertext(b)))
    shutil.rmtree(cycle_dir)


def cli_op(run, env, i, traced, series, argv, nbytes, cycle_dir, code=0, stderr=b""):
    """One timed CLI process; returns its faults."""
    run.begin(i, traced)
    if traced:
        report_path = os.path.join(cycle_dir, f"trace-{i}.json")
        cmd = [sys.executable, str(CLI_HELPER), report_path, *argv]
    else:
        cmd = [sys.executable, "-m", "eccs", *argv]
    proc, error = run.timed(
        series,
        lambda: subprocess.run(cmd, capture_output=True, env=env, timeout=CHILD_TIMEOUT_S),
        nbytes,
    )
    if error is not None:
        return [f"process failed to run: {type(error).__name__}"]
    faults = []
    if proc.returncode != code:
        faults.append(f"exit {proc.returncode}, expected {code}")
    if proc.stderr != stderr:
        faults.append("unexpected stderr")
    if proc.stdout:
        faults.append("unexpected stdout")
    if traced:
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except OSError:
            return faults + ["CLI helper wrote no trace report"]
        report["outer_s"] = run.samples[series][-1]
        report["op"] = i
        run.cli_reports.append(report)
        if series in ("enc", "dec"):
            faults += count_faults(run, series, report["counts"], 1)
    return faults


# --- per-layer metrics ------------------------------------------------------

PER_OP_SELF = (
    "curve.scalar_mult", "curve.point_add", "curve.is_on_curve", "curve.compress",
    "curve.decompress", "field.sqrt", "codec.encode_chunk", "codec.decode_chunk",
    "ecs.encrypt_chunk", "ecs.decrypt_chunk", "ecs.hash_to_scalar",
    "wire.serialize_ciphertext", "wire.parse_ciphertext", "wire.parse_public_key",
    "wire.parse_private_key", "wire.armor", "wire.dearmor", "cli.main",
)
PER_OP_CALLS = (
    "curve.scalar_mult", "curve.point_add", "curve.compress", "curve.decompress",
    "field.sqrt", "field.is_square", "ecs.hash_to_scalar",
)


def merged_spans(run: Run) -> list:
    """This process's spans, then each CLI helper's, with parents re-indexed."""
    merged = list(run.recorder.spans)
    for report in run.cli_reports:
        base = len(merged)
        merged += [[name, start, end, parent + base if parent >= 0 else -1, report["op"]]
                   for name, start, end, parent, _op in report["spans"]]
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run, all_spans: list) -> dict:
    """Per-layer figures of a traced run; 0 where the workload skips the layer.

    Per timed op unless the name says otherwise: is_probable_prime,
    curve_by_id and cli.* per process (registry validation happens once in
    each), keygen per generated key, *.total_ms per call, op counts per chunk.
    """
    reports = run.cli_reports
    processes = len(reports) or 1
    ops = len(run.op_seconds[True])
    table = spans.span_table(all_spans)
    per_op = table.get("op", {})
    whole: dict = {}
    for rows in table.values():
        for name, (calls, own, total) in rows.items():
            acc = whole.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += own
            acc[2] += total

    def get(rows, name):
        return rows.get(name, (0, 0.0, 0.0))

    m = {}
    for name in PER_OP_CALLS:
        m[f"{name}.calls"] = get(per_op, name)[0] / ops
    for name in PER_OP_SELF:
        m[f"{name}.self_ms"] = 1e3 * get(per_op, name)[1] / ops
    m["field.is_probable_prime.calls"] = get(whole, "field.is_probable_prime")[0] / processes
    m["field.is_probable_prime.self_ms"] = 1e3 * get(whole, "field.is_probable_prime")[1] / processes
    m["curve.curve_by_id.self_ms"] = 1e3 * get(whole, "curve.curve_by_id")[1] / processes
    calls, own, _ = get(whole, "ecs.keygen")
    m["ecs.keygen.self_ms"] = 1e3 * _ratio(own, calls)
    durations = [end - start for name, start, end, _p, op in all_spans
                 if name == "curve.scalar_mult" and isinstance(op, int)]
    m["curve.scalar_mult.call_us_p50"] = 1e6 * (spans.percentile(durations, 0.5) or 0.0)
    encodes = get(per_op, "codec.encode_chunk")[0]
    attempts = spans.child_calls(all_spans, "field.is_square", "codec.encode_chunk")
    m["codec.encode_attempts_per_chunk"] = _ratio(attempts, encodes)
    m["codec.encode_useful_ratio"] = _ratio(encodes, attempts)
    for name in ("ecs.encrypt_chunk", "ecs.decrypt_chunk"):
        calls, _, total = get(per_op, name)
        m[f"{name}.total_ms"] = 1e3 * _ratio(total, calls)
    yard = table.get("yardstick", {})
    for name in ("bench.elgamal_encrypt", "bench.elgamal_decrypt"):
        calls, own, total = get(yard, name)
        m[f"{name}.self_ms"] = 1e3 * own / ops
        m[f"{name}.total_ms"] = 1e3 * _ratio(total, calls)
    # interpreter start-up and exit: the caller's wall time minus the helper's own
    m["cli.interpreter_ms"] = 1e3 * sum(r["outer_s"] - r["inner_s"] for r in reports) / processes
    m["cli.import_ms"] = 1e3 * sum(r["import_s"] for r in reports) / processes
    c = run.counts
    for field in ("scalar_mults", "point_adds", "hashes"):
        m[f"ecs.enc_chunk.{field}"] = _ratio(c[f"enc_{field}"], c["enc_chunks"])
    m["ecs.dec_chunk.scalar_mults"] = _ratio(c["dec_scalar_mults"], c["dec_chunks"])
    m["wire.expansion"] = _ratio(run.extra["ct_bytes"], run.extra["pt_bytes"])
    traced, untraced = run.op_seconds[True], run.op_seconds[False]
    m["trace.overhead_ratio"] = (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
    return m


# name -> (body, whether the measured work runs in this process)
WORKLOADS = {
    "bulk-4k": (bulk_4k, True),
    "many-keys-short": (many_keys_short, True),
    "cli-oneshot": (cli_oneshot, False),
}


def main(argv: list[str]) -> int:
    src = HERE.parent / "src"
    if Path(eccs.__file__).resolve().parent != src / "eccs":
        print("perfbench: eccs was not imported from this checkout", file=sys.stderr)
        return 2
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    body, in_process = WORKLOADS[workload]
    run = Run(seed, seconds, trace, "--setup-only" in argv[4:], in_process)
    if trace:
        importlib.import_module("eccs.bench")  # before the tracer: binds the originals
        if in_process:
            run.tracer.install()  # set-up spans; Run.ready removes them
    try:
        body(run)
    finally:
        run.tracer.uninstall()
    all_spans = merged_spans(run)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
            json.dump(all_spans, handle)
    print(json.dumps(run.result(all_spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
