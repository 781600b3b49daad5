"""Benchmark entry point: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload bulk-4k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is used from ``src/``; the
only build step is compiling its bytecode, so that every measured process
imports from a warm cache as an installed package would.  Each workload
runs in a fresh Python process (workload.py); with ``--trace 0`` the
set-up is also repeated in set-up-only processes and ``setup_s`` is their
median.  With ``--trace 1`` the per-layer figures come from spans, and no
end-to-end figure is taken from that run.

Prints a readable report, writes it with the host record to
``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when any
output check failed and 2 when the checkout holds no ``src/eccs``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("bulk-4k", "many-keys-short", "cli-oneshot")
SETUP_ONLY_RUNS = 4  # plus the measured process: setup_s is a median of five
DEADLINE_S = 170  # the whole run, builds and set-ups included


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def spawn(workload: str, seed: int, seconds: int, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Run workload.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed), str(seconds), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics, and readable lines for everything the run measured."""
    series = result["series"]
    if "enc" not in series or "dec" not in series:
        raise BenchError("no timed encrypt or decrypt completed")
    speed = result["host_speed"]
    metrics = {
        "setup_s": statistics.median(raw * host for raw, host in setups),
        "op_ms_norm": result["op_ms_mean"] * speed,
        "peak_rss_mib": result["peak_rss_mib"],
    }
    lines = [
        f"setup_s              {statistics.median(raw for raw, _ in setups):.4f} s"
        f"      (median of {len(setups)} set-ups)",
        f"setup_s_norm         {metrics['setup_s']:.4f} s      (gated as setup_s)",
        f"host_speed           {speed:.4f}         (reference loop, n={result['reference_loops']};"
        " *_norm = value on a host of speed 1)",
    ]
    for name in ("enc", "dec"):
        s = series[name]
        raw = s["bytes"] / 1024 / s["total_s"]
        metrics[f"{name}_kib_s_norm"] = raw / speed
        lines.append(f"{name}_kib_s            {raw:.4f} KiB/s  (n={s['n']} messages)")
        lines.append(f"{name}_kib_s_norm       {raw / speed:.4f} KiB/s")
    for name in ("keygen", "enc", "dec", "reject"):
        s = series.get(name)
        if s is None:
            continue
        for q in ("p50", "p90"):
            label = f"{name}_ms_{q}".ljust(20)
            value = s[f"{q}_s"]
            if value is None:
                lines.append(f"{label} n/a          (n={s['n']}: fewer than 10 samples beyond it)")
            else:
                lines.append(f"{label} {1e3 * value:.4f} ms     (n={s['n']})")
    lines.append(f"op_ms_mean           {result['op_ms_mean']:.4f} ms     (n={result['ops']} ops)")
    lines.append(f"op_ms_norm           {metrics['op_ms_norm']:.4f} ms")
    lines.append(f"peak_rss_mib         {metrics['peak_rss_mib']:.4f} MiB")
    return metrics, lines


def verdict_lines(result: dict) -> list[str]:
    lines = [f"fail_ratio           {result['failed'] / result['attempted']:.4f}"
             f"        ({result['failed']}/{result['attempted']} ops and checks)"]
    for fault, count in sorted(result["failures"].items()):
        lines.append(f"  failed: {fault} x{count}")
    extra = result["extra"]
    if extra.get("splice_probes"):
        accepted = extra.get("splice_accepted", 0)
        lines.append(f"splice_accept_ratio  {accepted / extra['splice_probes']:.4f}"
                     f"        ({accepted}/{extra['splice_probes']} probes; kept out of fail_ratio)")
    return lines


def host_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources: identifies the code even outside git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "eccs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "eccs" / "__init__.py").is_file():
        print("perfbench: this checkout has no src/eccs to measure", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    if not compileall.compile_dir(str(SRC / "eccs"), quiet=1):
        print("perfbench: compiling src/eccs failed", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setup = spawn(args.workload, args.seed, args.seconds, 0, True, deadline)
                setups.append((setup["setup_s"], setup["host_speed"]))
        result = spawn(args.workload, args.seed, args.seconds, args.trace, False, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    header = (f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
    if args.trace:
        measured = result["layers"]
        lines = [f"{name.ljust(36)} {value:.6g}" for name, value in sorted(measured.items())]
    else:
        setups.append((result["setup_s"], result["host_speed"]))
        try:
            measured, lines = end_to_end(result, setups)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            print("\n".join(verdict_lines(result)), file=sys.stderr)
            return 1
    lines += verdict_lines(result)
    if set(measured) != set(declared) or any(v is None for v in measured.values()):
        print("perfbench: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    correct = result["failed"] == 0 and result["attempted"] > 0
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": declared[name]} for name in declared},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  host=host_record(args.seed), report=lines, failures=result["failures"],
                  extra=result["extra"], series=result["series"],
                  host_speed=result["host_speed"], setups=setups)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(header)
    for line in lines:
        print("  " + line)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
