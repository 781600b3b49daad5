"""Self-tests of the benchmark harness (spans, wrappers, percentile rule).

Run with the package on the path, from the root of the checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

import eccs
import eccs.cli  # noqa: F401  loads every consumer module (bench, oracle, wire)
from eccs import curve, ecs, field, wire
from eccs.errors import InvalidCiphertext

HERE = Path(__file__).resolve().parent


def _bindings():
    """(owner, key) -> object for every traced target binding in the package."""
    found = {}
    modules = [m for n, m in sys.modules.items() if n == "eccs" or n.startswith("eccs.")]
    for module_name, attr in spans.TARGETS:
        module = sys.modules[f"eccs.{module_name}"]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(owner, method)] = owner.__dict__[method]
            continue
        original = getattr(module, attr)
        for holder in modules:
            for key, value in vars(holder).items():
                if value is original:
                    found[(holder, key)] = value
    return found


def test_percentile_needs_ten_samples_beyond():
    assert spans.percentile(range(19), 0.5) is None
    assert spans.percentile(range(20), 0.5) == 9
    assert spans.percentile(range(99), 0.9) is None
    assert spans.percentile(range(100), 0.9) == 89
    assert spans.percentile([], 0.5) is None


def test_self_time_of_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.x", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["setup", 20.0, 21.0, -1, "setup"],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.0]
    table = spans.span_table(tree)
    assert table["op"]["root"] == [1, 3.0, 10.0]
    assert table["setup"]["setup"] == [1, 1.0, 1.0]
    assert spans.child_calls(tree, "a.x", "a") == 1
    assert spans.child_calls(tree, "a.x", "root") == 0


def test_tracer_patches_every_consumer_binding_and_restores_it():
    before = _bindings()
    consumers = {owner.__name__ for (owner, key), fn in before.items() if key == "scalar_mult"}
    assert {"eccs.curve", "eccs.ecs", "eccs.bench"} <= consumers
    tracer = spans.Tracer(spans.Recorder())
    with tracer:
        for (owner, key), original in before.items():
            assert getattr(owner, "__dict__")[key] is not original, (owner, key)
        assert field.FieldElement.sqrt is not before[(field.FieldElement, "sqrt")]
    assert not tracer.installed
    for (owner, key), original in before.items():
        assert getattr(owner, "__dict__")[key] is original, (owner, key)


def test_exception_passes_through_and_its_span_is_closed():
    recorder = spans.Recorder()
    sentinel = ValueError("sentinel")

    def fails():
        raise sentinel

    with pytest.raises(ValueError) as caught:
        spans._wrap("test.fails", fails, recorder)()
    assert caught.value is sentinel
    assert recorder.spans[0][2] >= recorder.spans[0][1] > 0

    params = curve.get_curve("secp256k1")
    rng = random.Random(7)
    priv, pub = ecs.keygen(params, rng)
    other, _ = ecs.keygen(params, rng)
    blob = wire.serialize_ciphertext(ecs.encrypt(pub, b"x" * 28, rng))
    recorder = spans.Recorder()
    with spans.Tracer(recorder), pytest.raises(InvalidCiphertext):
        eccs.decrypt(other, wire.parse_ciphertext(blob))
    assert recorder._stack == []
    assert all(end >= start for _n, start, end, _p, _o in recorder.spans)
    assert "ecs.decrypt_chunk" in [span[0] for span in recorder.spans]


def test_traced_call_counts_equal_count_ops():
    params = curve.get_curve("secp256k1")
    rng = random.Random(11)
    _, pub = ecs.keygen(params, rng)
    recorder = spans.Recorder()
    recorder.op = 0
    with spans.Tracer(recorder), curve.count_ops() as counts:
        ecs.encrypt(pub, b"y" * 60, rng)
    calls = spans.span_table(recorder.spans)["op"]
    assert calls["curve.scalar_mult"][0] == counts.scalar_mults == 10
    assert calls["curve.point_add"][0] == counts.point_adds == 4
    assert calls["ecs.hash_to_scalar"][0] == counts.hashes == 2


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-4k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
