"""Timing spans around calls into the eccs modules, recorded from outside.

A ``Tracer`` replaces each function in ``TARGETS`` with a wrapper that
opens a span on entry and closes it on exit, exception or not.  The
package binds names with ``from .curve import scalar_mult``, so the same
function object sits in several module namespaces; every binding found
in a loaded ``eccs`` module is replaced, and ``FieldElement`` methods are
replaced on the class.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op]``: the span name, two
``perf_counter`` readings, the index of the enclosing span (-1 at top
level) and the op it belongs to (an int for a timed op, otherwise a
phase name such as "setup").  No argument or result is ever recorded,
so nothing secret can reach a span.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (eccs submodule, attribute); "Class.method" is patched on the class.
TARGETS = (
    ("field", "is_probable_prime"),
    ("field", "FieldElement.sqrt"),
    ("field", "FieldElement.is_square"),
    ("curve", "curve_by_id"),
    ("curve", "scalar_mult"),
    ("curve", "point_add"),
    ("curve", "is_on_curve"),
    ("curve", "compress"),
    ("curve", "decompress"),
    ("codec", "encode_chunk"),
    ("codec", "decode_chunk"),
    ("ecs", "keygen"),
    ("ecs", "encrypt_chunk"),
    ("ecs", "decrypt_chunk"),
    ("ecs", "hash_to_scalar"),
    ("wire", "serialize_ciphertext"),
    ("wire", "parse_ciphertext"),
    ("wire", "parse_public_key"),
    ("wire", "parse_private_key"),
    ("wire", "armor"),
    ("wire", "dearmor"),
    ("bench", "elgamal_encrypt"),
    ("bench", "elgamal_decrypt"),
    ("cli", "main"),
)

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def span_name(module: str, attr: str) -> str:
    """``("field", "FieldElement.sqrt")`` -> ``"field.sqrt"``."""
    return f"{module}.{attr.rpartition('.')[2]}"


class Recorder:
    """In-memory span list; ``op`` labels every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()


def _wrap(name: str, fn, recorder: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return traced


def _eccs_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "eccs" or name.startswith("eccs."))
    ]


class Tracer:
    """Installs span wrappers on every loaded target and removes them again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _eccs_modules()
        for module_name, attr in TARGETS:
            module = sys.modules.get(f"eccs.{module_name}")
            if module is None:
                continue  # e.g. eccs.cli outside the CLI helper
            name = span_name(module_name, attr)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, _wrap(name, original, self.recorder))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(name, original, self.recorder)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_table(spans: list) -> dict:
    """``{phase: {name: [calls, self_s, total_s]}}``; phase "op" for timed ops."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _parent, op = span
        phase = "op" if isinstance(op, int) else op
        row = table.setdefault(phase, {}).setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own
        row[2] += end - start
    return table


def child_calls(spans: list, child: str, parent: str) -> int:
    """Spans of timed ops named ``child`` whose direct parent is named ``parent``."""
    return sum(
        1
        for name, _s, _e, up, op in spans
        if name == child and isinstance(op, int) and up >= 0 and spans[up][0] == parent
    )


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None unless MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]
