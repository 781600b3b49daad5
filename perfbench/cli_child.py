"""Traced stand-in for ``python -m eccs``, used by the traced cli-oneshot run.

    python perfbench/cli_child.py REPORT_PATH EccsArgs...

Times ``import eccs.cli``, installs the span wrappers, runs
``eccs.cli.main`` under ``count_ops`` and exits with its return code.
stdout and stderr are left to main, so the caller checks this process
exactly as it checks an untraced one.  REPORT_PATH receives span names,
times and op counts; interpreter start-up is the caller's wall time
minus ``inner_s``.
"""

import time

INNER_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import eccs.cli

    import_s = time.perf_counter() - start
    recorder = spans.Recorder()
    recorder.op = 0
    with spans.Tracer(recorder), eccs.curve.count_ops() as counts:
        code = eccs.cli.main(argv)
    inner_s = time.perf_counter() - INNER_START
    report = {
        "inner_s": inner_s,
        "import_s": import_s,
        "counts": vars(counts),
        "spans": recorder.spans,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
