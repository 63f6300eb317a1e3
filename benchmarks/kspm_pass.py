"""One benchmark pass: a fresh interpreter making one kspm CLI call.

    python3 kspm_pass.py SPAWNED RESULT PASS_ID TRACE -- KSPM_ARGS...

SPAWNED is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so set-up time (spawn to ``import kspm.cli`` done) is
measured across the process boundary.  The pass writes its timings,
exit code and, with TRACE=1, its spans and counters to the RESULT JSON
file.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def probe() -> float:
    """Time a fixed piece of pure-Python work.

    On a shared virtual machine the CPU speed drifts by up to 2x within
    seconds, so each pass times this probe right before and right after
    its CLI call, and the benchmark scales the pass's timings by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(700_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def main() -> int:
    spawned, result_path, pass_id, trace = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: kspm_pass.py SPAWNED RESULT PASS_ID TRACE -- ARGS")
    kspm_args = sys.argv[6:]

    import kspm.cli

    imported = time.perf_counter()
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe_before = probe()
    entered = time.perf_counter()
    try:
        code = kspm.cli.main(kspm_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    done = time.perf_counter()
    result = {
        "pass_id": int(pass_id),
        "kspm_file": kspm.__file__,
        "exit_code": code,
        "setup_s": imported - float(spawned),
        "pass_s": done - entered,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_before_s": probe_before,
        "probe_s": (probe_before + probe()) / 2,
    }
    if tracer is not None:
        result["counts"] = tracer.finish()
        result["spans"] = [span + [int(pass_id)] for span in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
