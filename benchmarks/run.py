"""Benchmark of the kspm command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it benchmarks the package in ``src/``.
Each pass is one ``kspm.cli.main([...])`` call in a fresh interpreter,
as a user's ``kspm ...`` command runs, started one at a time.  Passes
repeat until S seconds have gone, and every output is checked.

Timings are scaled to a reference machine speed: each pass times a
fixed probe right before and after its CLI call.  A run reports
``pass_s`` as PROBE_REF_S * (sum of CLI times) / (sum of probe times)
over its passes, and ``setup_s`` as the median over passes of
PROBE_REF_S * set-up time / the probe that follows it.  On a shared 2-vCPU virtual machine the CPU speed drifts by up
to 2x within seconds, which raw wall times carry straight into the
result.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (output records) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds diagnostics that are not gated.
``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "kspm_pass.py"
WORK_DIR = ".bench_work"
# A run must end within 180 s; no pass may start a wait beyond this.
HARD_LIMIT_S = 170.0
# Probe time that defines the reference speed; timings are seconds at that speed.
PROBE_REF_S = 0.1


def run_pass(root: Path, work: Path, wl: workloads.Workload, pass_id: int,
             trace: int, deadline: float) -> tuple[dict, dict | None]:
    """Run one pass to completion and check its output.

    Returns the pass's record, with ``failed`` output records, and the
    parsed output (None when there was none).
    """
    out = work / f"out-{pass_id}.json"
    res = work / f"pass-{pass_id}.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
    spawned = time.perf_counter()
    cmd = [
        sys.executable, str(PASS_SCRIPT), repr(spawned), str(res), str(pass_id),
        str(trace), "--", *wl.args, "--output", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    record = {"pass_id": pass_id, "trace": trace, "exit_code": -1}
    if proc.returncode == 0 and res.exists():
        record.update(json.loads(res.read_text(encoding="utf-8")))
        if Path(record["kspm_file"]).resolve().parent != (root / "src" / "kspm"):
            record["exit_code"] = -1  # another kspm than the checkout's ran
    doc = None
    if out.exists():
        record["output_bytes"] = out.stat().st_size
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
        except ValueError:
            doc = None
    record["failed"] = wl.check(record["exit_code"], doc)
    for path in (out, res):
        path.unlink(missing_ok=True)
    return record, doc


def check_is_live(wl: workloads.Workload, doc) -> bool:
    """A copy of a good output with one record corrupted must fail one record."""
    if doc is None:
        return False
    bad = json.loads(json.dumps(doc))
    wl.corrupt(bad)
    return wl.check(0, bad) == 1


def at_ref(passes: list[dict], key: str) -> float:
    """A timing over all passes, scaled to the reference speed.

    Pooling the passes before scaling weights each by its length and
    keeps one probe that hit a short fast or slow spell from deciding
    the result.
    """
    total = sum(r[key] for r in passes)
    return total * PROBE_REF_S / sum(r["probe_s"] for r in passes)


def end_to_end(passes: list[dict]) -> dict:
    return {
        "pass_s": at_ref(passes, "pass_s"),
        # set-up runs right before the first probe, so only that one scales it
        "setup_s": statistics.median(
            r["setup_s"] * PROBE_REF_S / r["probe_before_s"] for r in passes
        ),
        "peak_rss_mib": max(r["maxrss_kib"] for r in passes) / 1024,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Median per-layer metrics over traced passes, and whether counts repeat."""
    layers = [
        tracing.layer_metrics(r["spans"], r["counts"]) for r in traced
    ]
    exact = tracing.EXACT_COUNTERS
    out = {
        k: layers[0][k] if k in exact else statistics.median(m[k] for m in layers)
        for k in layers[0]
    }
    repeat = all(
        [m[k] for k in exact] == [layers[0][k] for k in exact] for m in layers
    ) and len({r["output_bytes"] for r in traced + untraced}) == 1
    out["cli.output_bytes"] = traced[0]["output_bytes"]
    base = at_ref(untraced, "pass_s")
    out["trace.overhead_frac"] = (at_ref(traced, "pass_s") - base) / base
    return out, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "kspm" / "cli.py").is_file():
        print(f"no kspm sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    t0 = time.perf_counter()
    deadline = t0 + HARD_LIMIT_S
    try:
        first, doc = run_pass(root, work, wl, 0, 0, deadline)
        live = check_is_live(wl, doc)
        every = [first]
        while (
            time.perf_counter() - t0 < args.seconds or len(every) < 1 + args.trace
        ) and time.perf_counter() < deadline:
            # traced runs alternate untraced and traced passes
            pass_id = len(every)
            record, _ = run_pass(
                root, work, wl, pass_id, args.trace * (pass_id % 2), deadline
            )
            every.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = wl.records * len(every)
    failed = sum(r["failed"] for r in every)
    ok = [r for r in every if r["failed"] == 0]
    untraced = [r for r in ok if r["trace"] == 0]
    traced = [r for r in ok if r["trace"] == 1]
    repeat = True
    metrics, units = {}, {}
    if untraced and not args.trace:
        metrics = end_to_end(untraced)
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    elif untraced and traced:
        metrics, repeat = per_layer(traced, untraced)
        units = tracing.UNITS
    correct = failed == 0 and live and repeat and bool(metrics)
    diagnostics = {
        "workload": wl.name,
        "seed": args.seed,
        "kspm_args": list(wl.args),
        "passes": len(every),
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "check_is_live": live,
        "counters_repeat": repeat,
    }
    if untraced:
        diagnostics.update(
            {
                "pass_wall_s": statistics.median(r["pass_s"] for r in untraced),
                "setup_wall_s": statistics.median(r["setup_s"] for r in untraced),
                "machine.probe_s": statistics.median(r["probe_s"] for r in untraced),
            }
        )
    print(json.dumps({"diagnostics": diagnostics}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
