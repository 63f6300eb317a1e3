"""The benchmark's own tests: its checks catch bad output, its counters repeat.

Run from the repository root:

    python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _pass(name: str, trace: int) -> tuple[dict, dict]:
    wl = workloads.build(name, SEED)
    (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / run.WORK_DIR) as tmp:
        return run.run_pass(ROOT, Path(tmp), wl, 1, trace, time.perf_counter() + 170)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_pair(request):
    (first, doc), (second, _) = _pass(request.param, 1), _pass(request.param, 1)
    return request.param, first, doc, second


def test_output_passes_and_one_corrupted_record_counts(traced_pair):
    name, first, doc, _ = traced_pair
    wl = workloads.build(name, SEED)
    assert first["exit_code"] == 0
    assert first["failed"] == 0
    bad = json.loads(json.dumps(doc))
    wl.corrupt(bad)
    # error_rate is failed records over attempted records
    assert wl.check(0, bad) / wl.records == 1 / wl.records
    assert run.check_is_live(wl, doc)


def test_failed_pass_fails_every_record(traced_pair):
    name, _, doc, _ = traced_pair
    wl = workloads.build(name, SEED)
    assert wl.check(1, doc) == wl.records
    assert wl.check(0, None) == wl.records


def test_exact_counters_repeat(traced_pair):
    _, first, _, second = traced_pair
    assert first["counts"] == second["counts"]
    assert first["output_bytes"] == second["output_bytes"]
    layers = tracing.layer_metrics(first["spans"], first["counts"])
    assert set(layers) | {"cli.output_bytes", "trace.overhead_frac"} == set(tracing.UNITS)


def test_fixed_point_check_rejects_each_broken_invariant():
    p, n = 2, 24
    good = {
        "p": p,
        "N": n,
        "slopes": [2, 1, 2, 1, 2],
        "heights": [8, 6, 5, 3, 2],
        "shot": [8, 1, 2],
    }
    assert workloads.fixed_point_ok(p, n, good)
    for key, index, value in [
        ("slopes", 0, 3),  # slope above p
        ("heights", 1, 7),  # not a suffix sum
        ("shot", 1, 2),  # breaks the shot balance
    ]:
        bad = json.loads(json.dumps(good))
        bad[key][index] = value
        assert not workloads.fixed_point_ok(p, n, bad), key
    assert not workloads.fixed_point_ok(p, n + 1, good)  # mass


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_s", "setup_s", "peak_rss_mib"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "fixed-point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
