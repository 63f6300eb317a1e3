"""The benchmark recorder writes BENCH_<label>.json with every field it names."""

import importlib.util
import json
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record_bench", REPO / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def test_record_bench_writes_each_seed_and_its_summary(tmp_path):
    path = tmp_path / "BENCH_t.json"
    record_bench.write(record_bench.record(REPO, ["fixed-point"], [1], 0.1), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    # None where the tree is not a git checkout
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
    assert doc["commit"] == (head.stdout.strip() if head.returncode == 0 else None)
    assert (doc["seeds"], doc["seconds"], doc["trace"]) == ([1], 0.1, 0)
    entry = doc["workloads"]["fixed-point"]
    assert entry["correct"] is True
    [run] = entry["runs"]
    assert (run["seed"], run["correct"]) == (1, True)
    for metric in ("pass_s", "setup_s", "peak_rss_mib"):
        assert run[metric] > 0
        assert entry[metric] == {"median": run[metric], "q1": run[metric], "q3": run[metric]}
