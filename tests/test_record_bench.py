"""The benchmark recorder compiles the checkout, then writes BENCH_<label>.json
with every field it names."""

import importlib.util
import json
import shutil
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


def test_record_bench_compiles_the_checkout_before_its_first_run(tmp_path, monkeypatch):
    package = tmp_path / "src" / "kspm"
    shutil.copytree(REPO / "src" / "kspm", package, ignore=shutil.ignore_patterns("__pycache__"))
    modules = sorted(package.glob("*.py"))

    def compiled() -> bool:
        return all(Path(importlib.util.cache_from_source(m)).is_file() for m in modules)

    assert modules and not any(package.rglob("*.pyc"))
    seen = []

    def run_once(root, workload, seed, seconds):
        seen.append(compiled())
        return {"seed": seed, "correct": True, "pass_s": 1.0, "setup_s": 1.0, "peak_rss_mib": 1.0}

    monkeypatch.setattr(record_bench, "run_once", run_once)
    record_bench.record(tmp_path, ["fixed-point"], [1, 2], 0.1)
    assert seen == [True, True]
    assert compiled()
