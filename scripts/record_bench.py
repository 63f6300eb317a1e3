"""Record the benchmark's end-to-end metrics for one checkout.

    python3 scripts/record_bench.py LABEL [--root CHECKOUT]

Compiles CHECKOUT's ``src/kspm`` to bytecode, then runs
``benchmarks/run.py`` of CHECKOUT (default: this repository) on every
workload in its ``BENCHMARK.json``, once per seed, one run at a time,
and writes ``BENCH_<LABEL>.json`` at the root of this repository.
The file holds the checkout's commit and, per workload, each seed's
``pass_s``, ``setup_s`` and ``peak_rss_mib`` with their median and
quartiles, and whether every run was ``correct``.  It runs seeds 1-10
at ``--seconds 3 --trace 0`` and takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
METRICS = ("pass_s", "setup_s", "peak_rss_mib")
SEEDS = list(range(1, 11))
SECONDS = 3.0


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run: its seed, ``correct`` and end-to-end metrics."""
    cmd = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} failed in {root}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = last["metrics"]
    return {
        "seed": seed,
        "correct": last["correct"],
        **{m: metrics[m]["value"] if m in metrics else None for m in METRICS},
    }


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def commit_of(root: Path) -> str | None:
    """The checkout's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(root: Path, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    # each pass imports kspm in a fresh interpreter; where PYTHONDONTWRITEBYTECODE
    # is set, a checkout without bytecode would compile every module in every
    # pass's setup_s
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/kspm"], cwd=root, check=True
    )
    entries = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(root, workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        entry = {"correct": all(r["correct"] for r in runs), "runs": runs}
        for m in METRICS:
            values = [r[m] for r in runs if r[m] is not None]
            entry[m] = summary(values) if values else None
        entries[workload] = entry
    return {
        "commit": commit_of(root),
        "seconds": seconds,
        "trace": 0,
        "seeds": seeds,
        "workloads": entries,
    }


def write(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to benchmark")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    path = REPO / f"BENCH_{args.label}.json"
    write(record(root, workloads, SEEDS, SECONDS), path)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
