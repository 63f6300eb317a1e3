"""The four benchmark workloads and the checks on their outputs.

Each workload is one kspm CLI call, repeated once per pass.  Its check
reads the JSON document the call wrote and returns how many of the
pass's output records failed.  The checks recompute what they can in
plain integers and otherwise compare with references recorded from the
program at the commit that introduced the benchmark (``reference/``);
they never call into ``kspm``.  ``README.md`` says why each workload
exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, zip_longest
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SCAN_COLUMNS = (
    "N",
    "p",
    "w",
    "n_strict",
    "n_loose",
    "uniform_index",
    "interior_zeros",
    "density_column",
    "ambiguous_count",
    "elapsed_us",
)
SPECTRAL_EXACT = (
    "p",
    "ok",
    "bezout_ok",
    "charpoly_averaging_ok",
    "charpoly_window_ok",
    "root_count",
)
VERIFY_CHECKS = (
    "strategy_independence",
    "grain_conservation",
    "shot_balance",
    "reconstruction",
    "trajectory_invariants",
    "wave_tail",
    "support_bounds",
    "plateau_bound",
    "centered_recurrence",
)
SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One CLI call, its record count and its output check.

    ``check(exit_code, doc)`` returns the number of failed records, where
    ``doc`` is the parsed output or None when there was none.
    ``corrupt(doc)`` alters exactly one record in place, so the benchmark
    can show its check is not vacuous.
    """

    name: str
    args: tuple[str, ...]
    records: int
    check: Callable[[int, dict | None], int]
    corrupt: Callable[[dict], None]


def _delta(name: str, seed: int) -> int:
    # string seeding hashes with SHA-512, so it is stable across processes
    return random.Random(f"{name}:{seed}").randrange(400)


@cache
def load_reference(name: str) -> list:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _is_int(v) -> bool:
    return type(v) is int


def fixed_point_ok(p: int, n: int, result: dict) -> bool:
    """Re-derive the fixed point's invariants from its JSON, in integers.

    Every slope lies in [0, p]; the mass sum((i+1) * b_i) is N; the
    heights are the suffix sums of the slopes; and every slope equals
    the shot balance a_{i-p} - (p+1) a_i + p a_{i+1}, with the virtual
    a_{-p} = N and a_j = 0 for -p < j < 0 and past the shot vector.
    """
    slopes, heights, shot = result["slopes"], result["heights"], result["shot"]
    if result["p"] != p or result["N"] != n:
        return False
    if not all(_is_int(v) for v in (*slopes, *heights, *shot)):
        return False
    if any(not 0 <= b <= p for b in slopes) or any(a < 0 for a in shot):
        return False
    if sum((i + 1) * b for i, b in enumerate(slopes)) != n:
        return False
    if heights != list(accumulate(reversed(slopes)))[::-1]:
        return False

    def a(j: int) -> int:
        if j == -p:
            return n
        return shot[j] if 0 <= j < len(shot) else 0

    def b(i: int) -> int:
        return slopes[i] if i < len(slopes) else 0

    width = max(len(slopes), len(shot))
    return all(
        b(i) == a(i - p) - (p + 1) * a(i) + p * a(i + 1) for i in range(width + p + 1)
    )


def _fixed_point(seed: int) -> Workload:
    p, n = 2, 40000 + _delta("fixed-point", seed)

    def check(code, doc):
        if code != 0 or doc is None:
            return 1
        try:
            return 0 if fixed_point_ok(p, n, doc["result"]) else 1
        except (KeyError, TypeError):
            return 1

    def corrupt(doc):
        doc["result"]["slopes"][len(doc["result"]["slopes"]) // 2] ^= 1

    return Workload(
        "fixed-point",
        ("stabilize", "--p", str(p), "--n", str(n)),
        1,
        check,
        corrupt,
    )


def _scan_dense(seed: int) -> Workload:
    p, n_max, stride = 3, 20000, 10
    records = n_max // stride

    def check(code, doc):
        if code != 0 or doc is None:
            return records
        reference = load_reference("scan-dense")
        try:
            rows = [[row[c] for c in SCAN_COLUMNS] for row in doc["result"]["rows"]]
        except (KeyError, TypeError):
            return records
        bad = sum(got != want for got, want in zip_longest(rows, reference))
        return min(bad, records)

    def corrupt(doc):
        doc["result"]["rows"][records // 2]["n_strict"] += 1

    return Workload(
        "scan-dense",
        ("scan", "--p", str(p), "--n-max", str(n_max), "--stride", str(stride)),
        records,
        check,
        corrupt,
    )


def verify_failures(p: int, n: int, seed: int, code: int, doc) -> int:
    if code != 0 or doc is None:
        return len(VERIFY_CHECKS)
    try:
        if doc["meta"]["config"] != {"p": p, "n": n, "seed": seed}:
            return len(VERIFY_CHECKS)
        ok = {c["name"]: c["ok"] for c in doc["result"]["checks"]}
    except (KeyError, TypeError):
        return len(VERIFY_CHECKS)
    return sum(ok.get(name) is not True for name in VERIFY_CHECKS)


def _verify_wide(seed: int) -> Workload:
    p, n = 30, 100000 + _delta("verify-wide", seed)

    def corrupt(doc):
        doc["result"]["checks"][len(VERIFY_CHECKS) // 2]["ok"] = False

    return Workload(
        "verify-wide",
        ("verify", "--p", str(p), "--n", str(n), "--seed", str(seed)),
        len(VERIFY_CHECKS),
        lambda code, doc: verify_failures(p, n, seed, code, doc),
        corrupt,
    )


def spectral_row_ok(row: dict, want: list) -> bool:
    """Exact fields as recorded; float fields inside the CLI's own gates."""
    if [row[k] for k in SPECTRAL_EXACT] != want:
        return False
    p = row["p"]
    return (
        row["modulus_bound"] == (p - 1) / p
        and row["max_residual"] < SPECTRAL_TOL
        and row["max_root_modulus"] <= row["modulus_bound"] + 1e-9
        and row["min_separation"] > 1e-8
        and row["eig_match_distance"] <= 1e-8
    )


def _spectral_sweep(seed: int) -> Workload:
    p_min, p_max = 2, 30
    records = p_max - p_min + 1

    def check(code, doc):
        if code != 0 or doc is None:
            return records
        reference = load_reference("spectral-sweep")
        try:
            rows = doc["result"]["rows"]
            if doc["result"]["ok"] is not True or len(rows) != records:
                return records
            return sum(not spectral_row_ok(r, w) for r, w in zip(rows, reference))
        except (KeyError, TypeError):
            return records

    def corrupt(doc):
        doc["result"]["rows"][records // 2]["bezout_ok"] = False

    return Workload(
        "spectral-sweep",
        ("spectral", "--p-min", str(p_min), "--p-max", str(p_max)),
        records,
        check,
        corrupt,
    )


WORKLOADS = {
    "fixed-point": _fixed_point,
    "scan-dense": _scan_dense,
    "verify-wide": _verify_wide,
    "spectral-sweep": _spectral_sweep,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def reference_of(name: str, doc: dict) -> list:
    """The part of a CLI output that ``reference/<name>.json`` stores."""
    rows = doc["result"]["rows"]
    columns = SCAN_COLUMNS if name == "scan-dense" else SPECTRAL_EXACT
    return [[row[c] for c in columns] for row in rows]
