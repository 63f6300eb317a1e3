"""Record the reference outputs that the scan-dense and spectral-sweep checks use.

Run from the repository root:

    python3 benchmarks/record_references.py

Rerun it only for a change that is meant to alter these outputs, and
say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from kspm import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        for name in ("scan-dense", "spectral-sweep"):
            wl = workloads.build(name, seed=0)
            if cli.main([*wl.args, "--output", str(out)]) != 0:
                print(f"{name}: kspm exited non-zero", file=sys.stderr)
                return 1
            rows = workloads.reference_of(name, json.loads(out.read_text()))
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(
                "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n",
                encoding="utf-8",
            )
            print(f"{name}: {len(rows)} rows -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
