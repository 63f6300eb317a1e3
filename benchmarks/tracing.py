"""Spans and counters for one kspm pass, recorded from outside the package.

``install`` wraps the module functions and class methods through which
each layer is entered.  Spans and counters stay in memory until the pass
writes them out.  Untraced passes never import this module, so they run
the package unmodified.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# Layer spans whose self time becomes a per-layer metric.
SELF_TIME_METRICS = {
    "stabilizer.leftmost.self_s": "stabilizer.leftmost",
    "stabilizer.incremental.self_s": "stabilizer.incremental",
    "stabilizer.random.self_s": "stabilizer.random",
    "stabilizer.snapshot.self_s": "stabilizer.snapshot",
    "model.slope_config.self_s": "model.slope_config",
    "dds.trajectory.self_s": "dds.trajectory",
    "dds.trajectory_checked.self_s": "dds.trajectory_checked",
    "dds.reconstruct.self_s": "dds.reconstruct",
    "analyzer.parse_waves.self_s": "analyzer.parse_waves",
    "analyzer.scan_rows.self_s": "analyzer.scan_rows",
    "spectral.z_trajectory.self_s": "spectral.z_trajectory",
    "spectral.centered_matrix.self_s": "spectral.centered_matrix",
    "spectral.charpoly.self_s": "spectral.charpoly",
    "spectral.roots.self_s": "spectral.roots",
    "spectral.eigvals.self_s": "spectral.eigvals",
    "spectral.perturbation_bound.self_s": "spectral.perturbation_bound",
    "spectral.bezout.self_s": "spectral.bezout",
    "cli.self_s": "cli",
}

ENGINE_SPANS = ("stabilizer.leftmost", "stabilizer.random", "stabilizer.incremental")
DDS_SPANS = ("dds.trajectory", "dds.trajectory_checked", "dds.reconstruct")

# Counters that must repeat exactly for the same code and seed.
EXACT_COUNTERS = (
    "stabilizer.firings",
    "dds.window_steps",
    "analyzer.parse_waves.columns",
    "spectral.z_trajectory.steps",
    "spectral.exact_matmul.calls",
)

# Unit of every per-layer metric a traced run reports.
UNITS = {
    **dict.fromkeys(SELF_TIME_METRICS, "s"),
    **dict.fromkeys(EXACT_COUNTERS, "count"),
    "cli.output_bytes": "count",
    "stabilizer.ns_per_firing": "ns",
    "dds.ns_per_step": "ns",
    "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, index, name, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """In-memory span log of one pass.

    A span is ``[name, start, end, parent]`` where ``parent`` indexes the
    enclosing span (-1 at the top); the pass appends its id when it
    writes the spans out.  Calls are synchronous and single
    threaded, so spans nest and a stack gives each one its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(EXACT_COUNTERS, 0)
        self._stack: list[int] = []
        # incremental pile -> shot sum of its latest snapshot; the pile is
        # held so its id cannot be reused within the pass
        self._piles: dict[int, tuple[object, int]] = {}

    def wrap(self, fn, name, after=None):
        """Record a span around every call of ``fn``.

        ``name`` is a string or ``name(args, kwargs)``.  ``after(args,
        kwargs, result)`` updates counters once the span has closed.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [
                name(args, kwargs) if callable(name) else name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
            ]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count_calls(self, fn, counter):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, counter, value):
        self.counts[counter] += value

    def finish(self) -> dict:
        """Counters with the incremental piles' final firings added in."""
        counts = dict(self.counts)
        counts["stabilizer.firings"] += sum(f for _, f in self._piles.values())
        return counts

    def note_snapshot(self, args, kwargs, fp):
        pile = args[0]
        self._piles[id(pile)] = (pile, sum(fp.shot))


def _replace_everywhere(orig, new):
    """Rebind every ``kspm`` module global that refers to ``orig``.

    ``from .stabilizer import stabilize`` copies the reference, so the
    defining module alone is not enough.
    """
    for modname, module in list(sys.modules.items()):
        if modname == "kspm" or modname.startswith("kspm."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the already imported ``kspm``."""
    from kspm import analyzer, cli, dds, model, spectral, stabilizer

    def stabilize_name(args, kwargs):
        strategy = _arg(args, kwargs, 2, "strategy", "leftmost")
        if strategy == "incremental":
            # the work is in the nested advance_to and snapshot spans
            return "stabilizer.stabilize_incremental"
        return f"stabilizer.{strategy}"

    def stabilize_after(args, kwargs, fp):
        if _arg(args, kwargs, 2, "strategy", "leftmost") != "incremental":
            tracer.add("stabilizer.firings", sum(fp.shot))

    def trajectory_name(args, kwargs):
        checked = _arg(args, kwargs, 4, "check", True)
        return "dds.trajectory_checked" if checked else "dds.trajectory"

    support = analyzer.support

    functions = [
        (stabilizer, "stabilize", stabilize_name, stabilize_after),
        (
            dds,
            "trajectory_report",
            trajectory_name,
            lambda a, k, rep: tracer.add("dds.window_steps", rep.steps),
        ),
        (
            dds,
            "reconstruct_fixed_point",
            "dds.reconstruct",
            lambda a, k, rec: tracer.add("dds.window_steps", rec.steps),
        ),
        (
            analyzer,
            "parse_waves",
            "analyzer.parse_waves",
            lambda a, k, r: tracer.add(
                "analyzer.parse_waves.columns", support(_arg(a, k, 1, "slopes", ()))
            ),
        ),
        (analyzer, "scan_rows", "analyzer.scan_rows", None),
        (
            spectral,
            "z_trajectory",
            "spectral.z_trajectory",
            lambda a, k, rep: tracer.add("spectral.z_trajectory.steps", rep.steps),
        ),
        (spectral, "centered_matrix", "spectral.centered_matrix", None),
        (spectral, "roots_R", "spectral.roots", None),
        (spectral, "eigvals_O", "spectral.eigvals", None),
        (spectral, "perturbation_bound", "spectral.perturbation_bound", None),
        (spectral, "bezout_witness", "spectral.bezout", None),
        (cli, "main", "cli", None),
    ]
    for module, attr, name, after in functions:
        orig = getattr(module, attr)
        _replace_everywhere(orig, tracer.wrap(orig, name, after))

    inc = stabilizer.IncrementalStabilizer
    inc.advance_to = tracer.wrap(inc.advance_to, "stabilizer.incremental")
    inc.snapshot = tracer.wrap(
        inc.snapshot, "stabilizer.snapshot", tracer.note_snapshot
    )
    slope_config = model.SlopeConfig
    slope_config.__init__ = tracer.wrap(slope_config.__init__, "model.slope_config")
    matrix = spectral.ExactMatrix
    matrix.charpoly = tracer.wrap(matrix.charpoly, "spectral.charpoly")
    matrix.__matmul__ = tracer.count_calls(
        matrix.__matmul__, "spectral.exact_matmul.calls"
    )


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children.

    Children of one span never overlap, so subtracting their summed
    durations removes exactly the time they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, *_), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - child
    return totals


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass (zero where a layer never ran)."""
    own = self_times(spans)
    out = {metric: own.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    out.update(counts)
    firings = counts["stabilizer.firings"]
    steps = counts["dds.window_steps"]
    engine = sum(own.get(name, 0.0) for name in ENGINE_SPANS)
    dds_self = sum(own.get(name, 0.0) for name in DDS_SPANS)
    out["stabilizer.ns_per_firing"] = engine / firings * 1e9 if firings else 0.0
    out["dds.ns_per_step"] = dds_self / steps * 1e9 if steps else 0.0
    return out
