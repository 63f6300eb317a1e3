"""Command line interface.

Subcommands: ``stabilize`` (one fixed point, fully described),
``scan`` (sampled grain counts with pattern statistics and log fits),
``spectral`` (one row per p, decided by ``spectral.certify``),
``avalanche`` (detail of the avalanche triggered by grain k), and
``verify`` (consolidated invariant check for one pile).

Exit codes: 0 success, 1 domain error, 2 bad arguments or an unwritable
or empty output path, 3 resource or overflow limits, 4 spectral gate
failure, 5 verification violation.

Output is JSON (default) or CSV, written to stdout or ``--output``.
A JSON document is ``{"meta": {"tool", "version", "command", "config"},
"result"}``, where ``config`` holds every parsed argument except
``--format``, ``--output`` and ``--emit-plot-data``; its text is
``json.dumps(doc, indent=2)`` byte for byte.  ``_pieces`` writes each
value of ``result`` with ``json.dumps``, except a ``Table`` (columns from
producer to writer), written as the list of its rows through one row
template.  The whole document is encoded first, so one that ``json.dumps``
refuses writes nothing; the text then goes out in pieces of at most
``CHUNK`` table rows.  CSV writes one ``Table`` through ``csv.writer`` to
the destination: ``stabilize`` and ``avalanche`` results as
``field,value`` rows (a list space-separated), ``scan`` rows followed by
one ``# fit`` line per fit, ``spectral`` rows and ``verify`` checks.  A
reader that closes the output early ends it quietly.  Documents are
byte-stable across runs: timing fields are zero unless ``--timing`` is
given.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from math import isfinite, log2, sqrt

from . import __version__, analyzer, dds, spectral
from .errors import CapacityError, Divergence, KSPMError, NonIntegral, RecurrenceMismatch
from .model import grain_count, heights_from_slopes
from .stabilizer import (
    MAX_MATRIX_WORK,
    IncrementalStabilizer,
    check_matrix,
    holes,
    stabilize,
)


class _Unwritable(Exception):
    """An output path that cannot be written, or one file named by both."""


@contextmanager
def _writing(path: str, newline: str | None = None):
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except BrokenPipeError:
        pass  # the reader closed the pipe early: the output ends quietly, as on stdout
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path: str) -> None:
    """Refuse a path ``open(path, "w")`` would refuse, without touching it.

    An existing file is tested itself, so ``/dev/null`` passes; a new one
    by its directory.
    """
    if not path:
        raise _Unwritable("cannot write an empty path")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise _Unwritable(f"cannot write {path}: {os.strerror(code)}")


# argparse bookkeeping and output settings; every other parsed argument is config
_NOT_CONFIG = ("command", "func", "format", "output", "emit_plot_data")

# CPython runs its C encoder only without ``indent``, so table cells go through
# this one.  With ``ensure_ascii`` every string escapes its control characters,
# so the raw newline between its items cannot occur inside one.
_encode_items = json.JSONEncoder(separators=("\n", ": ")).encode
# most table rows joined into one piece of the written text
CHUNK = 512


class Table(dict):
    """Rows as columns: each key, in output order, maps to a list of scalars
    with one value per row.  JSON writes a table as the list of its rows, and
    CSV as its keys and then one line per row."""


def _cells(values):
    """Each value's JSON text; a dict, list or tuple raises ``TypeError``.

    Exact ints are their own text under ``%s`` and come back as they are,
    which halves the writer's time on scan rows; any other values are one C
    encoder call, split at its items.
    """
    if all(type(v) is int for v in values):
        return values
    if any(isinstance(v, (dict, list, tuple)) for v in values):
        raise TypeError("a table column holds a dict, list or tuple")
    return _encode_items(values)[1:-1].split("\n")


def _rows(table: Table):
    """The table's text as the list of its rows, as a value of ``result``.

    Every cell is encoded here; the returned pieces only fill one ``%``
    template per row, ``CHUNK`` rows to a piece.
    """
    columns = [_cells(c) for c in table.values()]
    if not (columns and len(columns[0])):
        return ["[]"]
    # each key as json.dumps writes it, with a stand-in 0 that ``%s`` replaces
    names = _encode_items(dict.fromkeys(table, 0))[1:-1].replace("%", "%%").split("\n")
    template = "{\n        " + ",\n        ".join(n[:-1] + "%s" for n in names) + "\n      }"

    def chunks():
        for start in range(0, len(columns[0]), CHUNK):
            rows = zip(*[c[start : start + CHUNK] for c in columns])
            yield ("," if start else "[") + "\n      " + ",\n      ".join(
                [template % row for row in rows]
            )
        yield "\n    ]"

    return chunks()


def _pieces(meta: dict, result: dict):
    """``json.dumps({"meta": meta, "result": result}, indent=2)`` as an
    iterator of text pieces, with each ``Table`` directly under ``result``
    written as the list of its rows; that is where every command puts one,
    and a table anywhere else is written as the dict of its columns.

    Any other value of ``result`` is one ``json.dumps`` call with its key,
    indented to its depth: ``json.dumps`` escapes every newline inside a
    string, so each raw newline in its text is structural.  Everything is
    encoded first, so whatever ``json.dumps`` raises is raised here, before
    the first piece.
    """
    parts = ['{\n  "meta": ' + json.dumps(meta, indent=2).replace("\n", "\n  ")]
    sep = ',\n  "result": {\n    '
    for k, v in result.items():
        table = isinstance(v, Table)
        # the one-key dict's text is ``{\n  k: v\n}``: keep ``k: v``, one level deeper
        item = json.dumps({k: [] if table else v}, indent=2)[4:-2].replace("\n", "\n  ")
        parts += [sep + item[:-2], _rows(v)] if table else [sep + item]
        sep = ",\n    "
    parts.append("\n  }\n}" if result else ',\n  "result": {}\n}')
    return chain.from_iterable([p] if isinstance(p, str) else p for p in parts)


def _emit(args, result: dict, table: Table | None = None, trailer: str = "") -> None:
    """Write the document to ``--output`` or stdout.

    JSON is ``{"meta": …, "result": result}``, encoded whole by ``_pieces``
    before the destination is opened.  CSV is ``table`` (``None`` is
    written as ``""``), then ``trailer``; with no ``table`` it is the result
    as ``field,value`` rows, a list written space-separated.  A reader that
    closes the destination early ends the output quietly.
    """
    if args.format == "json":
        meta = {"tool": "kspm", "version": __version__, "command": args.command}
        meta["config"] = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        pieces = _pieces(meta, result)

        def write(fh) -> None:
            fh.writelines(pieces)
            fh.write("\n")

    else:
        if table is None:
            values = [
                " ".join(map(str, v)) if isinstance(v, list) else v for v in result.values()
            ]
            table = Table(field=list(result), value=values)

        def write(fh) -> None:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(table)
            w.writerows(zip(*table.values()))
            fh.write(trailer)

    if args.output:
        with _writing(args.output) as fh:
            write(fh)
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to os.devnull, so
        # that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _exit_code(table: Table, key: str, message: str, code: int) -> int:
    """``code`` after naming the first row that is not ok on stderr, else 0."""
    for ok, name in zip(table["ok"], table[key]):
        if not ok:
            print(f"{message}{name}", file=sys.stderr)
            return code
    return 0


def _describe_fixed_point(fp) -> dict:
    stats = analyzer.row_statistics(fp.p, fp.n_grains, fp.slopes.slopes, fp.shot)
    return {
        "p": fp.p,
        "N": fp.n_grains,
        "strategy": fp.strategy,
        "slopes": list(fp.slopes.slopes),
        "heights": list(heights_from_slopes(fp.slopes)),
        "shot": list(fp.shot),
        "w": stats.width,
        "n_strict": stats.n_strict,
        "n_loose": stats.n_loose,
        "uniform_index": stats.uniform_index,
        "interior_zeros": len(stats.zero_positions),
        "zero_positions": list(stats.zero_positions),
        "ambiguous_count": stats.ambiguous_count,
    }


def cmd_stabilize(args) -> int:
    fp = stabilize(args.p, args.n, strategy=args.strategy, seed=args.seed)
    _emit(args, _describe_fixed_point(fp))
    return 0


def _fit_dict(rows, field: str) -> dict:
    try:
        return {"ok": True, **analyzer.log_fit(rows, field)}
    except KSPMError as exc:
        return {"ok": False, "reason": str(exc)}


def cmd_scan(args) -> int:
    targets = range(args.stride, args.n_max + 1, args.stride)
    rows = Table(analyzer.scan_rows(args.p, targets, args.timing))
    fits = {
        field: _fit_dict(rows, field)
        for field in ("n_strict", "uniform_index", "density_column")
    }
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, rows)
    trailer = "".join(
        f"# fit {field}: c={fit['c']!r} d={fit['d']!r}"
        f" max_ratio={fit['max_ratio']!r} points={fit['points']}\n"
        if fit["ok"]
        else f"# fit {field}: unavailable ({fit['reason']})\n"
        for field, fit in fits.items()
    )
    _emit(args, {"rows": rows, "fits": fits}, rows, trailer)
    return 0


def _write_plot_data(path: str, rows) -> None:
    with _writing(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series", "x", "y"])
        for n, strict in zip(rows["N"], rows["n_strict"]):
            if n >= 2:
                w.writerow(["n_strict_vs_log2N", repr(log2(n)), strict])
        for n, width in zip(rows["N"], rows["w"]):
            w.writerow(["w_vs_sqrtN", repr(sqrt(n)), width])


def cmd_spectral(args) -> int:
    # every row builds p-by-p matrices; refuse the largest, then a range
    # whose rows together cost too much, before any row
    check_matrix(args.p_max)
    # sum of p**3 over the range, as (k (k + 1) / 2)**2 sums it over 1..k
    hi, lo = args.p_max, args.p_min - 1
    work = (hi * (hi + 1) // 2) ** 2 - (lo * (lo + 1) // 2) ** 2
    if work > MAX_MATRIX_WORK:
        raise CapacityError(
            f"p={args.p_min}..{args.p_max} needs about {work} steps of p-by-p "
            f"matrix work, over the {MAX_MATRIX_WORK} limit"
        )
    rows = Table()
    for p in range(args.p_min, args.p_max + 1):
        for k, v in spectral.certify(p, args.tol).items():
            rows.setdefault(k, []).append(v)
    _emit(args, {"ok": all(rows["ok"]), "rows": rows}, rows)
    return _exit_code(rows, "p", "spectral gate failed at p=", 4)


def cmd_avalanche(args) -> int:
    inc = IncrementalStabilizer(args.p, expect=args.k)
    inc.advance_to(args.k - 1)
    av = inc.advance()
    result = {
        "p": args.p,
        "k": av.k,
        "fired": list(av.fired),
        "fired_count": len(av.fired),
        "max_fired": av.max_fired,
        "density_column": av.density_column,
        "holes": list(holes(av.fired)),
    }
    _emit(args, result)
    return 0


def _verification_checks(p: int, n: int, seed: int) -> Table:
    # the replay builds no p-by-p matrix, but verify keeps spectral's p <= 1000
    # limit as it is (ROADMAP item 9 revisits it); refuse before any engine runs
    check_matrix(p)
    checks = Table(name=[], ok=[], detail=[])

    def add(name: str, ok: bool, detail: str) -> None:
        checks["name"].append(name)
        checks["ok"].append(bool(ok))
        checks["detail"].append(detail)

    failures = (NonIntegral, Divergence, RecurrenceMismatch)

    @contextmanager
    def replaying(name: str):
        # a recurrence that fails to replay is a violation, not a crash
        try:
            yield
        except failures as exc:
            add(name, False, str(exc))

    direct = stabilize(p, n, "batch")
    incremental = stabilize(p, n, "incremental")
    randomized = stabilize(p, n, "random", seed=seed)
    add(
        "strategy_independence",
        direct.slopes == incremental.slopes == randomized.slopes
        and direct.shot == incremental.shot == randomized.shot,
        "fixed point and shot vector agree across batch/incremental/random",
    )
    add(
        "grain_conservation",
        grain_count(direct.slopes) == n,
        f"weighted slope mass equals N={n}",
    )
    stats = None
    with replaying("shot_balance"):
        stats = analyzer.row_statistics(p, n, direct.slopes.slopes, direct.shot)
        add("shot_balance", True, "slopes match the shot-vector balance at every column")
    with replaying("reconstruction"):
        recon = dds.reconstruct_fixed_point(
            p, n, direct.shot_at(0), direct.slopes.__getitem__
        )
        add(
            "reconstruction",
            recon.slopes == direct.slopes and recon.shot == direct.shot,
            "window recurrence rebuilds the fixed point from (N, a0)",
        )
    # one replay fills trajectory_invariants here and centered_recurrence last
    try:
        rep = dds.trajectory_report(p, direct.slopes, direct.shot_at(0), n)
    except failures as exc:
        invariants = centered = (False, str(exc))
    else:
        violations = list(rep.violations)
        # the replay is the independent check of the scan statistics
        read = (rep.uniform_index, rep.ambiguous_count)
        if stats is not None and read != (stats.uniform_index, stats.ambiguous_count):
            violations.append(
                f"replay reads uniform_index {rep.uniform_index} and ambiguous_count "
                f"{rep.ambiguous_count}, the row statistics {stats.uniform_index} "
                f"and {stats.ambiguous_count}"
            )
        invariants = (
            not violations,
            "; ".join(violations) or "determinations, commutation and envelopes hold",
        )
        if rep.centered_mismatch is None:
            detail = "exact centered recurrence and initial spread identity"
            centered = (rep.spread0_identity_ok, detail)
        else:
            centered = (False, f"centered recurrence mismatch at column {rep.centered_mismatch}")
    add("trajectory_invariants", *invariants)
    if stats is None:
        add("wave_tail", False, "no wave statistics without the shot balance")
    else:
        add(
            "wave_tail",
            # the loose wave start, read from the slopes, is the first uniform
            # shot window, read from the shots
            stats.n_loose == stats.uniform_index,
            f"strict parse from column {stats.n_strict} with "
            f"{len(stats.zero_positions)} interior zero(s)",
        )
    w = direct.slopes.support
    add("support_bounds", analyzer.support_bounds(p, n, w), f"w={w} inside exact bounds")
    plateau = analyzer.max_plateau(heights_from_slopes(direct.slopes))
    add("plateau_bound", plateau <= p + 1, f"longest plateau {plateau} <= {p + 1}")
    add("centered_recurrence", *centered)
    return checks


def cmd_verify(args) -> int:
    checks = _verification_checks(args.p, args.n, args.seed)
    _emit(args, {"ok": all(checks["ok"]), "checks": checks}, checks)
    return _exit_code(checks, "name", "verification violated: ", 5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspm",
        description="Sandpile fixed points with a tunable kick range: "
        "simulation, exact shot-vector dynamics, spectra and wave patterns.",
    )
    parser.add_argument("--version", action="version", version=f"kspm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )
        sp.add_argument("--output", help="write to this path instead of stdout")

    sp = sub.add_parser("stabilize", help="stabilize N grains and describe the result")
    sp.add_argument("--p", type=int, required=True, help="kick range parameter (>= 1)")
    sp.add_argument("--n", type=int, required=True, help="number of grains")
    sp.add_argument(
        "--strategy",
        choices=("batch", "random", "incremental"),
        default="batch",
        help="engine; every choice reaches the same slopes and shot vector",
    )
    sp.add_argument("--seed", type=int, default=0, help="seed for --strategy random")
    common(sp)
    sp.set_defaults(func=cmd_stabilize)

    sp = sub.add_parser("scan", help="sample grain counts and fit growth laws")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True, help="largest grain count")
    sp.add_argument("--stride", type=int, default=1, help="sample every this many grains")
    sp.add_argument(
        "--timing",
        action="store_true",
        help="fill elapsed_us with each row's settles and copy plus an equal share "
        "of its block's array pass (output no longer byte-stable)",
    )
    sp.add_argument(
        "--emit-plot-data",
        metavar="PATH",
        help="also write series/x/y CSV suitable for plotting",
    )
    common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("spectral", help="exact certificates and root gates per p")
    sp.add_argument("--p-min", type=int, default=2)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9, help="root residual gate")
    common(sp)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("avalanche", help="describe the avalanche of grain k")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True, help="index of the added grain")
    common(sp)
    sp.set_defaults(func=cmd_avalanche)

    sp = sub.add_parser("verify", help="consolidated invariant check for one pile")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0, help="seed for the random strategy leg")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if getattr(args, "p", 1) < 1:
        parser.error("--p must be at least 1")
    if getattr(args, "n", 0) < 0:
        parser.error("--n must be non-negative")
    if getattr(args, "n_max", 1) < 1:
        parser.error("--n-max must be at least 1")
    if getattr(args, "stride", 1) < 1:
        parser.error("--stride must be at least 1")
    if getattr(args, "seed", 0) < 0:
        # random.Random(-s) draws what random.Random(s) draws
        parser.error("--seed must be non-negative")
    if getattr(args, "k", 1) < 1:
        parser.error("--k must be at least 1")
    if getattr(args, "p_min", 2) < 1:
        parser.error("--p-min must be at least 1")
    if getattr(args, "p_max", 2) < getattr(args, "p_min", 2):
        parser.error("--p-max must be at least --p-min")
    tol = getattr(args, "tol", 1.0)
    if not (isfinite(tol) and tol > 0):
        parser.error("--tol must be finite and positive")
    if args.command == "scan" and args.stride > args.n_max:
        parser.error("--stride exceeds --n-max; no sample points")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        paths = [p for p in (args.output, getattr(args, "emit_plot_data", None)) if p is not None]
        for path in paths:
            _check_writable(path)
        if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise _Unwritable(f"--output and --emit-plot-data name one file: {paths[1]}")
        return args.func(args)
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, OverflowError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except KSPMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
