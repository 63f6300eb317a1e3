"""Pattern analysis of stabilized configurations.

The slope tail of every fixed point settles into *waves*: maximal
descending runs ``p, p-1, ..., 1``, separated by at most one interior
zero, followed by the implicit zero tail.  This module locates the
earliest column where that pattern starts, checks support bounds with
exact integer arithmetic, measures plateaus of equal heights, and
aggregates all of it into scan rows with logarithmic fits.  The audits
of the paper's lemmas along whole trajectories (plateaus in every
intermediate state, the climbing interior zero) are test-side, in
``tests/lemma_audits.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import inf, log2, sqrt

from .errors import InsufficientData, NonIntegral
from .model import check_grains, check_p, trimmed
from .stabilizer import IncrementalStabilizer

WAVE = "wave"
ZERO = "zero"


def support(slopes) -> int:
    """Number of columns up to and including the last nonzero slope."""
    return len(trimmed(slopes))


@dataclass(frozen=True)
class WaveDecomposition:
    """Minimal suffix of a slope sequence matching the wave grammar.

    The strict grammar allows at most one interior ``zero`` block; the
    loose grammar allows any number.  ``start`` is the least column from
    which the tail parses; a tail that only matches trivially (the empty
    suffix) gives ``start == support``.  ``zero_positions`` are absolute
    columns of interior zero blocks.
    """

    p: int
    grammar: str
    start: int
    prefix: tuple[int, ...]
    blocks: tuple[str, ...]
    zero_positions: tuple[int, ...]
    interior_zero_count: int


def _wave_chain(p: int, seq: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """Strict and loose wave starts of trimmed slopes, and every zero between.

    Only a 0 or a ``p`` begins a block, so every column from which the
    tail parses lies on one chain of blocks, walked here back from the
    support.  The loose start is where the chain ends.  Zero blocks only
    accumulate along it, so the strict start is the last column reached
    with at most one of them.  Zeros come in increasing column order.
    """
    wave = tuple(range(p, 0, -1))
    i = strict = len(seq)
    zeros: list[int] = []
    while i:
        if seq[i - 1] == 0:
            i -= 1
            zeros.append(i)
        elif i >= p and seq[i - p : i] == wave:
            i -= p
        else:
            break
        if len(zeros) <= 1:
            strict = i
    return strict, i, tuple(reversed(zeros))


def parse_waves(p, slopes, grammar: str = "strict") -> WaveDecomposition:
    """Find the minimal suffix start where the slope tail is pure waves.

    Tokenization is deterministic: a zero block is a single 0 and a wave
    block is the exact run ``p, p-1, ..., 1``, so each suffix parses in
    at most one way.  The all-zero tail past the support always parses,
    hence ``start <= support``.
    """
    check_p(p)
    if grammar not in ("strict", "loose"):
        raise ValueError(f"grammar must be 'strict' or 'loose', got {grammar!r}")
    seq = trimmed(slopes)
    strict, loose, zeros = _wave_chain(p, seq)
    start = strict if grammar == "strict" else loose
    zpos = tuple(z for z in zeros if z >= start)
    blocks: list[str] = []
    i = start
    while i < len(seq):
        blocks.append(WAVE if seq[i] else ZERO)
        i += p if seq[i] else 1
    return WaveDecomposition(
        p=p,
        grammar=grammar,
        start=start,
        prefix=seq[:start],
        blocks=tuple(blocks),
        zero_positions=zpos,
        interior_zero_count=len(zpos),
    )


@dataclass(frozen=True)
class SupportReport:
    """Support of a fixed point against its two-sided square-root bounds.

    ``lower``/``upper`` are float renderings for display; the boolean is
    decided purely with integer comparisons (no rounding involved).
    """

    p: int
    n_grains: int
    width: int
    lower: float
    upper: float
    within_bounds: bool


def support_bounds(p: int, n: int, width: int) -> SupportReport:
    """Check ``sqrt(n)/p - 1 < width < (p+1) sqrt(n) + p + 1`` exactly.

    Both inequalities are cross-multiplied into pure integer comparisons:
    the lower bound is ``n < p**2 (width+1)**2`` and the upper bound is
    ``(width - p - 1)**2 < (p+1)**2 n`` (trivially true for small widths).
    """
    check_p(p)
    check_grains(n)
    if width < 0:
        raise ValueError("width must be non-negative")
    lower_ok = n < p * p * (width + 1) * (width + 1)
    upper_ok = width <= p + 1 or (width - p - 1) ** 2 < (p + 1) ** 2 * n
    return SupportReport(
        p=p,
        n_grains=n,
        width=width,
        lower=sqrt(n) / p - 1,
        upper=(p + 1) * sqrt(n) + p + 1,
        within_bounds=lower_ok and upper_ok,
    )


def max_plateau(heights) -> int:
    """Length of the longest run of equal nonzero heights (1 when none)."""
    seq = tuple(heights)
    best = 1
    run = 0
    prev = None
    for v in seq:
        if v != 0 and v == prev:
            run += 1
        else:
            run = 1 if v != 0 else 0
        if run > best:
            best = run
        prev = v
    return best


@dataclass(frozen=True)
class ScanRow:
    """One sampled grain count in a scan.

    ``density_column`` is the running maximum avalanche density column,
    available only on incremental scans.  ``elapsed_us`` is 0 unless the
    scan was asked to time itself, keeping default output reproducible.
    """

    n_grains: int
    p: int
    width: int
    n_strict: int
    n_loose: int
    uniform_index: int
    interior_zeros: int
    density_column: int | None
    ambiguous_count: int
    elapsed_us: int


@dataclass(frozen=True)
class RowStatistics:
    """Pattern statistics of one fixed point, as a scan row reports them.

    ``n_strict``/``n_loose`` are the :func:`parse_waves` starts and
    ``zero_positions`` the strict parse's interior zeros.
    ``uniform_index`` and ``ambiguous_count`` are the fields of the same
    name in :func:`kspm.dds.trajectory_report`.
    """

    width: int
    n_strict: int
    n_loose: int
    zero_positions: tuple[int, ...]
    uniform_index: int
    ambiguous_count: int


def row_statistics(p: int, n: int, slopes, shot) -> RowStatistics:
    """Scan statistics of a fixed point from its slopes and shot vector.

    ``slopes`` and ``shot`` come without trailing zeros.  Padding the
    shot vector with the virtual ``n, 0, ..., 0`` makes the shot window
    at column ``i`` the slice ``a[i : i + p + 1]``, which closes at
    column ``steps``.  The mass balance is checked at every column before
    it, so the windows are exactly those :func:`kspm.dds.trajectory_report`
    replays from ``a_0``; with non-negative slopes the balance also rules
    out an all-zero window before ``steps``.  Raises :class:`NonIntegral`
    when the balance fails or the slopes run past the closing window.
    """
    slopes = tuple(slopes)
    shot = tuple(shot)
    w = len(slopes)
    steps = max(len(shot) + p, p + 1)
    if w > steps:
        raise NonIntegral(
            f"shot window closes at column {steps} but slopes run to column {w - 1}"
        )
    a = (n,) + (0,) * (p - 1) + shot + (0,) * (steps + 1 - len(shot))
    b = slopes + (0,) * (steps - w)
    pp1 = p + 1
    for i, (back, here, nxt, bi) in enumerate(zip(a, a[p:], a[p + 1 :], b)):
        if back - pp1 * here + p * nxt != bi:
            raise NonIntegral(f"shot vector breaks the mass balance at column {i}")
    # the balance makes a[i] - a[i + p] congruent to b[i] mod p
    ambiguous = sum(v % p == 0 for v in b)
    # window i is uniform when its p differences, d[i .. i+p-1], are equal;
    # the closing window is all zero, so one is always found
    run = 0
    prev = None
    for k, (x, y) in enumerate(zip(a, a[1:])):
        run = run + 1 if y - x == prev else 1
        prev = y - x
        if run == p:
            break
    strict, loose, zeros = _wave_chain(p, slopes)
    return RowStatistics(
        width=w,
        n_strict=strict,
        n_loose=loose,
        zero_positions=zeros[-1:],  # a strict tail holds the chain's last zero
        uniform_index=k + 1 - p,
        ambiguous_count=ambiguous,
    )


def scan_rows(
    p: int,
    n_values,
    incremental: bool = True,
    timing: bool = False,
) -> list[ScanRow]:
    """Stabilize at each sampled grain count and summarize the result.

    Both modes share one growing pile across samples; rows come back in
    sample order.  Incremental scans replay every avalanche and track
    density columns on the way.  Direct scans settle each sample's new
    grains at once, which firing's abelian property makes the same fixed
    point, and leave ``density_column`` as ``None``.
    """
    check_p(p)
    # a range is already sorted and distinct; left lazy, its largest sample
    # meets the pile's preflight before any memory is spent on the samples
    if isinstance(n_values, range) and n_values.step > 0:
        targets = n_values
    else:
        targets = sorted(set(n_values))
    if not targets:
        raise ValueError("no grain counts to scan")
    inc = IncrementalStabilizer(p, expect=targets[-1], track_density=incremental)
    rows: list[ScanRow] = []
    for n in targets:
        t0 = time.perf_counter() if timing else 0.0
        if incremental:
            inc.advance_to(n)
        else:
            inc.jump_to(n)
        stats = row_statistics(p, n, *inc.columns())
        rows.append(
            ScanRow(
                n_grains=n,
                p=p,
                width=stats.width,
                n_strict=stats.n_strict,
                n_loose=stats.n_loose,
                uniform_index=stats.uniform_index,
                interior_zeros=len(stats.zero_positions),
                density_column=inc.density_max if incremental else None,
                ambiguous_count=stats.ambiguous_count,
                elapsed_us=int((time.perf_counter() - t0) * 1e6) if timing else 0,
            )
        )
    return rows


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit ``value ~ c * log2(n) + d`` plus the worst ratio."""

    field: str
    c: float
    d: float
    max_ratio: float
    points: int


def log_fit(rows, field: str) -> LogFit:
    """Fit a scan column against ``log2(n)``.

    Requires at least 10 usable rows spanning a factor of 100 in ``n``;
    otherwise raises :class:`InsufficientData`.  ``max_ratio`` maximizes
    ``value / log2(n)`` over rows with ``n >= 16``.
    """
    pts = [
        (r.n_grains, getattr(r, field))
        for r in rows
        if getattr(r, field) is not None and r.n_grains >= 2
    ]
    if len(pts) < 10:
        raise InsufficientData(f"need at least 10 rows for a fit, got {len(pts)}")
    ns = [n for n, _ in pts]
    if max(ns) < 100 * min(ns):
        raise InsufficientData("need two decades of grain counts for a fit")
    xs = [log2(n) for n, _ in pts]
    ys = [float(v) for _, v in pts]
    m = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = m * sxx - sx * sx
    c = (m * sxy - sx * sy) / denom
    d = (sy - c * sx) / m
    ratios = [v / log2(n) for n, v in pts if n >= 16]
    return LogFit(
        field=field,
        c=c,
        d=d,
        max_ratio=max(ratios) if ratios else -inf,
        points=m,
    )


@dataclass(frozen=True)
class DecadeGate:
    """Regression gate comparing the last two decades of a scan column."""

    field: str
    prev_max_ratio: float
    last_max_ratio: float
    ok: bool


def decade_regression(rows, field: str, slack: float = 1.25) -> DecadeGate:
    """Require the worst ``value/log2(n)`` of the last decade to stay
    within ``slack`` times the previous decade's worst."""
    pts = [
        (r.n_grains, getattr(r, field))
        for r in rows
        if getattr(r, field) is not None and r.n_grains >= 16
    ]
    if not pts:
        raise InsufficientData("no rows with n >= 16")
    top = max(n for n, _ in pts)
    last = [v / log2(n) for n, v in pts if top / 10 < n <= top]
    prev = [v / log2(n) for n, v in pts if top / 100 < n <= top / 10]
    if not last or not prev:
        raise InsufficientData("need samples in each of the last two decades")
    last_max = max(last)
    prev_max = max(prev)
    return DecadeGate(
        field=field,
        prev_max_ratio=prev_max,
        last_max_ratio=last_max,
        ok=last_max <= slack * max(prev_max, 1e-12),
    )
