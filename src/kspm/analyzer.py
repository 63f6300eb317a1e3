"""Pattern analysis of stabilized configurations.

The slope tail of every fixed point settles into *waves*: maximal
descending runs ``p, p-1, ..., 1``, separated by at most one interior
zero, followed by the implicit zero tail.  This module locates the
earliest column where that pattern starts, checks support bounds with
exact integer arithmetic, measures plateaus of equal heights, and
aggregates all of it into scan rows with logarithmic fits.  A scan's
rows are columns, one list per field in the order the CLI writes them,
and a fit is a dict keyed as the CLI writes it.  A scan grows one pile
avalanche by avalanche, so every sample has its density column.  It
keeps its row statistics current over the prefix of columns each
sample's settles touched, less the quiet columns the step's one
avalanche fired through once, and checks the whole width once more at
its last sample.
The audits of the paper's lemmas along whole trajectories (plateaus in
every intermediate state, the climbing interior zero) are test-side, in
``tests/lemma_audits.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, islice, pairwise, repeat
from math import inf, log2

from .errors import CapacityError, InsufficientData, NonIntegral, RecurrenceMismatch
from .model import check_grains, check_p, trimmed
from .stabilizer import IncrementalStabilizer, check_work

WAVE = "wave"
ZERO = "zero"
#: Most samples one scan takes; each keeps about 0.12 KB in the rows' columns.
#: The CLI writes a scan's text in row chunks, so the rows dominate its memory:
#: ``scan --p 2 --n-max 100000 --stride 1`` peaks at about 60 MiB of RSS as
#: JSON and as CSV (x86-64 Linux, CPython 3.11).
MAX_SAMPLES = 2**21


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


def _wave_chain(
    p: int, seq: list[int], nodes: list[int], zeros: list[int], stop: int = 0
):
    """Extend the backward chain of wave blocks; return its strict and loose starts.

    Only a 0 or a ``p`` begins a block, so every column from which the
    tail of the trimmed slopes ``seq`` parses lies on one chain of
    blocks, walked back from the support.  ``nodes`` holds the chain's
    columns from the support leftwards and ``zeros`` its zero blocks,
    right to left; the walk resumes at ``nodes[-1]`` and pauses at the
    first node at or left of ``stop``.  The loose start is where the
    chain ends.  Zero blocks only accumulate along it, so the strict
    start is the node just right of its second zero.
    """
    wave = list(range(p, 0, -1))
    i = nodes[-1]
    while i > stop:
        if seq[i - 1] == 0:
            i -= 1
            zeros.append(i)
        elif i >= p and seq[i - p : i] == wave:
            i -= p
        else:
            break
        nodes.append(i)
    return (zeros[1] + 1 if len(zeros) > 1 else i), i


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
    seq = list(trimmed(slopes))
    zeros: list[int] = []
    strict, loose = _wave_chain(p, seq, [len(seq)], zeros)
    start = strict if grammar == "strict" else loose
    zpos = tuple(z for z in reversed(zeros) if z >= start)
    blocks: list[str] = []
    i = start
    while i < len(seq):
        blocks.append(WAVE if seq[i] else ZERO)
        i += p if seq[i] else 1
    return WaveDecomposition(
        p=p,
        grammar=grammar,
        start=start,
        prefix=tuple(seq[:start]),
        blocks=tuple(blocks),
        zero_positions=zpos,
        interior_zero_count=len(zpos),
    )


def support_bounds(p: int, n: int, width: int) -> bool:
    """Whether ``sqrt(n)/p - 1 < width < (p+1) sqrt(n) + p + 1``, decided exactly.

    Both inequalities are cross-multiplied into pure integer comparisons:
    the lower bound is ``n < p**2 (width+1)**2`` and the upper bound is
    ``(width - p - 1)**2 < (p+1)**2 n`` (trivially true for widths below ``p + 1``;
    at ``p + 1`` it needs ``n > 0``).
    """
    check_p(p)
    check_grains(n)
    if width < 0:
        raise ValueError("width must be non-negative")
    lower_ok = n < p * p * (width + 1) * (width + 1)
    upper_ok = width < p + 1 or (width - p - 1) ** 2 < (p + 1) ** 2 * n
    return lower_ok and upper_ok


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


class WaveTracker:
    """Scan statistics of one growing pile, kept current where it changed.

    Padding the shot vector with the virtual ``n, 0, ..., 0`` makes the
    shot window at column ``i`` the slice ``a[i : i + p + 1]``, which
    closes at column ``steps``.  The mass balance is checked at every
    column before it, so the windows are exactly those
    :func:`kspm.dds.trajectory_report` replays from ``a_0``; with
    non-negative slopes it also rules out an all-zero window before
    ``steps``.

    ``touched`` bounds what changed since the last update: slopes only in
    ``[0, touched)`` and shots only in ``[0, touched - p)``, as the
    pile's ``advance_to`` returns it.  Inside it, the pile's ``quiet``
    columns ``[lo, hi)``, between the prefix and the edge of the step's
    one avalanche, kept their slopes, and that avalanche fired each
    column of ``[lo - p, hi]`` once.  The balance of column
    ``i`` reads slope ``i``, shots ``i - p``, ``i`` and ``i + 1``, and
    ``n`` at column 0; it holds on wherever the three shots gained the
    same, so only ``[0, lo)`` and ``[hi, touched)`` are checked again.
    The shot differences of the quiet columns hold too: a last
    ``uniform_index`` answer in ``[lo, hi]`` stays unless a window left
    of ``lo`` is uniform now, and one at or past ``touched`` unless a
    window left of ``touched`` is.  The ambiguity terms, both trimmed
    lengths and the wave chain nodes whose next step reads only quiet
    columns or columns at or past ``touched`` carry over: the walk back
    from the support tries once for the rightmost quiet node of the old
    chain, and if it lands there the old chain goes on from there.
    """

    def __init__(self, p: int):
        check_p(p)
        self.p = p
        self._width = self._shots = self._steps = self._uniform = 0
        self._flags: list[bool] = []  # slope % p == 0 for columns before steps
        self._ambiguous = 0
        self._nodes: list[int] = []  # wave chain from the support leftwards
        self._zeros: list[int] = []  # its zero blocks, right to left

    def _balance(self, n: int, slopes: list, shot: list, lo: int, hi: int) -> list:
        """Check the balance of columns ``[lo, hi)`` and return their flags."""
        p = self.p
        b = slopes[lo:hi]
        a = shot[lo : hi + 1]
        if lo >= p:
            back = shot[lo - p : hi - p]
        else:
            back = ([n] + [0] * (p - 1))[lo:hi] + shot[: max(hi - p, 0)]
        if len(b) < hi - lo or len(a) <= hi - lo:
            # the lists end early; every column past them holds 0
            b += [0] * (hi - lo - len(b))
            back += [0] * (hi - lo - len(back))
            a += [0] * (hi + 1 - lo - len(a))
        pp1 = p + 1
        balance = [x - pp1 * y + p * z for x, y, z in zip(back, a, a[1:])]
        if balance != b:
            i = next(i for i, (u, v) in enumerate(zip(balance, b), lo) if u != v)
            raise NonIntegral(f"shot vector breaks the mass balance at column {i}")
        # the balance makes shot[i - p] - shot[i] congruent to b[i] mod p
        return [v % p == 0 for v in b]

    def update(
        self,
        n: int,
        slopes: list,
        shot: list,
        touched: int | None = None,
        quiet: tuple[int, int] | None = None,
    ) -> RowStatistics:
        """Statistics of ``n`` grains on these lists, changed only inside ``touched``.

        The first update, or one without ``touched``, covers the whole
        width; one without ``quiet`` checks all of ``touched`` again.
        Raises :class:`NonIntegral` when the balance fails or the slopes
        run past the closing window, and leaves the tracker as it was.
        """
        p = self.p
        if touched is None or not self._steps:
            touched = max(len(slopes), len(shot) + p + 1)
            quiet = None
        lo, hi = quiet or (touched, touched)
        w, m = self._width, self._shots
        if w <= touched:
            w = min(touched, len(slopes))
            while w and not slopes[w - 1]:
                w -= 1
        if m <= touched - p:
            m = max(min(touched - p, len(shot)), 0)
            while m and not shot[m - 1]:
                m -= 1
        steps = max(m + p, p + 1)
        if w > steps:
            raise NonIntegral(
                f"shot window closes at column {steps} but slopes run to column {w - 1}"
            )
        # columns [0, head) and [tail, end) may have changed; the shots grow
        # only inside ``touched``, so the columns new to [0, steps) lie in them
        flags = self._flags
        head = min(lo, steps)
        tail = max(min(hi, len(flags)), head)
        end = min(touched, steps)
        head_flags = self._balance(n, slopes, shot, 0, head)
        tail_flags = self._balance(n, slopes, shot, tail, end) if tail < end else []
        self._ambiguous += (
            sum(head_flags) - sum(flags[:head]) + sum(tail_flags) - sum(flags[tail:end])
        )
        flags[:head] = head_flags
        flags[tail:end] = tail_flags
        # window i is uniform when its p differences, d[i .. i+p-1], are equal;
        # the closing window is all zero, so one is always found.  Only the
        # windows left of ``limit - p`` can replace an answer that still holds
        uniform = self._uniform
        if lo <= uniform <= hi:
            limit = lo + p - 1
        elif uniform >= touched:
            limit = touched + p - 1
        else:
            limit = None
        run = 0
        prev = None
        padded = chain((n,), repeat(0, p - 1), shot, repeat(0, p + 1))
        for k, (x, y) in enumerate(islice(pairwise(padded), limit), 1 - p):
            run = run + 1 if y - x == prev else 1
            prev = y - x
            if run == p:
                uniform = k
                break
        # a chain node's next step reads the p slopes left of it, so the nodes
        # at or past touched + p, and the quiet ones in [lo + p, hi], step as before
        nodes, zeros = self._nodes, self._zeros
        middle = []  # the quiet nodes, left to right
        while nodes and nodes[-1] < touched + p:
            x = nodes.pop()
            if lo + p <= x <= hi:
                middle.append(x)
        quiet_zeros = []
        while zeros and zeros[-1] < touched + p:
            z = zeros.pop()
            if lo + p <= z < hi:
                quiet_zeros.append(z)
        if not nodes:
            nodes.append(w)
        if middle:
            # once the walk back lands on the rightmost quiet node, the old chain
            # goes on from there; otherwise the walk below goes on where it stopped
            i = middle.pop()
            _wave_chain(p, slopes, nodes, zeros, i)
            if nodes[-1] == i:
                nodes += reversed(middle)
                zeros += [z for z in reversed(quiet_zeros) if z < i]
        strict, loose = _wave_chain(p, slopes, nodes, zeros)
        self._width, self._shots, self._steps = w, m, steps
        self._uniform = uniform
        return RowStatistics(
            width=w,
            n_strict=strict,
            n_loose=loose,
            zero_positions=tuple(zeros[:1]),  # a strict tail holds the first zero
            uniform_index=uniform,
            ambiguous_count=self._ambiguous,
        )


def row_statistics(p: int, n: int, slopes, shot) -> RowStatistics:
    """Scan statistics of a fixed point, checked over its whole width."""
    return WaveTracker(p).update(n, list(slopes), list(shot))


def scan_rows(p: int, n_values, timing: bool = False) -> dict[str, list]:
    """Stabilize at each sampled grain count and summarize the result.

    The rows come back as columns: one list per field, with one value per
    sample in sample order, keyed ``N, p, w, n_strict, n_loose,
    uniform_index, interior_zeros, density_column, ambiguous_count,
    elapsed_us`` as ``kspm scan`` writes them.  ``elapsed_us`` is 0 unless
    ``timing`` is set, keeping default output reproducible.  One growing
    pile replays every avalanche up to each sample, and ``density_column``
    is the largest density column of those avalanches.  One
    :class:`WaveTracker` follows the pile; the last sample is checked
    again over the whole width, and a difference raises
    :class:`RecurrenceMismatch`.  A scan of more than
    ``MAX_SAMPLES`` samples raises :class:`CapacityError` before its pile
    is built, after the pile's own firing preflight.
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
    # the firing preflight the pile repeats answers first; the pile can take
    # MAX_COLUMNS columns, so the sample count is refused before it is built
    check_work(p, check_grains(targets[-1]))
    if len(targets) > MAX_SAMPLES:
        raise CapacityError(
            f"{len(targets)} samples exceed the {MAX_SAMPLES}-sample limit of one scan"
        )
    inc = IncrementalStabilizer(p, expect=targets[-1])
    tracker = WaveTracker(p)
    rows: dict[str, list] = {
        k: []
        for k in ("N", "p", "w", "n_strict", "n_loose", "uniform_index",
                  "interior_zeros", "density_column", "ambiguous_count", "elapsed_us")
    }
    for n in targets:
        t0 = time.perf_counter() if timing else 0.0
        touched = inc.advance_to(n)
        stats = tracker.update(n, inc.slopes, inc.shot, touched, inc.quiet)
        elapsed = int((time.perf_counter() - t0) * 1e6) if timing else 0
        sample = (
            n, p, stats.width, stats.n_strict, stats.n_loose, stats.uniform_index,
            len(stats.zero_positions), inc.density_max, stats.ambiguous_count, elapsed,
        )
        for column, value in zip(rows.values(), sample):
            column.append(value)
    # every column's balance once more, so a change the extents missed still fails
    if row_statistics(p, n, inc.slopes, inc.shot) != stats:
        raise RecurrenceMismatch(
            f"tracked statistics at N={n} differ from a full-width check"
        )
    return rows


def log_fit(rows, field: str) -> dict:
    """Fit the scan column ``field`` as ``value ~ c * log2(N) + d``.

    Returns ``{"c", "d", "max_ratio", "points"}``.  Requires at least 10
    usable rows spanning a factor of 100 in ``N``; otherwise raises
    :class:`InsufficientData`.  ``max_ratio`` maximizes ``value / log2(N)``
    over rows with ``N >= 16``.
    """
    pts = [(n, v) for n, v in zip(rows["N"], rows[field]) if n >= 2]
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
    return {"c": c, "d": d, "max_ratio": max(ratios) if ratios else -inf, "points": m}


@dataclass(frozen=True)
class DecadeGate:
    """Regression gate comparing the last two decades of a scan column."""

    field: str
    prev_max_ratio: float
    last_max_ratio: float
    ok: bool


def decade_regression(rows, field: str, slack: float = 1.25) -> DecadeGate:
    """Require the worst ``value/log2(n)`` of the column ``field`` over the
    last decade to stay within ``slack`` times the previous decade's worst."""
    pts = [(n, v) for n, v in zip(rows["N"], rows[field]) if n >= 16]
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
