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
walks the wave chain again only where each sample's settles touched,
less the quiet columns the step's one avalanche fired through once.  It
copies that touched prefix of the pile's lists into a row of a block of
samples, computes the mass balance, the ambiguity counts and the first
uniform windows of a whole block with numpy array operations, and
checks the whole width once more at its last sample.
The audits of the paper's lemmas along whole trajectories (plateaus in
every intermediate state, the climbing interior zero) are test-side, in
``tests/lemma_audits.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import pairwise, repeat
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
#: Samples whose statistics a scan computes together in one pass of array
#: operations; blocks of 32 and 128 rows take the same time.
BLOCK_ROWS = 64


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
    """The wave chain of one growing pile, kept current where it changed.

    ``touched`` bounds what changed since the last update: slopes only in
    ``[0, touched)``, as the pile's ``advance_to`` returns it, so the
    support carries over while it lies past ``touched``.  A chain node's
    next step reads the ``p`` slopes left of it, so the nodes at or past
    ``touched + p`` step as before.  Inside ``touched``, the pile's
    ``quiet`` columns ``[lo, hi)``, between the prefix and the edge of the
    step's one avalanche, kept their slopes, so the nodes in ``[lo + p,
    hi]`` step as before too: the walk back from the support tries once
    for the rightmost of them, and if it lands there the old chain goes on
    from there.
    """

    def __init__(self, p: int):
        check_p(p)
        self.p = p
        self._width = 0
        self._nodes: list[int] = []  # wave chain from the support leftwards
        self._zeros: list[int] = []  # its zero blocks, right to left

    def update(
        self,
        slopes: list,
        touched: int | None = None,
        quiet: tuple[int, int] | None = None,
    ) -> tuple[int, int, int, tuple[int, ...]]:
        """Width, strict and loose wave starts and strict zeros of these slopes.

        Without ``touched`` every column may have changed.  A strict tail
        holds at most one interior zero, the chain's first.
        """
        p = self.p
        if touched is None:
            touched = len(slopes)
        lo, hi = quiet or (touched, touched)
        w = self._width
        if w <= touched:
            w = min(touched, len(slopes))
            while w and not slopes[w - 1]:
                w -= 1
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
        self._width = w
        return w, strict, loose, tuple(zeros[:1])


def row_statistics(p: int, n: int, slopes, shot) -> RowStatistics:
    """Scan statistics of a fixed point, checked over its whole width.

    Padding the shot vector with the virtual ``n, 0, ..., 0`` makes the
    shot window at column ``i`` the slice ``a[i : i + p + 1]``, which
    closes at column ``steps``.  The mass balance is checked at every
    column before it, so the windows are exactly those
    :func:`kspm.dds.trajectory_report` replays from ``a_0``; with
    non-negative slopes it also rules out an all-zero window before
    ``steps``.  Raises :class:`NonIntegral` when the balance fails or the
    slopes run past the closing window.
    """
    check_p(p)
    slopes, shot = list(trimmed(slopes)), list(trimmed(shot))
    w = len(slopes)
    steps = max(len(shot) + p, p + 1)
    if w > steps:
        raise NonIntegral(
            f"shot window closes at column {steps} but slopes run to column {w - 1}"
        )
    a = [n, *repeat(0, p - 1), *shot, *repeat(0, p + 2)]
    b = slopes + [0] * (steps - w)
    pp1 = p + 1
    balance = [x - pp1 * y + p * z for x, y, z in zip(a, a[p:], a[p + 1 :])]
    if balance[:steps] != b:
        i = next(i for i, (u, v) in enumerate(zip(balance, b)) if u != v)
        raise NonIntegral(f"shot vector breaks the mass balance at column {i}")
    # the balance makes shot[i - p] - shot[i] congruent to b[i] mod p
    ambiguous = sum(v % p == 0 for v in b)
    # window i is uniform when its p differences, d[i .. i+p-1], are equal;
    # the closing window is all zero, so one is always found
    run = 0
    prev = None
    for uniform, (x, y) in enumerate(pairwise(a), 1 - p):
        run = run + 1 if y - x == prev else 1
        prev = y - x
        if run == p:
            break
    zeros: list[int] = []
    strict, loose = _wave_chain(p, slopes, [w], zeros)
    return RowStatistics(
        width=w,
        n_strict=strict,
        n_loose=loose,
        zero_positions=tuple(zeros[:1]),
        uniform_index=uniform,
        ambiguous_count=ambiguous,
    )


class _SampleBlock:
    """A growing pile's lists at up to ``BLOCK_ROWS`` samples, checked together.

    Row ``r`` of ``slopes`` holds the slopes at the ``r``-th sample of the
    block, and the same row of ``padded`` its shots as ``a_{j-p}``, after
    the virtual ``n, 0, ..., 0``.  Row 0 repeats the last sample of the
    block before.  A sample copies into its row only what its step may
    have changed, the slopes of ``[0, touched)`` and the shots of ``[0,
    touched - p)``; the rest of the row repeats the row before.  The rows
    are as wide as the largest extent so far, and at least ``p + 1`` so
    that the closing window fits; every column past them holds slope 0
    and shot 0.  They widen geometrically, never past the pile's lists.
    """

    def __init__(self, p: int, cap: int):
        import numpy as np

        self.p = p
        self.cap = cap
        self.ns: list[int] = []  # the grain counts of the block's samples
        self.slopes = self.padded = np.zeros((BLOCK_ROWS + 1, 0), np.int64)
        self._widen(p + 1)

    def add(self, n: int, slopes: list, shot: list, touched: int) -> None:
        """Copy the pile's lists at ``n`` grains, changed only inside ``touched``."""
        p = self.p
        if touched > self.slopes.shape[1]:
            self._widen(touched)
        r = len(self.ns) + 1
        s, a = self.slopes, self.padded
        s[r] = s[r - 1]
        a[r] = a[r - 1]
        s[r, :touched] = slopes[:touched]
        a[r, 0] = n
        if touched > p:
            a[r, p:touched] = shot[: touched - p]
        self.ns.append(n)

    def _widen(self, touched: int) -> None:
        """Widen the rows to at least ``touched`` columns, keeping their values."""
        import numpy as np

        width = min(max(touched, 2 * self.slopes.shape[1]), self.cap)
        slopes = np.zeros((BLOCK_ROWS + 1, width), np.int64)
        padded = np.zeros((BLOCK_ROWS + 1, width + self.p + 1), np.int64)
        slopes[:, : self.slopes.shape[1]] = self.slopes
        padded[:, : self.padded.shape[1]] = self.padded
        self.slopes, self.padded = slopes, padded

    def flush(self) -> tuple[list[int], list[int]]:
        """Check the block's rows; return their uniform windows and ambiguity counts.

        The mass balance is checked at every column of every row, which
        also refuses slopes past a closing window, where every shot the
        balance reads is 0.  It raises :class:`NonIntegral` naming the
        grain count of the first row it fails.  Row 0 then takes the
        block's last row.
        """
        import numpy as np

        p, k = self.p, len(self.ns)
        s, a = self.slopes[1 : k + 1], self.padded[1 : k + 1]
        width = s.shape[1]
        pp1 = p + 1
        # as in the batch engine: a_{i-p} + p a_{i+1} is at most n plus p times
        # the firing bound, and (p+1) a_i no larger, since no slope is negative
        bad = a[:, :width] + p * a[:, pp1:] - pp1 * a[:, p : p + width] != s
        if bad.any():
            r, i = divmod(int(bad.argmax()), width)
            raise NonIntegral(
                f"N={self.ns[r]}: shot vector breaks the mass balance at column {i}"
            )
        # with the balance, the slopes end where the window closes, p columns
        # right of the last nonzero shot, unless no column fired
        steps = np.maximum(((s != 0) * np.arange(1, width + 1)).max(axis=1), pp1)
        # the balance makes shot[i - p] - shot[i] congruent to slope i mod p, and
        # a pile's slopes lie in [0, p]; the columns from steps on, all 0, are
        # flagged too and taken off
        flags = (s == 0) | (s == p)
        ambiguous = np.count_nonzero(flags, axis=1) - (width - steps)
        # window i is uniform when its p differences, d[i .. i+p-1], are equal,
        # that is when the p - 1 comparisons of neighbours from i on all hold;
        # the closing window is all zero, so one is always found
        d = np.diff(a, axis=1)
        same = np.zeros(d.shape, np.int64)
        np.cumsum(d[:, 1:] == d[:, :-1], axis=1, out=same[:, 1:])
        uniform = same[:, p - 1 :] - same[:, : same.shape[1] - p + 1] == p - 1
        self.slopes[0] = self.slopes[k]
        self.padded[0] = self.padded[k]
        self.ns.clear()
        return uniform.argmax(axis=1).tolist(), ambiguous.tolist()


def scan_rows(p: int, n_values, timing: bool = False) -> dict[str, list]:
    """Stabilize at each sampled grain count and summarize the result.

    The rows come back as columns: one list per field, with one value per
    sample in sample order, keyed ``N, p, w, n_strict, n_loose,
    uniform_index, interior_zeros, density_column, ambiguous_count,
    elapsed_us`` as ``kspm scan`` writes them.  One growing pile replays
    every avalanche up to each sample, and ``density_column`` is the
    largest density column of those avalanches.  One :class:`WaveTracker`
    walks the pile's wave chain at each sample.  The pile's lists go into
    blocks of ``BLOCK_ROWS`` samples, and each block's mass balance,
    ``uniform_index`` and ``ambiguous_count`` come from one pass of array
    operations.  The last sample is checked again over the whole width by
    :func:`row_statistics`, and a difference raises
    :class:`RecurrenceMismatch`.  ``elapsed_us`` is 0 unless ``timing`` is
    set, keeping default output reproducible; with it, a row's time is its
    settles, its copy and its chain walk, plus an equal share of its
    block's array pass.  A scan of more than ``MAX_SAMPLES`` samples
    raises :class:`CapacityError` before its pile is built, after the
    pile's own firing preflight.
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
    work = check_work(p, check_grains(targets[-1]))
    if len(targets) > MAX_SAMPLES:
        raise CapacityError(
            f"{len(targets)} samples exceed the {MAX_SAMPLES}-sample limit of one scan"
        )
    # every shot is at most the firing bound, so a balance term of the blocks,
    # a_{i-p} + p a_{i+1}, is at most N plus p times it: int64 never wraps
    assert targets[-1] + p * work < 2**63
    inc = IncrementalStabilizer(p, expect=targets[-1])
    tracker = WaveTracker(p)
    block = _SampleBlock(p, len(inc.slopes))
    rows: dict[str, list] = {
        k: []
        for k in ("N", "p", "w", "n_strict", "n_loose", "uniform_index",
                  "interior_zeros", "density_column", "ambiguous_count", "elapsed_us")
    }
    sampled = [rows[k] for k in ("N", "p", "w", "n_strict", "n_loose",
                                 "interior_zeros", "density_column")]
    spent: list[float] = []  # seconds per sample of the block, before its pass

    def flush() -> None:
        t0 = time.perf_counter() if timing else 0.0
        uniform, ambiguous = block.flush()
        share = (time.perf_counter() - t0) / len(spent) if timing else 0.0
        rows["uniform_index"] += uniform
        rows["ambiguous_count"] += ambiguous
        rows["elapsed_us"] += [int((s + share) * 1e6) for s in spent]
        spent.clear()

    for n in targets:
        t0 = time.perf_counter() if timing else 0.0
        touched = inc.advance_to(n)
        block.add(n, inc.slopes, inc.shot, touched)
        w, strict, loose, zeros = tracker.update(inc.slopes, touched, inc.quiet)
        sample = (n, p, w, strict, loose, len(zeros), inc.density_max)
        for column, value in zip(sampled, sample):
            column.append(value)
        spent.append(time.perf_counter() - t0 if timing else 0.0)
        if len(spent) == BLOCK_ROWS:
            flush()
    if spent:
        flush()
    # every column's balance once more, on the live lists, so a change the
    # extents missed still fails
    last = RowStatistics(
        w, strict, loose, zeros, rows["uniform_index"][-1], rows["ambiguous_count"][-1]
    )
    if row_statistics(p, n, inc.slopes, inc.shot) != last:
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
