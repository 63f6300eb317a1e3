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
copies the prefix of the pile's lists that each sample's settles touched
into a row of a block of samples, computes the mass balance, the wave
tails, the ambiguity counts and the first uniform windows of a whole
block with numpy array operations, and checks the whole width once more
at its last sample.
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
#: The scan row's fields that :meth:`_SampleBlock.flush` returns, in order.
_BLOCK_FIELDS = ("w", "n_strict", "n_loose", "uniform_index", "interior_zeros", "ambiguous_count")


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


def _wave_tails(p: int, s):
    """Width, strict and loose wave starts, interior zeros and 0-or-``p`` flags.

    One per row of ``s``, slopes in ``[0, p]`` with slope 0 past the rows,
    by facts (a) and (b) of :meth:`_SampleBlock.flush`.
    """
    import numpy as np

    k, width = s.shape
    rows = np.arange(k)
    zero = s == 0
    w = (~zero * np.arange(1, width + 1)).max(axis=1)
    flags = zero | (s == p)
    # (a): ``after`` is one right of the last pair that is not allowed, or 0;
    # past the rows every slope is 0, so a last column over 1 makes it width
    bad = np.diff(s, axis=1) != -1
    bad &= (s[:, :-1] > 1) | ~flags[:, 1:]
    after = (bad * np.arange(1, width)).max(axis=1, initial=0)
    after[s[:, -1] > 1] = width
    head = s[rows, np.minimum(after, width - 1)] % p
    loose = np.where(after < width, after + head, width)
    # (b): ``seen`` counts the zeros up to each column, and every column from
    # w on holds one, so the zeros of the tail [loose, w) are zero blocks
    seen = np.cumsum(zero, axis=1)
    total = seen[:, -1] - (width - w)
    tail = total - np.where(loose > 0, seen[rows, loose - 1], 0)
    second = np.count_nonzero(seen < (total - 1)[:, None], axis=1)
    strict = np.where(tail > 1, second + 1, loose)
    return w, strict, loose, np.minimum(tail, 1), flags


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

    def flush(self) -> tuple[list[int], ...]:
        """Check the block's rows; return their ``_BLOCK_FIELDS``, as lists.

        The mass balance is checked at every column of every row, which
        also refuses slopes past a closing window, where every shot the
        balance reads is 0; :class:`NonIntegral` names the grain count of
        the first row it fails.  Row 0 then takes the block's last row.

        The wave tails rest on two facts about slopes ``s`` in ``[0, p]``
        with support ``[0, w)``.  The pair ``(j, j + 1)`` is allowed when
        ``s_{j+1} = s_j - 1``, or when ``s_j`` is 0 or 1 and ``s_{j+1}`` is
        0 or ``p``.  (a) ``[u, w)`` parses as waves iff ``s_u`` is 0 or
        ``p`` (or ``u = w``) and every pair in ``[u, w]`` is allowed.  A
        parse allows every pair: a block steps down by one and ends on 0 or
        1, and the next block, or the zero tail at ``w``, begins on 0 or
        ``p``.  Conversely, from a column holding 0 or ``p``, allowed pairs
        force a zero block or the run ``p, ..., 1``, nonzero and so left of
        ``w``, and the column after it holds 0 or ``p`` or is ``w``.  So
        ``n_loose`` is the first column holding 0 or ``p`` right of the
        last pair not allowed; from there a slope ``v`` in ``[1, p)`` steps
        down to 1, so that column lies ``v`` further on.  (b) A wave block
        holds no 0, so every 0 in ``[n_loose, w)`` is a zero block, and the
        parse from a later start is a suffix of the one from ``n_loose``.
        So ``n_strict`` is one right of the second-rightmost 0 there, or
        ``n_loose`` with fewer than two, and the strict tail holds
        ``min(1, #zeros)`` interior zeros.

        A row's ``n_loose`` must equal its ``uniform_index``, the identity
        ``verify`` checks as ``wave_tail``: a fault in the wave passes that
        moves any row's start, not only the last row's, which the scan
        checks at full width, raises :class:`RecurrenceMismatch` naming
        that row's grain count.
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
        w, strict, loose, zeros, flags = _wave_tails(p, s)
        # with the balance, the slopes end where the window closes, p columns
        # right of the last nonzero shot, unless no column fired
        steps = np.maximum(w, pp1)
        # the balance makes shot[i - p] - shot[i] congruent to slope i mod p, and
        # a pile's slopes lie in [0, p]; the columns from steps on, all 0, are
        # flagged too and taken off
        ambiguous = np.count_nonzero(flags, axis=1) - (width - steps)
        # window i is uniform when its p differences, d[i .. i+p-1], are equal,
        # that is when the p - 1 comparisons of neighbours from i on all hold;
        # the closing window is all zero, so one is always found
        d = np.diff(a, axis=1)
        same = np.zeros(d.shape, np.int64)
        np.cumsum(d[:, 1:] == d[:, :-1], axis=1, out=same[:, 1:])
        uniform = (same[:, p - 1 :] - same[:, : same.shape[1] - p + 1] == p - 1).argmax(1)
        wrong = loose != uniform
        if wrong.any():
            r = int(wrong.argmax())
            raise RecurrenceMismatch(
                f"N={self.ns[r]}: loose wave start {loose[r]}, first uniform window {uniform[r]}"
            )
        self.slopes[0] = self.slopes[k]
        self.padded[0] = self.padded[k]
        self.ns.clear()
        return tuple(x.tolist() for x in (w, strict, loose, uniform, zeros, ambiguous))


def scan_rows(p: int, n_values, timing: bool = False) -> dict[str, list]:
    """Stabilize at each sampled grain count and summarize the result.

    The rows come back as columns: one list per field, with one value per
    sample in sample order, keyed ``N, p, w, n_strict, n_loose,
    uniform_index, interior_zeros, density_column, ambiguous_count,
    elapsed_us`` as ``kspm scan`` writes them.  One growing pile replays
    every avalanche up to each sample, and ``density_column`` is the
    largest density column of those avalanches.  The pile's lists go into
    blocks of ``BLOCK_ROWS`` samples, and each block's mass balance, wave
    tails, ``uniform_index`` and ``ambiguous_count`` come from one pass of
    array operations.  The last sample is checked again over the whole
    width by :func:`row_statistics`, and a difference raises
    :class:`RecurrenceMismatch`.  ``elapsed_us`` is 0 unless ``timing`` is
    set, keeping default output reproducible; with it, a row's time is its
    settles and its copy, plus an equal share of its block's array pass.
    A scan of more than ``MAX_SAMPLES`` samples raises
    :class:`CapacityError` before its pile is built, after the pile's own
    firing preflight.
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
    block = _SampleBlock(p, len(inc.slopes))
    rows: dict[str, list] = {
        k: []
        for k in ("N", "p", "w", "n_strict", "n_loose", "uniform_index",
                  "interior_zeros", "density_column", "ambiguous_count", "elapsed_us")
    }
    spent: list[float] = []  # seconds per sample of the block, before its pass
    shared: dict[int, int] = {}  # one int object per distinct value, not one per row

    def flush() -> None:
        t0 = time.perf_counter() if timing else 0.0
        fields = block.flush()
        share = (time.perf_counter() - t0) / len(spent) if timing else 0.0
        for k, values in zip(_BLOCK_FIELDS, fields):
            rows[k] += map(shared.setdefault, values, values)
        rows["elapsed_us"] += [int((s + share) * 1e6) for s in spent]
        spent.clear()

    for n in targets:
        t0 = time.perf_counter() if timing else 0.0
        touched = inc.advance_to(n)
        block.add(n, inc.slopes, inc.shot, touched)
        rows["N"].append(n)
        rows["density_column"].append(inc.density_max)
        spent.append(time.perf_counter() - t0 if timing else 0.0)
        if len(spent) == BLOCK_ROWS:
            flush()
    if spent:
        flush()
    rows["p"] = [p] * len(rows["N"])
    # the whole width once more, on the live lists: a change the extents missed fails
    full = row_statistics(p, n, inc.slopes, inc.shot)
    want = full.width, full.n_strict, full.n_loose, full.uniform_index, len(full.zero_positions)
    if tuple(rows[k][-1] for k in _BLOCK_FIELDS) != (*want, full.ambiguous_count):
        raise RecurrenceMismatch(f"block statistics at N={n} differ from a full-width check")
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
