"""Wave grammar, support bounds, plateaus, zero movement, scans and fits."""

import copy
import itertools
import re
import tracemalloc

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_P2_N24_HEIGHTS,
    GOLDEN_P2_N24_SLOPES,
    GOLDEN_P4_N2000_NSTRICT,
    GOLDEN_P4_N2000_ZERO_AT,
)
from kspm import analyzer, dds
from kspm.errors import CapacityError, InsufficientData, NonIntegral, RecurrenceMismatch
from kspm.model import heights_from_slopes, trimmed
from lemma_audits import (
    check_plateaus_along_leftmost,
    climbing_zero_check,
    plateau_window,
)
from kspm.stabilizer import (
    IncrementalStabilizer,
    stabilize,
    trace_leftmost,
)


def regex_oracle(p, slopes, grammar):
    """Independent wave-suffix finder using a compiled regular expression.

    Slope values map to letters ('a' for 0 upward); a wave is the exact
    descending run and tokenization is unambiguous because only a wave
    starts with the letter for ``p``.
    """
    seq = tuple(slopes)
    w = len(seq)
    while w and seq[w - 1] == 0:
        w -= 1
    text = "".join(chr(97 + v) for v in seq[:w])
    # from p = 26 on the letters run into '{', '|' and '}', so they are escaped
    wave = re.escape("".join(chr(97 + p - d) for d in range(p)))
    if grammar == "strict":
        pat = re.compile(f"(?:{wave})*a?(?:{wave})*")
    else:
        pat = re.compile(f"(?:{wave}|a)*")
    for i in range(w + 1):
        if pat.fullmatch(text, i):
            zero_positions = tuple(j for j in range(i, w) if text[j] == "a")
            return i, zero_positions
    raise AssertionError("empty suffix must always match")


# ----------------------------------------------------------------- grammar


def test_parse_waves_golden_p4():
    fp = stabilize(4, 2000)
    dec = analyzer.parse_waves(4, fp.slopes, "strict")
    assert dec.start == GOLDEN_P4_N2000_NSTRICT
    assert dec.blocks == ("wave", "zero", "wave", "wave", "wave", "wave")
    assert dec.zero_positions == (GOLDEN_P4_N2000_ZERO_AT,)
    assert dec.interior_zero_count == 1
    assert dec.prefix == fp.slopes.slopes[:20]
    loose = analyzer.parse_waves(4, fp.slopes, "loose")
    assert loose.start == dec.start  # only one zero, so both grammars agree


def test_parse_waves_golden_p2():
    dec = analyzer.parse_waves(2, GOLDEN_P2_N24_SLOPES)
    assert dec.start == 5  # nothing but the empty suffix parses
    assert dec.blocks == ()


def test_parse_waves_pure_wave_tail():
    dec = analyzer.parse_waves(3, (1, 3, 2, 1, 3, 2, 1))
    assert dec.start == 1
    assert dec.blocks == ("wave", "wave")
    assert dec.zero_positions == ()


def test_parse_waves_trailing_zeros_ignored():
    dec = analyzer.parse_waves(2, (2, 1, 0, 0, 0))
    assert dec.start == 0
    assert dec.blocks == ("wave",)


def test_parse_waves_strict_vs_loose():
    seq = (2, 1, 0, 2, 1, 0, 2, 1)
    strict = analyzer.parse_waves(2, seq, "strict")
    loose = analyzer.parse_waves(2, seq, "loose")
    assert loose.start == 0
    assert loose.interior_zero_count == 2
    assert strict.start == 3
    assert strict.interior_zero_count == 1


def test_parse_waves_rejects_unknown_grammar():
    with pytest.raises(ValueError):
        analyzer.parse_waves(2, (2, 1), "fuzzy")


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=0, max_value=6), max_size=24),
    st.sampled_from(["strict", "loose"]),
)
def test_parse_waves_matches_regex_oracle(p, seq, grammar):
    want_start, want_zeros = regex_oracle(p, seq, grammar)
    dec = analyzer.parse_waves(p, seq, grammar)
    assert dec.start == want_start
    assert dec.zero_positions == want_zeros
    assert dec.interior_zero_count == len(want_zeros)
    waves = sum(1 for b in dec.blocks if b == "wave")
    zeros = sum(1 for b in dec.blocks if b == "zero")
    assert waves * p + zeros == analyzer.support(seq) - dec.start


@pytest.mark.parametrize("p", [1, 2, 3])
def test_parse_waves_matches_regex_oracle_exhaustively(p):
    # every sequence over 0..p up to length 6, so a zero right at the start,
    # a wave ending at the support and a refused prefix all occur
    for length in range(7):
        for seq in itertools.product(range(p + 1), repeat=length):
            for grammar in ("strict", "loose"):
                want_start, want_zeros = regex_oracle(p, seq, grammar)
                dec = analyzer.parse_waves(p, seq, grammar)
                assert (dec.start, dec.zero_positions) == (want_start, want_zeros)
                assert dec.prefix == seq[: dec.start]
                tail = [
                    v
                    for b in dec.blocks
                    for v in (range(p, 0, -1) if b == "wave" else (0,))
                ]
                assert tuple(tail) == trimmed(seq)[dec.start :], (seq, grammar)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_fixed_points_have_at_most_one_interior_zero(p, n):
    fp = stabilize(p, n)
    dec = analyzer.parse_waves(p, fp.slopes)
    assert dec.interior_zero_count <= 1
    assert dec.start <= fp.slopes.support
    loose = analyzer.parse_waves(p, fp.slopes, "loose")
    rep = dds.trajectory_report(p, fp.slopes, fp.shot_at(0), n)
    assert loose.start == rep.uniform_index


# ------------------------------------------------------------ support bounds


def test_support_bounds_golden():
    assert analyzer.support_bounds(2, 24, 5) is True


def test_support_bounds_exact_boundaries():
    # n == p^2 (w+1)^2 violates the strict lower inequality
    assert not analyzer.support_bounds(2, 4 * 36, 5)
    assert analyzer.support_bounds(2, 4 * 36 - 1, 5)
    # huge width fails the upper inequality: (w-p-1)^2 >= (p+1)^2 n
    assert not analyzer.support_bounds(2, 4, 9)
    assert analyzer.support_bounds(2, 4, 3)  # w = p+1: 0 < (p+1)^2 n
    # ... which an empty pile fails: 0 < (p+1) sqrt(0) + p + 1 is false
    assert not analyzer.support_bounds(1, 0, 2)
    assert analyzer.support_bounds(1, 0, 1)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=4000),
)
@example(1, 0, 2)
@example(3, 0, 4)
def test_support_bounds_agree_with_symbolic_sqrt(p, n, w):
    root = sympy.sqrt(n)
    want = bool(root / p - 1 < w) and bool(w < (p + 1) * root + p + 1)
    assert analyzer.support_bounds(p, n, w) == want


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_true_supports_sit_inside_bounds(p, n):
    fp = stabilize(p, n)
    assert analyzer.support_bounds(p, n, fp.slopes.support)


# ---------------------------------------------------------------- plateaus


def test_max_plateau_cases():
    assert analyzer.max_plateau(GOLDEN_P2_N24_HEIGHTS) == 1
    assert analyzer.max_plateau((4, 4, 4)) == 3
    assert analyzer.max_plateau((2, 1, 1)) == 2
    assert analyzer.max_plateau(()) == 1
    assert analyzer.max_plateau((0, 0, 0)) == 1  # zero ground is not a plateau
    assert analyzer.max_plateau((5, 3, 3, 0, 0, 2, 2, 2)) == 3


def naive_plateau_trace(p, n):
    """Recompute the plateau maximum over the whole pile after every firing."""
    from math import isqrt

    heights = [0] * ((p + 1) * (isqrt(n) + 2) + 4 * p + 8)
    heights[0] = n
    seen = [1]

    def on_fire(i):
        heights[i] -= p
        for j in range(i + 1, i + p + 1):
            heights[j] += 1
        seen.append(analyzer.max_plateau(heights))

    trace_leftmost(p, n, on_fire)
    return max(seen)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_plateau_window_matches_full_rescan(p):
    for n in range(0, 41):
        rep = check_plateaus_along_leftmost(p, n)
        assert rep.max_plateau_seen == naive_plateau_trace(p, n), (p, n)
        assert rep.ok
        assert rep.first_violation_at is None


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_plateau_window_sees_every_long_run_through_a_changed_column(p):
    # a firing at i changes columns i..i+p; any p + 2 run through one of
    # them, flush with either edge of the window, must still measure p + 2
    for i in range(0, 3 * p + 4):
        for changed in range(i, i + p + 1):
            for start in range(max(0, changed - p - 1), changed + 1):
                heights = [1000 + j for j in range(i + 4 * p + 8)]
                heights[start : start + p + 2] = [7] * (p + 2)
                window = heights[plateau_window(p, i)]
                assert analyzer.max_plateau(window) == p + 2, (i, start)


def test_plateau_bound_holds_on_larger_piles():
    for p, n in [(1, 300), (2, 500), (3, 777), (4, 1000)]:
        rep = check_plateaus_along_leftmost(p, n)
        assert rep.ok
        assert rep.max_plateau_seen <= p + 1
        assert rep.bound == p + 1


def test_plateau_audit_refuses_huge_p_before_allocating():
    with pytest.raises(CapacityError, match="columns exceed"):
        check_plateaus_along_leftmost(10**9, 5)


def test_plateau_audit_checks_the_firing_limit_before_allocating():
    # 3e6 columns would pass the column limit; the firing bound is about 1e18
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="firing limit"):
            check_plateaus_along_leftmost(2, 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scan_refuses_too_many_samples_before_building_its_pile(monkeypatch):
    # p = 2 up to N = 1e8 passes the firing limit; its 1e8 rows would take about 11 GB
    def refuse(*args, **kwargs):
        raise AssertionError("the pile was built")

    monkeypatch.setattr(analyzer, "IncrementalStabilizer", refuse)
    tracemalloc.start()
    try:
        for targets in (range(1, 10**8 + 1), range(analyzer.MAX_SAMPLES + 1)):
            with pytest.raises(CapacityError, match="sample limit"):
                analyzer.scan_rows(2, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pile alone for N = 1e8 is two lists of about 30,000 columns, 480 KB
    assert peak < 2**16
    # the limit itself is admitted, up to the pile
    with pytest.raises(AssertionError, match="pile was built"):
        analyzer.scan_rows(2, range(1, analyzer.MAX_SAMPLES + 1))


# ---------------------------------------------------------- zero movement


def test_climbing_zero_scan_p2():
    inc = IncrementalStabilizer(2, expect=250)
    prev = inc.snapshot()
    for k in range(1, 251):
        av = inc.advance()
        nxt = inc.snapshot()
        rep = climbing_zero_check(prev, nxt, av)
        assert rep.ok, (k, rep)
        assert rep.k == nxt.n_grains
        prev = nxt


def test_climbing_zero_scan_p4_spot():
    inc = IncrementalStabilizer(4, expect=400)
    prev = inc.snapshot()
    for _ in range(400):
        av = inc.advance()
        nxt = inc.snapshot()
        assert climbing_zero_check(prev, nxt, av).ok
        prev = nxt


def test_climbing_zero_not_applicable_for_short_avalanche():
    inc = IncrementalStabilizer(4, expect=2000)
    inc.advance_to(1999)
    prev = inc.snapshot()
    av = inc.advance()
    nxt = inc.snapshot()
    rep = climbing_zero_check(prev, nxt, av)
    assert rep.ok
    if not rep.applicable:
        assert rep.prev_zero == rep.next_zero


# ------------------------------------------------------------------- scans


def replayed_statistics(fp):
    """Oracle statistics: two regex wave parses and the audited window replay from ``a_0``."""
    n_strict, zero_positions = regex_oracle(fp.p, fp.slopes.slopes, "strict")
    n_loose, _ = regex_oracle(fp.p, fp.slopes.slopes, "loose")
    rep = dds.trajectory_report(fp.p, fp.slopes, fp.shot_at(0), fp.n_grains)
    assert rep.violations == ()
    return analyzer.RowStatistics(
        width=fp.slopes.support,
        n_strict=n_strict,
        n_loose=n_loose,
        zero_positions=zero_positions,
        uniform_index=rep.uniform_index,
        ambiguous_count=rep.ambiguous_count,
    )


def from_scratch_rows(p, targets):
    """Oracle rows, as columns: each sample stabilized on its own, density
    replayed once."""
    inc = IncrementalStabilizer(p, expect=max(targets))
    avalanches = [inc.advance() for _ in range(max(targets))]
    running = list(itertools.accumulate((a.density_column for a in avalanches), max))
    rows = {
        k: []
        for k in (
            "N", "p", "w", "n_strict", "n_loose", "uniform_index", "interior_zeros",
            "density_column", "ambiguous_count", "elapsed_us",
        )
    }
    for n in targets:
        stats = replayed_statistics(stabilize(p, n))
        row = (
            n,
            p,
            stats.width,
            stats.n_strict,
            stats.n_loose,
            stats.uniform_index,
            len(stats.zero_positions),
            running[n - 1],
            stats.ambiguous_count,
            0,
        )
        for column, value in zip(rows.values(), row):
            column.append(value)
    return rows


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=3000))
@example(p=1, n=0)
@example(p=5, n=0)
@example(p=1, n=1)
@example(p=4, n=3)
@example(p=8, n=8)
@example(p=12, n=5000)
@example(p=30, n=100100)
@settings(max_examples=80, deadline=None)
def test_row_statistics_match_the_replay(p, n):
    fp = stabilize(p, n)
    got = analyzer.row_statistics(p, n, fp.slopes.slopes, fp.shot)
    assert got == replayed_statistics(fp)
    # the loose wave start (slopes) is the first uniform shot window (shots)
    assert got.n_loose == got.uniform_index


@pytest.mark.parametrize("p,n", [(1, 77), (2, 24), (3, 301), (4, 2000), (6, 50)])
def test_row_statistics_refuse_tampered_fixed_points(p, n):
    fp = stabilize(p, n)
    slopes, shot = list(fp.slopes.slopes), list(fp.shot)
    for j in range(len(shot)):
        for delta in (-1, 1):
            bad = shot[:]
            bad[j] += delta
            with pytest.raises(NonIntegral):
                analyzer.row_statistics(p, n, slopes, trimmed(bad))
    # one column past the support too, where a nonzero slope cannot balance
    for j in range(len(slopes) + 1):
        bad = slopes + [0]
        bad[j] = (bad[j] + 1) % (p + 1)
        with pytest.raises(NonIntegral):
            analyzer.row_statistics(p, n, trimmed(bad), shot)


@pytest.mark.parametrize("p", [1, 2, 7, 30, 1000])
def test_row_statistics_refuse_values_past_int64(p):
    # the balance's terms reach p + 1 times the largest grain or shot count;
    # from there on, or at a slope int64 cannot hold, the one-row pass
    # refuses before it builds an array
    top = (2**63 - 1) // (p + 1)
    for n, slopes, shot in [
        (top + 1, [], []),
        (1, [], [top + 1]),
        (1, [], [7, top + 1]),
        (1, [2**63], []),
        (1, [-(2**63) - 1], []),
    ]:
        with pytest.raises(CapacityError):
            analyzer.row_statistics(p, n, slopes, shot)
    # just under the bound it balances exactly: the slopes exact integers
    # read off the largest shots pass, and each one changed by 1 fails at
    # its own column
    shot = [top, 1, top, 5]
    a = [top, *[0] * (p - 1), *shot, *[0] * (p + 2)]
    exact = [a[i] - (p + 1) * a[i + p] + p * a[i + p + 1] for i in range(len(shot) + p)]
    assert max(map(abs, exact)) > 2**62
    analyzer.row_statistics(p, top, exact, shot)
    for i in range(len(exact)):
        bad = exact[:]
        bad[i] += 1
        with pytest.raises(NonIntegral, match=f"at column {i}$"):
            analyzer.row_statistics(p, top, bad, shot)


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize(
    "targets",
    [range(1, 151), range(7, 701, 7), range(37, 1500, 37), [523]],
    ids=["stride1", "stride7", "stride37", "one-sample"],
)
def test_scan_rows_both_modes_match_from_scratch(p, targets):
    want = from_scratch_rows(p, targets)
    got = analyzer.scan_rows(p, targets)
    # the columns in the order the CLI writes them
    assert list(got.items()) == list(want.items())


#: The scan row's fields that row statistics give, and how to read them off.
ROW_FIELDS = ("w", "n_strict", "n_loose", "interior_zeros", "uniform_index", "ambiguous_count")


def row_fields(stats):
    return (
        stats.width,
        stats.n_strict,
        stats.n_loose,
        len(stats.zero_positions),
        stats.uniform_index,
        stats.ambiguous_count,
    )


def check_tracked_statistics(p, targets):
    """Check the rows a scan's blocks copied against the pile's live lists.

    At every sample, the scan's row must equal :func:`row_statistics` on a
    snapshot of the pile.  Both run the one statistics pass, so this checks
    the data path, what the blocks copied and summed; the regex and replay
    oracles of ``test_row_statistics_match_the_replay`` check the pass.
    """
    rows = analyzer.scan_rows(p, targets)
    inc = IncrementalStabilizer(p, expect=max(targets))
    for n, row in zip(targets, zip(*[rows[f] for f in ROW_FIELDS]), strict=True):
        inc.advance_to(n)
        fp = inc.snapshot()
        want = analyzer.row_statistics(p, n, fp.slopes.slopes, fp.shot)
        assert row == row_fields(want), n


# (p, targets, id): every p up to 8 at strides 1, 7 and 37 and one sample,
# and p = 30 too on the longer scans at strides 1, 7 and 10
TRACKED_SCANS = [
    (p, targets, f"{name}-{p}")
    for targets, name in [
        (range(1, 2001), "stride1-advance"),
        (range(7, 3001, 7), "stride7-advance"),
        (range(37, 3001, 37), "stride37-advance"),
        ([2345], "one-sample-advance"),
    ]
    for p in range(1, 9)
] + [
    (p, targets, f"{name}-{p}")
    for targets, name in [
        (range(1, 3001), "stride1"),
        (range(7, 5001, 7), "stride7"),
        (range(10, 8001, 10), "stride10"),
    ]
    for p in [*range(1, 9), 30]
]


@pytest.mark.parametrize(
    "p,targets",
    [pytest.param(p, targets, id=name) for p, targets, name in TRACKED_SCANS],
)
def test_tracked_statistics_match_a_full_check_at_every_sample(p, targets):
    check_tracked_statistics(p, targets)


B = analyzer.BLOCK_ROWS


@pytest.mark.parametrize("p", [1, 2, 3, 30])
@pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 3 * B + 5])
def test_every_row_of_every_block_matches_a_full_check(monkeypatch, p, count):
    # the first and last rows of a block, a block of one row and a last block
    # cut short; at a stride of 7 grains the longest scans widen the rows
    # inside a block
    widened = []  # the rows a block held before each widening
    widen = analyzer._SampleBlock._widen

    def spy(self, touched):
        widened.append(len(self.ns))
        widen(self, touched)

    monkeypatch.setattr(analyzer._SampleBlock, "_widen", spy)
    check_tracked_statistics(p, range(7, 7 * count + 1, 7))
    if count == 3 * B + 5:
        assert max(widened) > 0


def wave_rows(p):
    """Rows of slopes in [0, p]: random values, wave blocks and zeros, then
    up to two zeros, so that some supports reach the rows' last column."""
    token = st.one_of(
        st.integers(min_value=0, max_value=p).map(lambda v: [v]),
        st.just(list(range(p, 0, -1))),
        st.just([0]),
    )
    row = st.lists(token, min_size=1, max_size=12).map(lambda ts: sum(ts, []))
    return st.lists(row, min_size=1, max_size=6)


@given(st.integers(min_value=1, max_value=6).flatmap(lambda p: st.tuples(
    st.just(p), wave_rows(p), st.integers(min_value=0, max_value=2))))
@example((1, [[1, 0, 1, 1], [0, 1]], 0))  # at p = 1 every pair is allowed
@example((3, [[3, 1, 1], [3, 1, 2], [2, 1, 3]], 0))  # no 0 or p right of the last bad pair
@example((2, [[2, 1, 0, 2, 1, 0, 2, 1, 0, 0, 2, 1]], 1))  # zeros at 2, 5, 8 and 9
@settings(max_examples=300, deadline=None)
def test_the_block_reads_the_wave_tails_of_any_rows(case):
    import numpy as np

    p, rows, pad = case
    width = max(map(len, rows)) + pad
    s = np.array([row + [0] * (width - len(row)) for row in rows], np.int64)
    w, strict, loose, last, flags = analyzer._wave_tails(p, s)
    assert p > 1 or not loose.any()
    assert flags.tolist() == [[v in (0, p) for v in row] for row in s.tolist()]
    for r, row in enumerate(rows):
        seq = list(trimmed(row))
        n_strict, zero_positions = regex_oracle(p, seq, "strict")
        n_loose, _ = regex_oracle(p, seq, "loose")
        # ``last`` is one right of the rightmost 0 left of w, and that 0 is
        # the strict tail's interior zero when it lies right of the loose start
        rightmost = max((j + 1 for j, v in enumerate(seq) if v == 0), default=0)
        interior = (last[r] - 1,) if last[r] > loose[r] else ()
        got = (w[r], strict[r], loose[r], last[r], interior)
        assert got == (len(seq), n_strict, n_loose, rightmost, zero_positions), row


def avalanche_quiet(p, av):
    """The quiet columns of one avalanche: right of its prefix, left of its edge."""
    pre = av.density_column + p
    if av.max_fired is None or av.max_fired <= pre:
        return None
    return pre, av.max_fired


def nudge(pile, name, column, by=1):
    """Add ``by`` to one slope of a pile, or to one shot through its differences.

    A shot ``a_j`` is in two differences, ``a_{j-1} - a_j`` and ``a_j -
    a_{j+1}``, so changing it alone changes both.
    """
    if name == "slopes":
        pile.slopes[column] += by
    else:
        pile.diff[column] += by
        if column:
            pile.diff[column - 1] -= by


def check_each_changed_value(p, n_max, changes, check):
    """Walk a pile through ``1..n_max`` grains, adding each sample to a block.

    At each sample, ``changes(touched)`` lists ``(list name, column)``
    pairs.  Each is added, one at a time, to the pile's slope or shot at
    that column, by :func:`nudge`; a copy of the block holding the samples
    before takes the sample, and ``check(n, column, trial, pile)`` runs
    before the change is undone.  Returns the number of samples with
    changes.
    """
    inc = IncrementalStabilizer(p, expect=n_max)
    block = analyzer._SampleBlock(p, len(inc.slopes))
    changed = 0
    for n in range(1, n_max + 1):
        touched = inc.advance_to(n)
        todo = changes(touched)
        changed += bool(todo)
        for name, column in todo:
            nudge(inc, name, column)
            trial = copy.deepcopy(block)
            trial.add(n, inc.slopes, inc.diff, touched)
            check(n, column, trial, inc)
            nudge(inc, name, column, -1)
        block.add(n, inc.slopes, inc.diff, touched)
        if len(block.ns) == analyzer.BLOCK_ROWS:
            block.flush()
    return changed


def fails_at_its_sample(n, column, trial, pile):
    with pytest.raises(NonIntegral, match=f"^N={n}: "):
        trial.flush()


@pytest.mark.parametrize("p", range(1, 7))
def test_the_tracker_checks_the_prefix_and_the_edge(p):
    # a wrong slope at the last column of the avalanche's prefix, the first
    # of its edge or the first between them fails the block at this sample,
    # wherever it falls in it; at stride 1 a step settles one avalanche at
    # most, and a twin pile driven by advance() reads its firing order
    twin = IncrementalStabilizer(p, expect=1499)

    def changes(touched):
        quiet = avalanche_quiet(p, twin.advance())
        if not quiet:
            return []
        lo, hi = quiet
        return [("slopes", lo - 1), ("slopes", hi), ("slopes", lo)]

    def fails_at_the_column(n, column, trial, pile):
        with pytest.raises(NonIntegral, match=f"^N={n}: .* at column {column}$"):
            trial.flush()

    assert check_each_changed_value(p, 1499, changes, fails_at_the_column) > 20


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=60, max_value=2500),
)
@settings(max_examples=40, deadline=None)
def test_tracked_statistics_match_for_any_scan(p, stride, n_max):
    targets = range(stride, n_max + 1, stride)
    check_tracked_statistics(p, targets)


@pytest.mark.parametrize("p", range(1, 7))
def test_tracker_checks_the_balance_across_the_whole_touched_extent(p):
    # a wrong value at the extent's last column or at its last shot column
    # fails the block at this sample
    def changes(touched):
        if touched == 1:
            return []
        return [("slopes", touched - 1), ("shot", touched - p - 1)]

    assert check_each_changed_value(p, 1499, changes, fails_at_its_sample) > 100


@pytest.mark.parametrize("p", range(1, 7))
def test_a_change_outside_the_touched_extent_waits_for_the_full_check(p):
    # the first balance columns these changes break are touched and up; the
    # block never copies them, and the full-width check on the lists fails
    def changes(touched):
        if touched == 1:
            return []
        return [("slopes", touched), ("shot", touched + 1)]

    def waits(n, column, trial, pile):
        trial.flush()
        with pytest.raises(NonIntegral):
            analyzer.row_statistics(p, n, pile.slopes, pile.shot)

    assert check_each_changed_value(p, 1499, changes, waits) > 100


def tampered_scan(monkeypatch, change):
    """Make each step of a pile call ``change(pile, target, touched)`` after it."""
    step = IncrementalStabilizer.advance_to

    def tampering(self, target):
        touched = step(self, target)
        change(self, target, touched)
        return touched

    monkeypatch.setattr(IncrementalStabilizer, "advance_to", tampering)


@pytest.mark.parametrize("p", [1, 2, 3, 30])
@pytest.mark.parametrize("name", ["slopes", "shot"])
def test_a_changed_value_inside_the_extent_fails_its_sample(monkeypatch, p, name):
    # one value of the touched prefix, changed in the middle of the second
    # block of a scan of 3B + 5 samples, names that sample
    targets = range(7, 7 * (3 * B + 5) + 1, 7)
    changed = []

    def change(pile, target, touched):
        if target >= targets[B + B // 2] and not changed and touched > p + 1:
            nudge(pile, name, touched - p - 2)
            changed.append(target)

    tampered_scan(monkeypatch, change)
    with pytest.raises(NonIntegral, match=r"^N=(\d+): ") as err:
        analyzer.scan_rows(p, targets)
    assert int(err.value.args[0].split(":")[0][2:]) == changed[0]
    assert targets.index(changed[0]) % B not in (0, B - 1)


@pytest.mark.parametrize("p", [1, 2, 3, 30])
@pytest.mark.parametrize("by", [1, -1])
@pytest.mark.parametrize("where", ["first", "last"])
def test_a_changed_difference_inside_the_extent_fails_its_sample(monkeypatch, p, by, where):
    # one difference the block copies, changed by 1 in the middle of the
    # second block of a scan of 3B + 5 samples, moves every shot left of it
    # and names that sample
    targets = range(7, 7 * (3 * B + 5) + 1, 7)
    changed = []

    def change(pile, target, touched):
        if target >= targets[B + B // 2] and not changed and touched > p + 1:
            pile.diff[0 if where == "first" else touched - p - 1] += by
            changed.append(target)

    tampered_scan(monkeypatch, change)
    with pytest.raises(NonIntegral, match=r"^N=(\d+): ") as err:
        analyzer.scan_rows(p, targets)
    assert int(err.value.args[0].split(":")[0][2:]) == changed[0]
    assert targets.index(changed[0]) % B not in (0, B - 1)


@pytest.mark.parametrize("p", [1, 2, 3, 30])
def test_a_wrong_wave_start_fails_its_sample(monkeypatch, p):
    # a fault in the block's wave passes that moves one loose start, in the
    # middle of the second block of a scan of 3B + 5 samples, names that
    # sample; the closing full-width check reads only the last one
    targets = range(7, 7 * (3 * B + 5) + 1, 7)
    wave_tails = analyzer._wave_tails
    blocks = []

    def faulty(p, s):
        tails = wave_tails(p, s)
        blocks.append(len(s))
        if len(blocks) == 2:
            tails[2][B // 2] += 1
        return tails

    monkeypatch.setattr(analyzer, "_wave_tails", faulty)
    with pytest.raises(RecurrenceMismatch, match=f"^N={targets[B + B // 2]}: "):
        analyzer.scan_rows(p, targets)


def test_scan_rows_checks_the_last_sample_at_full_width(monkeypatch):
    # a slope written past every extent at the last sample is seen only by
    # the scan's closing full-width check
    def change(pile, target, touched):
        if target == 900:
            pile.slopes[touched + 2] += 1

    tampered_scan(monkeypatch, change)
    assert len(analyzer.scan_rows(3, range(10, 891, 10))["N"]) == 89
    with pytest.raises(NonIntegral):
        analyzer.scan_rows(3, range(10, 901, 10))


@pytest.mark.parametrize("p", [1, 2, 3, 30])
def test_a_balanced_change_outside_the_extent_fails_the_last_check(monkeypatch, p):
    # one more firing of column touched + 1 at the last sample, in the middle
    # of its block, keeps the balance of the lists, but no row copies it
    targets = range(7, 7 * (3 * B + 5) + 1, 7)

    def change(pile, target, touched):
        if target == targets[-1]:
            j = touched + 1
            nudge(pile, "shot", j)
            pile.slopes[j - 1] += p
            pile.slopes[j] -= p + 1
            pile.slopes[j + p] += 1

    tampered_scan(monkeypatch, change)
    with pytest.raises(RecurrenceMismatch, match=f"N={targets[-1]}"):
        analyzer.scan_rows(p, targets)


def test_scan_rows_hold_each_sample_compactly():
    # the rows are columns of lists, not a dict per sample (312 bytes each);
    # numpy is loaded first, so its import is not counted when this runs alone
    import numpy  # noqa: F401
    tracemalloc.start()
    try:
        rows = analyzer.scan_rows(2, range(1, 20_001))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / 20_000 < 160, f"{held / 20_000:.0f} bytes per sample"
    assert rows["N"] == list(range(1, 20_001))


def test_a_value_repeated_across_rows_is_one_int_object():
    # at p = 1 the widths and ambiguity counts pass 256, past CPython's cached
    # small ints, from N = 33,000 on; a scan to 1e6 would otherwise hold about
    # 32 MB of repeated ints per column
    rows = analyzer.scan_rows(1, range(37, 40_001, 37))
    assert max(rows["w"]) > 256
    for field in ROW_FIELDS:
        assert len(set(map(id, rows[field]))) == len(set(rows[field])), field


def test_a_scan_at_the_largest_admitted_p_sizes_its_blocks_by_the_reach():
    # the pile's lists hold about 1.42 million columns each at p = 1000 and
    # N = 2e6; blocks as wide would take about 1.4 GB
    tracemalloc.start()
    try:
        rows = analyzer.scan_rows(1000, range(100000, 2000001, 100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB at peak"
    assert len(rows["N"]) == 20


def test_scan_rows_rejects_empty():
    with pytest.raises(ValueError):
        analyzer.scan_rows(2, [])


def test_scan_rows_timing_flag():
    rows = analyzer.scan_rows(2, [100], timing=True)
    assert rows["elapsed_us"][0] >= 0
    rows = analyzer.scan_rows(2, [100], timing=False)
    assert rows["elapsed_us"][0] == 0


def fake_rows(points):
    """Scan rows as columns, from ``(N, n_strict)`` pairs."""
    ns, values = zip(*points)
    return {"N": list(ns), "n_strict": list(values)}


def test_log_fit_recovers_exact_line():
    rows = fake_rows((2**k, 3 * k + 5) for k in range(4, 17))
    fit = analyzer.log_fit(rows, "n_strict")
    assert list(fit) == ["c", "d", "max_ratio", "points"]  # as the CLI writes a fit
    assert fit["c"] == pytest.approx(3.0, abs=1e-9)
    assert fit["d"] == pytest.approx(5.0, abs=1e-9)
    assert fit["max_ratio"] == pytest.approx(4.25)  # (3*4+5)/4 at the smallest n
    assert fit["points"] == 13


def test_log_fit_needs_enough_rows():
    rows = fake_rows((2**k, k) for k in range(4, 13))  # only 9 rows
    with pytest.raises(InsufficientData):
        analyzer.log_fit(rows, "n_strict")


def test_log_fit_needs_two_decades():
    rows = fake_rows((100 + i, 7) for i in range(12))
    with pytest.raises(InsufficientData):
        analyzer.log_fit(rows, "n_strict")


def test_decade_regression_flat_passes():
    from math import log2

    rows = fake_rows((n, log2(n)) for n in range(100, 10001, 100))
    gate = analyzer.decade_regression(rows, "n_strict")
    assert gate.ok
    assert gate.last_max_ratio == pytest.approx(1.0)
    assert gate.prev_max_ratio == pytest.approx(1.0)


def test_decade_regression_flags_blowup():
    from math import log2

    rows = fake_rows((n, log2(n) * (2.0 if n > 1000 else 1.0)) for n in range(100, 10001, 100))
    gate = analyzer.decade_regression(rows, "n_strict")
    assert not gate.ok


def test_decade_regression_needs_both_decades():
    rows = fake_rows((n, 1) for n in (5000, 6000, 7000))
    with pytest.raises(InsufficientData):
        analyzer.decade_regression(rows, "n_strict")


def test_heights_of_golden():
    fp = stabilize(2, 24)
    assert heights_from_slopes(fp.slopes) == GOLDEN_P2_N24_HEIGHTS
