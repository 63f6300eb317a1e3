"""Stabilization engines against slow model-level oracles."""

import random
import subprocess
import sys
from functools import partial
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_P2_N24_SHOT,
    GOLDEN_P2_N24_SLOPES,
    GOLDEN_P4_N2000_SLOPES,
)
from lemma_audits import audit_avalanches
from kspm import analyzer, cli, stabilizer
from kspm.errors import CapacityError
from kspm.model import (
    MAX_GRAINS,
    SlopeConfig,
    fire,
    fireable,
    grain_count,
    heights_from_slopes,
    is_stable,
    support_bound,
    trimmed,
)
from kspm.stabilizer import (
    MAX_FIRINGS,
    IncrementalStabilizer,
    density_column,
    holes,
    stabilize,
    trace_leftmost,
)


def columns(pile):
    """Slopes and shot vector of a pile's current fixed point."""
    fp = pile.snapshot()
    return fp.slopes.slopes, fp.shot


def naive_leftmost(p, n):
    """Reference stabilizer built only on the value-semantic fire op.

    Returns the fixed point, the shot vector and the firing order.
    """
    c = SlopeConfig((n,)) if n else SlopeConfig(())
    shot = {}
    order = []
    while not is_stable(p, c):
        i = min(j for j in range(c.support) if fireable(p, c, j))
        shot[i] = shot.get(i, 0) + 1
        order.append(i)
        c = fire(p, c, i)
    width = max(shot) + 1 if shot else 0
    return c, tuple(shot.get(i, 0) for i in range(width)), order


def test_golden_small():
    fp = trace_leftmost(2, 24)
    assert fp.slopes.slopes == GOLDEN_P2_N24_SLOPES
    assert fp.shot == GOLDEN_P2_N24_SHOT
    assert fp.strategy == "leftmost"


def test_default_strategy_is_batch():
    fp = stabilize(2, 24)
    assert fp.strategy == "batch"
    assert (fp.slopes.slopes, fp.shot) == (GOLDEN_P2_N24_SLOPES, GOLDEN_P2_N24_SHOT)


def test_golden_large():
    fp = stabilize(4, 2000)
    assert fp.slopes.slopes == GOLDEN_P4_N2000_SLOPES


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_engine_matches_naive_oracle(p):
    for n in range(0, 41):
        slopes, shot, want_order = naive_leftmost(p, n)
        order = []
        for fp in (stabilize(p, n), trace_leftmost(p, n, order.append)):
            assert fp.slopes == slopes, (p, n, fp.strategy)
            assert fp.shot == shot, (p, n, fp.strategy)
        assert order == want_order, (p, n)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_small_piles_need_no_fire(p):
    for n in range(0, p + 1):
        fp = stabilize(p, n)
        assert fp.slopes.slopes == ((n,) if n else ())
        assert fp.shot == ()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
def test_support_bound_covers_every_fixed_point(p):
    for n in [*range(0, 300), 2000]:
        fp = stabilize(p, n)
        assert fp.slopes.support <= support_bound(p, n), (p, n)
        assert len(fp.shot) < support_bound(p, n), (p, n)


def test_incremental_equals_direct_along_the_way():
    inc = IncrementalStabilizer(2, expect=60)
    for n in range(1, 61):
        inc.advance()
        snap = inc.snapshot()
        direct = stabilize(2, n)
        assert snap.slopes == direct.slopes
        assert snap.shot == direct.shot
        assert snap.n_grains == n


@pytest.mark.parametrize("p,seed", [(1, 0), (2, 1), (3, 7), (4, 42)])
def test_random_strategy_reaches_same_fixed_point(p, seed):
    for n in (0, 1, 17, 100, 257):
        a = trace_leftmost(p, n)
        b = stabilize(p, n, "random", seed=seed)
        assert a.slopes == b.slopes
        assert a.shot == b.shot
        assert b.strategy == f"random(mt19937:{seed})"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=2**32),
)
@example(1, 0, 0)
@example(1, 1, 3)
@example(1, 2, 0)
@example(1, 400, 5)
@example(2, 0, 1)
@example(3, 2, 4)
@example(4, 5, 2)
@example(6, 6, 7)
def test_three_strategies_agree(p, n, seed):
    """Batch, incremental, random and the leftmost walk reach one fixed point
    and odometer."""
    a = trace_leftmost(p, n)
    b = stabilize(p, n, "incremental")
    c = stabilize(p, n, "random", seed=seed)
    d = stabilize(p, n, "batch")
    assert a.slopes == b.slopes == c.slopes == d.slopes
    assert a.shot == b.shot == c.shot == d.shot


@pytest.mark.parametrize(
    "p,n",
    [
        (1, 20000),
        (2, 40000),
        (2, 40399),
        (3, 20000),
        (30, 100000),
        (30, 100399),
        (1000, 2000000),
    ],
)
def test_batch_agrees_with_leftmost_at_scale(p, n):
    """The batch engine, which checks stability once per block of sweeps,
    ends on the leftmost walk's slopes and whole shot vector at the
    fixed-point and verify-wide sizes; p = 1 widens one column per block,
    and p = 1000 widens by 1000 columns, behind 1000 virtual shots."""
    batch = stabilize(p, n, "batch")
    walk = trace_leftmost(p, n)
    assert batch.slopes == walk.slopes
    assert batch.shot == walk.shot


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "p,n", [(1, 20000), (2, 40000), (3, 20000), (30, 100000), (30, 100399)]
)
def test_random_agrees_with_batch_at_scale(p, n, seed):
    """The random engine, which returns its lists cut just past the last
    column that could fire, ends on the batch engine's slopes and whole
    shot vector; the cut keeps at most ``p`` columns past the last firing.
    At p = 1 the left and right kicks of a toppled column are equal."""
    batch = stabilize(p, n, "batch")
    slopes, shot = stabilizer._run_random(p, n, seed)
    assert SlopeConfig(trimmed(slopes)) == batch.slopes
    assert trimmed(shot) == batch.shot
    assert len(slopes) == len(shot) <= len(batch.shot) + p


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [100000, 100100, 100399])
def test_random_topples_each_drawn_column(monkeypatch, n, seed):
    """Each draw fires its column to stability, so at p = 30 the engine
    draws far fewer times than it fires."""
    draws = 0

    class Counting(random.Random):
        def random(self):
            nonlocal draws
            draws += 1
            return super().random()

    monkeypatch.setattr(stabilizer.random, "Random", Counting)
    fp = stabilize(30, n, "random", seed=seed)
    assert fp.shot == stabilize(30, n, "batch").shot
    assert 0 < draws <= sum(fp.shot) / 4


def test_negative_seed_is_refused_before_allocating(monkeypatch):
    calls = count_preflights(monkeypatch)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        stabilize(2, 24, "random", seed=-1)
    assert calls == []


def test_random_strategy_is_reproducible():
    a = stabilize(3, 500, "random", seed=9)
    b = stabilize(3, 500, "random", seed=9)
    assert a == b


def test_avalanche_replay_is_leftmost():
    """Each recorded avalanche must replay move for move under the fire op,
    always choosing the least fireable column, and land on the next pile."""
    inc = IncrementalStabilizer(2, expect=30)
    avs = [inc.advance() for _ in range(30)]
    c = SlopeConfig(())
    for k, av in enumerate(avs, start=1):
        c = SlopeConfig((c[0] + 1,) + c.slopes[1:]) if c.slopes else SlopeConfig((1,))
        for i in av.fired:
            least = min(j for j in range(c.support) if fireable(2, c, j))
            assert i == least
            c = fire(2, c, i)
        assert is_stable(2, c)
        assert c == stabilize(2, k).slopes
    assert inc.snapshot().slopes == c


def test_avalanche_records():
    inc = IncrementalStabilizer(2, expect=24)
    avs = [inc.advance() for _ in range(24)]
    assert avs[0].fired == ()  # one grain sits still
    assert avs[0].k == 1
    nonempty = [a for a in avs if a.fired]
    assert nonempty, "some avalanche must fire by 24 grains"
    for a in nonempty:
        assert a.fired[0] == 0
        assert a.max_fired == max(a.fired)
        assert len(set(a.fired)) == len(a.fired)


def test_leftmost_avalanche_from_fixed_point():
    grown = IncrementalStabilizer(2, expect=24)
    grown.advance_to(23)
    av = grown.advance()
    assert av.k == 24
    stepped = IncrementalStabilizer(2, expect=24)
    avs = [stepped.advance() for _ in range(24)]
    assert av.fired == avs[-1].fired


def test_leftmost_avalanche_trivial_cases():
    pile = IncrementalStabilizer(3, expect=4)
    pile.advance_to(1)
    # an empty avalanche has no maximum and density 0
    quiet = pile.advance()
    # a pile holding exactly p grains is one grain below the threshold,
    # so the next grain fires column 0 exactly once
    pile.advance_to(3)
    av = pile.advance()
    assert av.fired == (0,)
    assert av.density_column == 0
    assert av.max_fired == 0
    assert quiet.fired == ()
    assert quiet.max_fired is None
    assert quiet.density_column == 0


def test_density_column_cases():
    assert density_column(()) == 0
    assert density_column((0, 1, 2)) == 0
    assert density_column((2, 0, 1)) == 0
    # start of the trailing contiguous block, per the interval definition
    assert density_column((3, 4, 5)) == 3
    assert density_column((1, 4, 5, 6)) == 4
    assert density_column((0, 1, 3)) == 3
    assert density_column((7,)) == 7


@given(st.sets(st.integers(min_value=0, max_value=12), max_size=8))
def test_density_column_brute_force(fired):
    """First l whose upward closure within fired is exactly [l, max]."""
    got = density_column(tuple(fired))
    if not fired:
        assert got == 0
    else:
        top = max(fired)
        expect = next(
            l
            for l in range(top + 1)
            if {i for i in fired if i >= l} == set(range(l, top + 1))
        )
        assert got == expect


def test_holes():
    assert holes(()) == ()
    assert holes((0, 1, 2)) == ()
    assert holes((1, 4, 5, 6)) == (0, 3)
    assert holes((2,)) == (1,)


def test_global_density_column_tracks_avalanches():
    stepped = IncrementalStabilizer(2, expect=200)
    avs = [stepped.advance() for _ in range(200)]
    tracked = IncrementalStabilizer(2, expect=200)
    for n in (100, 200):
        tracked.advance_to(n)
        assert tracked.density_max == max(a.density_column for a in avs[:n])


# a fresh pile driven by one advance_to, as stabilize(p, n, "incremental")
# and verify build it: N = 3000 at p = 1..6, and N = 20,000 at p = 30
FRESH_SIZES = [(p, 3000) for p in range(1, 7)] + [(30, 20000)]


@pytest.mark.parametrize("p,n", FRESH_SIZES)
def test_a_fresh_pile_knows_its_density_column(p, n):
    stepped = IncrementalStabilizer(p, expect=n)
    want = max(stepped.advance().density_column for _ in range(n))
    inc = IncrementalStabilizer(p, expect=n)
    inc.advance_to(n)
    assert inc.density_max == want


@pytest.mark.parametrize("p", range(1, 9))
def test_advance_to_matches_grain_by_grain(p):
    batched = IncrementalStabilizer(p, expect=1500)
    stepped = IncrementalStabilizer(p, expect=1500)
    for n in (0, 1, p, p + 1, p + 2, 37, 38, 38, 211, 999, 1500):
        batched.advance_to(n)
        while stepped.grains < n:
            stepped.advance()
        assert columns(batched) == columns(stepped)
        assert (batched.grains, batched.density_max) == (
            stepped.grains,
            stepped.density_max,
        )
    assert batched.grains == 1500


def test_advance_to_settles_once_per_avalanche(monkeypatch):
    p, n = 30, 5000
    stepped = IncrementalStabilizer(p, expect=n)
    avalanches = [stepped.advance() for _ in range(n)]
    started = sum(1 for av in avalanches if av.fired)
    # an avalanche that fires column 0 alone is settled in closed form
    wide = sum(1 for av in avalanches if len(av.fired) > 1)
    calls = {"settle": 0, "drop": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(stabilizer, "_settle", counting("settle", stabilizer._settle))
    drop = counting("drop", IncrementalStabilizer._drop)
    monkeypatch.setattr(IncrementalStabilizer, "_drop", drop)
    inc = IncrementalStabilizer(p, expect=n)
    inc.advance_to(n)
    assert calls["settle"] == wide
    # the grains between two avalanches go on in one step, not one each
    assert calls["drop"] <= wide + 1
    assert 0 < wide < started < n // 10
    assert inc.density_max == max(av.density_column for av in avalanches)


def drop_grain_by_grain(pile, target):
    """``advance_to`` by one ``_drop`` per grain, without its closed-form runs.

    Returns the step's touched extent and, per tip, whether it fired
    column 0 alone: column 0 tips from ``p`` and column ``p`` stays stable.
    """
    p = pile.p
    touched, lone = 1, []
    while pile.grains < target:
        if pile.slopes[0] == p:
            lone.append(pile.slopes[p] < p)
        touched = max(touched, pile._drop(1))
    return touched, lone


def full_state(pile):
    return (
        pile.grains,
        pile.slopes,
        pile.shot,
        pile._mark,
        pile._reach,
        pile.density_max,
        pile.jumps,
        pile.jumped,
    )


@pytest.mark.parametrize("p,n", [(p, 3000) for p in (*range(1, 9), 12)] + [(30, 30000)])
def test_runs_of_one_column_avalanches_match_the_grain_by_grain_pile(p, n):
    rng = random.Random(p)
    batched = IncrementalStabilizer(p, expect=n)
    stepped = IncrementalStabilizer(p, expect=n)
    # steps that end inside a run, and runs cut short by column p reaching p
    inside = cut = 0
    while batched.grains < n:
        target = min(n, batched.grains + rng.randint(1, 4 * (p + 1)))
        touched = batched.advance_to(target)
        want, lone = drop_grain_by_grain(stepped, target)
        assert touched == want
        assert full_state(batched) == full_state(stepped)
        inside += bool(lone) and lone[-1] and stepped.slopes[p] < p
        cut += sum(a and not b for a, b in zip(lone, lone[1:]))
    assert cut > 10
    # at p = 1 a run is one avalanche, which leaves column p at p
    assert inside > 10 or p == 1


@pytest.mark.parametrize("p", range(1, 9))
def test_density_from_the_shot_prefix_matches_the_firing_order(p):
    # each pile's maximum is reset before every grain, so it reads the
    # density column of that grain's avalanche alone
    recorded = IncrementalStabilizer(p, expect=2000)
    advanced = IncrementalStabilizer(p, expect=2000)
    holed = 0
    for n in range(1, 2001):
        recorded.density_max = advanced.density_max = 0
        av = recorded.advance()
        advanced.advance_to(n)
        assert recorded.density_max == advanced.density_max == density_column(av.fired)
        holed += av.density_column > 0
    assert columns(recorded) == columns(advanced)
    assert p == 1 or holed > 20  # no p = 1 avalanche here leaves a hole


# (p, grains, every how many grains the whole lists are compared): every N up
# to 20,000 at p = 1..6, where the jump fires 98% to 72% of the columns, and
# p = 30 up to 1e5, where it fires 15%
JUMP_SIZES = [(p, 20000, 1) for p in range(1, 7)] + [(30, 100000, 97)]


@pytest.mark.parametrize("p,n,every", JUMP_SIZES)
def test_the_jump_settles_as_the_plain_walk(p, n, every):
    jumped = IncrementalStabilizer(p, expect=n)
    walked = IncrementalStabilizer(p, expect=n)
    for g in range(n):
        # reset before each grain, so both read that grain's density column
        jumped.density_max = walked.density_max = 0
        jumped.advance_to(g + 1)
        walked.advance()
        assert jumped.density_max == walked.density_max
        if g % every == 0:
            assert jumped.slopes == walked.slopes
            assert jumped.shot == walked.shot
            assert jumped._reach == walked._reach
    assert (jumped.slopes, jumped.shot, jumped._reach) == (
        walked.slopes,
        walked.shot,
        walked._reach,
    )
    # advance() keeps the plain walk, whose firing order avalanche prints
    assert walked.jumps == walked.jumped == 0
    assert jumped.jumps > 0


@pytest.mark.parametrize("p,n,every", JUMP_SIZES)
@pytest.mark.parametrize("jump", [False, True], ids=["walk", "jump"])
def test_every_avalanche_has_the_block_structure(p, n, every, jump):
    report = audit_avalanches(p, n, jump=jump)
    assert report.ok, report
    # the edge facts were read, not just the ones every avalanche meets
    assert report.blocks > 20


@pytest.mark.parametrize("p,n,least", [(3, 20000, 0.85), (2, 40000, 0.9)])
def test_the_jump_fires_most_columns(p, n, least):
    # a regression to the full walk, or a jump that falls back to it, fails here
    pile = IncrementalStabilizer(p, expect=n)
    pile.advance_to(n)
    fired = sum(pile.shot)
    assert pile.jumped / fired >= least
    assert 2 <= pile.jumped / pile.jumps <= fired / pile.jumps


@pytest.mark.parametrize("p,n", [(2, 40000), (3, 20000), (30, 100000)])
def test_firings_equal_the_second_moment_identity(p, n):
    # a firing at i changes sum (j+1)^2 b_j by p(p+1), at i = 0 too
    pile = IncrementalStabilizer(p, expect=n)
    pile.advance_to(n)
    moment = sum((j + 1) ** 2 * b for j, b in enumerate(pile.slopes))
    assert (moment - n) % (p * (p + 1)) == 0
    assert sum(pile.shot) == (moment - n) // (p * (p + 1))
    assert pile.snapshot().shot == stabilize(p, n).shot


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_jump_past_the_arrays_raises_as_the_walk_does(monkeypatch, p):
    # find a jumped avalanche whose edge kick first reaches a new column
    pile = IncrementalStabilizer(p, expect=3000)
    for k in range(1, 3001):
        reach, jumps = pile._reach, pile.jumps
        pile.advance_to(k)
        if pile.jumps > jumps and pile._reach > reach:
            break
    else:
        pytest.fail("no jump reached a new column")
    # arrays that end on that column: every earlier kick fits, this one does not
    cap = pile._reach - 1
    monkeypatch.setattr(stabilizer, "_capacity", lambda p, n: cap)
    errors = []
    for drive in ("advance_to", "advance"):
        pile = IncrementalStabilizer(p, expect=3000)
        with pytest.raises(RuntimeError, match=f"past the {cap} columns") as caught:
            for g in range(1, k + 1):
                pile.advance_to(g) if drive == "advance_to" else pile.advance()
        assert pile.grains == k
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert f"column {cap}," in errors[0]


def test_backward_targets_are_refused():
    inc = IncrementalStabilizer(2, expect=100)
    inc.advance_to(50)
    before = columns(inc)
    for target in (10, 5):
        with pytest.raises(ValueError, match="below the 50 grains"):
            inc.advance_to(target)
        inc.advance_to(50)  # the current count stays a no-op
    assert inc.grains == 50 and columns(inc) == before


@pytest.mark.parametrize("p", range(1, 7))
def test_pile_reach_covers_the_whole_fixed_point(p):
    # snapshot() and the reference walk read only the columns before the
    # pile's reach; a reach that fell short would cut slopes or shots the
    # batch engine keeps
    stepped = IncrementalStabilizer(p, expect=2000)
    for n in (0, 1, p, p + 1, 40, 41, 300, 2000):
        stepped.advance_to(n)
        want = stabilize(p, n)
        assert columns(stepped) == (want.slopes.slopes, want.shot)
        walk = trace_leftmost(p, n)
        assert (walk.slopes, walk.shot) == (want.slopes, want.shot)


@pytest.mark.parametrize("p,n", [(1, 77), (2, 24), (3, 260), (5, 1001)])
def test_shot_balance_at_every_column(p, n):
    """Slopes must satisfy the mass balance against the shot vector,
    with N sitting p virtual columns to the left of the origin."""
    fp = stabilize(p, n)
    w = fp.slopes.support
    for i in range(w + p + 1):
        back = n if i == 0 else (0 if i < p else fp.shot_at(i - p))
        b = back - (p + 1) * fp.shot_at(i) + p * fp.shot_at(i + 1)
        assert b == fp.slopes[i], (p, n, i)


@pytest.mark.parametrize("p,n", [(2, 24), (3, 100), (4, 2000), (1, 50)])
def test_column_zero_shot_bounded(p, n):
    fp = stabilize(p, n)
    assert fp.shot_at(0) * p <= n


@pytest.mark.parametrize("p,n", [(1, 64), (2, 300), (4, 999)])
def test_grain_conservation(p, n):
    assert grain_count(stabilize(p, n).slopes) == n


def test_stabilize_argument_validation():
    with pytest.raises(ValueError):
        stabilize(0, 5)
    with pytest.raises(ValueError):
        stabilize(2, -1)
    with pytest.raises(ValueError):
        stabilize(2, 5, "sideways")
    with pytest.raises(CapacityError):
        stabilize(2, 2**62 + 1)


@pytest.mark.parametrize("strategy", ["batch", "leftmost", "random", "incremental"])
def test_huge_p_is_refused_before_allocating(strategy):
    run = trace_leftmost if strategy == "leftmost" else partial(stabilize, strategy=strategy)
    with pytest.raises(CapacityError, match="columns exceed"):
        run(10**9, 5)


def firing_bound(p, n):
    return 2 * n * ((p + 1) * (isqrt(n) + 1) + p) // (p * (p + 1))


@pytest.mark.parametrize("p", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 57, 1499, 10**4])
def test_firings_move_the_first_moment(p, n):
    """Each firing moves p grains right by 1..p columns, which bounds the work."""
    fp = stabilize(p, n)
    moment = sum(j * h for j, h in enumerate(heights_from_slopes(fp.slopes)))
    assert p * (p + 1) * sum(fp.shot) == 2 * moment
    assert sum(fp.shot) <= firing_bound(p, n)


@pytest.mark.parametrize("p", [1, 2, 7])
def test_firing_limit_is_checked_before_settling(p):
    lo, hi = 0, MAX_GRAINS
    while lo < hi:  # largest n whose firing bound fits the limit
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if firing_bound(p, mid) <= MAX_FIRINGS else (lo, mid - 1)
    n = lo
    inc = IncrementalStabilizer(p, expect=n)  # allowed: allocates, settles nothing
    for refused in (
        lambda: IncrementalStabilizer(p, expect=n + 1),
        lambda: stabilize(p, n + 1, "batch"),
        lambda: trace_leftmost(p, n + 1),
        lambda: stabilize(p, n + 1, "random"),
    ):
        with pytest.raises(CapacityError, match="firing limit"):
            refused()
    # the pile passed the preflight for n grains only
    with pytest.raises(ValueError, match="past the"):
        inc.advance_to(n + 1)
    assert inc.grains == 0 and columns(inc) == ((), ())


def count_preflights(monkeypatch) -> list:
    calls = []
    capacity = stabilizer._capacity

    def counting(p, n):
        calls.append(n)
        return capacity(p, n)

    monkeypatch.setattr(stabilizer, "_capacity", counting)
    return calls


def test_a_scan_runs_the_preflight_once(monkeypatch):
    calls = count_preflights(monkeypatch)
    analyzer.scan_rows(3, range(10, 20001, 10))
    assert calls == [20000]  # the pile's constructor, at the largest sample


@pytest.mark.parametrize("p", range(1, 7))
def test_a_pile_is_sized_once_and_refuses_targets_past_expect(monkeypatch, p):
    calls = count_preflights(monkeypatch)
    inc = IncrementalStabilizer(p, expect=40)
    assert calls == [40]  # the constructor, and nothing after it
    inc.advance_to(20)
    while inc.grains < 25:
        inc.advance()
    inc.advance_to(40)
    assert calls == [40]
    before = (inc.grains, list(inc.slopes), list(inc.shot))
    for move in (inc.advance, partial(inc.advance_to, 41)):
        with pytest.raises(ValueError, match="past the 40 grains"):
            move()
        assert (inc.grains, inc.slopes, inc.shot) == before
    assert calls == [40]
    assert inc.snapshot() == stabilize(p, 40, "incremental")


OVERRUN_ENTRY_POINTS = {
    **{s: partial(stabilize, 2, 100, s) for s in ("batch", "random", "incremental")},
    "leftmost": partial(trace_leftmost, 2, 100),
    "scan-incremental": partial(analyzer.scan_rows, 2, [50, 100]),
    "avalanche": partial(cli.main, ["avalanche", "--p", "2", "--k", "100"]),
}


@pytest.mark.parametrize("entry", OVERRUN_ENTRY_POINTS)
def test_engines_refuse_kicks_past_their_arrays(monkeypatch, entry):
    # no engine grows its arrays, so an undersized bound must fail loudly
    monkeypatch.setattr(stabilizer, "_capacity", lambda p, n: 2 * p + 1)
    with pytest.raises(RuntimeError, match="past the 5 columns allocated"):
        OVERRUN_ENTRY_POINTS[entry]()


def test_batch_refuses_a_kick_past_its_arrays_late_in_the_run(monkeypatch):
    # the prefix widens only between blocks of sweeps, so the guard must
    # still trip when the arrays run out at the last widening, one column
    # short of the fixed point's support, not just at the start
    cap = trace_leftmost(2, 40000).slopes.support - 1
    monkeypatch.setattr(stabilizer, "_capacity", lambda p, n: cap)
    with pytest.raises(RuntimeError, match=f"past the {cap} columns allocated"):
        stabilize(2, 40000)


@pytest.mark.parametrize("p", [1, 2, 7, 30, 300, 1000, 2**20])
def test_batch_sweeps_fit_int64_at_the_largest_admitted_pile(p):
    # a batch sweep's largest value is a_{i-p} + p a_{i+1}, at most n plus p
    # times the firing bound; find the largest n the preflight admits
    lo, hi = 0, MAX_GRAINS + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            stabilizer._capacity(p, mid)
            lo = mid
        except CapacityError:
            hi = mid
    assert lo + p * stabilizer.check_work(p, lo) < 2**63


@pytest.mark.parametrize("module", ["kspm", "kspm.stabilizer", "kspm.analyzer", "kspm.dds"])
def test_import_does_not_load_numpy(module):
    # only the batch engine, a scan and kspm.spectral need numpy, and load it late
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(stabilizer.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_star_import_binds_every_public_name():
    import kspm

    assert [name for name in kspm.__all__ if not hasattr(kspm, name)] == []
    namespace: dict = {}
    exec("from kspm import *", namespace)
    assert {name: namespace[name] for name in kspm.__all__} == {
        name: getattr(kspm, name) for name in kspm.__all__
    }


def test_trace_leftmost_counts_firings():
    seen = []
    fp = trace_leftmost(2, 24, seen.append)
    assert len(seen) == sum(fp.shot)
    assert fp.slopes.slopes == GOLDEN_P2_N24_SLOPES


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=120))
def test_fixed_point_is_stable(p, n):
    fp = stabilize(p, n)
    assert is_stable(p, fp.slopes)
    assert grain_count(fp.slopes) == n
