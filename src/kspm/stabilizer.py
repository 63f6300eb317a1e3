"""Stabilization engines and avalanche bookkeeping.

Three engines reach the unique fixed point of ``N`` grains:

* ``batch`` -- the default: fire every column ``slope // (p+1)`` times
  at once, in whole-array numpy sweeps over the columns that can still
  be unstable.  It takes one step per sweep instead of one per firing.
  A sweep is three numpy calls on the shot vector alone, since each new
  shot is ``(a_{i-p} + p a_{i+1}) // (p+1)``; it checks stability and
  widens its columns once per block of sweeps.
* ``random`` -- draw a uniformly random column over ``p`` and topple it
  to stability, firing it ``slope // (p+1)`` times at once.  The draws
  come from a seeded Mersenne Twister, so runs are reproducible.
* ``incremental`` -- add one grain at a time and settle each avalanche
  with the leftmost rule.  Only a grain that tips column 0 can cost a
  settle; the grains before it fire nothing and are added together.
  Most tips at large ``p`` fire column 0 alone, since their kick leaves
  column ``p`` stable, and a run of them costs no settle: it is applied
  in closed form, one kick per tip, until column ``p`` holds ``p``.
  A one-grain avalanche fires no column twice and, past a short
  prefix, runs along the wave tail's slope-``p`` columns, firing each
  column once (Perrot and Remila, "Kadanoff sand pile model. Avalanche
  structure and wave shape", Theor. Comput. Sci. 504, 2013).  So the
  walk stops where that regular block begins and jumps it: it finds
  the block's last column ``M`` by one comparison per ``p`` columns,
  and applies the firings at the block's ends alone.  The pile keeps its
  shots as differences ``d_j = a_j - a_{j+1}``, so a firing writes two
  of them and the jump, which fires every column of a block once, two
  as well.  Each step returns the extent of columns its avalanches
  touched, the prefix of the pile's lists that a scan copies into its
  block of samples.

The reference walk, :func:`trace_leftmost`, drops all ``N`` grains at
once and always fires the smallest fireable column, found by a pointer
that walks left only onto a column the last firing pushed over the
threshold.  It jumps nothing, so it stays an independent check of
``batch`` and of the pile, and its ``on_fire`` hook gives the firing
order.

All engines record the shot vector (number of firings per column).  The
fixed point itself does not depend on the strategy; the firing order
does, and is kept only where ``advance()`` or ``trace_leftmost`` returns
it, which walk every firing.  An avalanche's density column comes from
the walk, which marks each column it fires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import CapacityError
from .model import SlopeConfig, check_grains, check_p, support_bound, trimmed


#: Most columns any engine or audit allocates up front.
MAX_COLUMNS = 2**24
#: Most firings any run may need, by the work bound in ``_capacity``.
MAX_FIRINGS = 2**40
#: Largest ``p**3`` of any dense p-by-p matrix work: p up to 1000.
MAX_MATRIX_WORK = 10**9
#: Batch sweeps between two checks for stability and widening.
_BLOCK = 8


def check_columns(count: int) -> int:
    """Refuse, before allocating, column arrays longer than ``MAX_COLUMNS``."""
    if count > MAX_COLUMNS:
        raise CapacityError(f"{count} columns exceed the {MAX_COLUMNS}-column limit")
    return count


def check_matrix(p: int) -> int:
    """Refuse, before building one, p-by-p matrices past either limit.

    Their products, eigenvalues and exact recurrences cost about ``p**3``
    steps each.  Returns ``p * p``, the entries of one matrix.
    """
    entries = check_columns(p * p)
    if p**3 > MAX_MATRIX_WORK:
        raise CapacityError(
            f"p={p} needs about {p**3} steps of p-by-p matrix work, "
            f"over the {MAX_MATRIX_WORK} limit"
        )
    return entries


def check_work(p: int, n: int) -> int:
    """Refuse, before allocating or settling, runs that may need over ``MAX_FIRINGS``.

    Each firing moves ``p`` grains right by ``1..p`` columns, so ``p(p+1)``
    times the firings is twice the grains' first moment, at most ``n``
    times the last column.  Returns that bound on the firings.
    """
    # ``support_bound - 1`` is the last column the support can reach
    bound = 2 * n * (support_bound(p, n) - 1) // (p * (p + 1))
    if bound > MAX_FIRINGS:
        raise CapacityError(
            f"{n} grains may need {bound} firings, over the {MAX_FIRINGS}-firing limit"
        )
    return bound


def _capacity(p: int, n: int) -> int:
    """Columns to allocate for ``n`` grains; refuse runs past either limit."""
    # the support bound plus room for the last kick, ``p`` columns right of it
    columns = check_columns(support_bound(p, n) + p + 3)
    check_work(p, n)
    return columns


def _overrun(p: int, n: int, column: int, cap: int) -> RuntimeError:
    """The error of an engine whose kicks would land past its fixed arrays."""
    return RuntimeError(
        f"p={p}, N={n}: a kick would land on column {column}, past the {cap} "
        "columns allocated by the support bound"
    )


@dataclass(frozen=True)
class FixedPoint:
    """A stabilized configuration together with its shot vector.

    ``shot[i]`` counts how many times column ``i`` fired on the way from
    ``(n_grains, 0, 0, ...)`` to ``slopes``.  ``strategy`` records how the
    run was driven, e.g. ``"leftmost"`` or ``"random(mt19937:42)"``.
    """

    p: int
    n_grains: int
    slopes: SlopeConfig
    shot: tuple[int, ...]
    strategy: str

    def shot_at(self, i: int) -> int:
        if i < 0:
            raise ValueError("column indices start at 0")
        return self.shot[i] if i < len(self.shot) else 0


@dataclass(frozen=True)
class Avalanche:
    """Firing record of a single added grain, in firing order."""

    k: int
    fired: tuple[int, ...]
    density_column: int
    max_fired: int | None


def density_column(fired) -> int:
    """Start of the trailing contiguous block of fired columns.

    Equivalently the least ``l`` such that every column in ``[l, max]``
    fired and none beyond did.  Empty input gives 0.  Real avalanches
    always fire column 0 first, so for them this is 0 exactly when the
    whole fired set is an interval.
    """
    s = set(fired)
    if not s:
        return 0
    low = max(s)
    while low - 1 in s:
        low -= 1
    return low


def holes(fired) -> tuple[int, ...]:
    """Columns ``i`` not fired whose right neighbour ``i + 1`` was."""
    s = set(fired)
    return tuple(sorted(i - 1 for i in s if i > 0 and i - 1 not in s))


def _settle(p, slopes, diff, mark, serial, on_fire=None):
    """Fire the leftmost fireable column until every column is stable.

    Only column 0 may start above ``p``.  Every column left of the
    pointer ``i`` is stable, so after a firing at ``i`` only ``i - 1`` can
    become the leftmost fireable column: the walk steps there when it
    crosses ``p``, fires ``i`` again while it can, and otherwise steps
    right.  ``top`` is the rightmost column a kick pushed over ``p``, so
    the walk ends once ``i`` passes it, after O(firings + width) steps.
    Each firing writes ``serial`` into ``mark`` at its column.

    A one-grain tip (column 0 at exactly ``p + 1``, the rest stable)
    fires no column twice: until one does, a column's neighbours
    ``i - p`` and ``i + 1`` fired at most once and brought it at most
    ``1 + p`` grains, at least one short of a second firing.  Without
    ``on_fire`` such a settle walks only until it is about to fire past
    its rightmost fired column ``c`` with every column of ``(c - p, c]``
    fired.  Then each column of ``(c, c + p]`` holds one kick more than
    before the avalanche, and the rest has a closed form (Perrot and
    Remila, "Kadanoff sand pile model. Avalanche structure and wave
    shape", Theor. Comput. Sci. 504, 2013): the avalanche fires every
    column of ``(c, M]`` once, where ``M`` ends the chain of columns that
    held slope ``p`` before it, each at most ``p`` right of the last.  A
    column ``j`` inside the block loses ``p + 1`` and gets 1 from
    ``j - p`` and ``p`` from ``j + 1``, so the jump applies the firings
    at the ends alone: ``c`` gains ``p``, the columns of ``(c, M)`` go
    back to their slopes before the avalanche, ``M`` drops to 0 and
    ``(M, M + p]`` end one above theirs.  Each shot of ``(c, M]`` gains 1,
    which moves two differences: ``diff[c]`` loses 1 and ``diff[M]``
    gains 1.
    Firing the chain's columns left to right, each followed by the
    columns between it and the last, is legal and ends stable, so by the
    least action principle the walk ends there too.

    ``slopes`` and ``diff``, the shots' differences ``a_j - a_{j+1}``,
    are plain lists sized by the support bound and mutated in place; a
    firing at ``i`` adds 1 to ``diff[i]`` and takes 1 from ``diff[i - 1]``.
    A kick past their end raises ``RuntimeError``.
    ``on_fire(i)`` is called after each firing with the fired column.
    Returns ``(low, top, jumped)``.  Every firing was at a column
    ``<= top``, so no kick landed past ``top + p``.  After a one-grain
    tip every column of ``[low, top]`` fired once, so slopes changed only
    left of ``low + p`` and in ``[top, top + p]``; ``low`` is ``c - p + 1``
    after a jump and ``top`` without one, and the marks extend it left to
    the density column.  After a drop of many grains ``low`` is
    ``top + 1``.  ``jumped`` counts the columns the jump fired, 0 without
    one.
    """
    pp1 = p + 1
    pm1 = p - 1
    size = len(slopes)
    single = slopes[0] == pp1
    # a jump needs p fired columns up to its front; ``size`` rules it out
    least = pm1 if single and on_fire is None else size
    # the rightmost fired column: the walk fires column 0 first
    i = top = front = 0
    while i <= top:
        v = slopes[i]
        if v <= p:
            i += 1
            continue
        if i > front:
            # reading one marker rejects most fronts before the window is read
            if (
                front >= least
                and mark[front - pm1] == serial
                and mark[front - pm1 : front].count(serial) == pm1
            ):
                c = front
                base = c + p
                m = base
                # (c, base] holds its old slopes plus one: p + 1 where they were p
                while slopes[m] != pp1:
                    m -= 1
                # past base a column holds its old slope until the chain fires;
                # the largest hop of each step reaches furthest
                while m + p < size:
                    j = m + p
                    stop = m if m > base else base
                    while j > stop and slopes[j] != p:
                        j -= 1
                    if j == stop:
                        break
                    m = j
                else:
                    # the kick from m would land past the arrays: walk on to
                    # the firing that raises
                    least = size
                if least < size:
                    slopes[c] += p
                    cut = min(m, base + 1)
                    slopes[c + 1 : cut] = [b - 1 for b in slopes[c + 1 : cut]]
                    slopes[m] = 0
                    cut = max(m, base) + 1
                    slopes[cut : m + pp1] = [b + 1 for b in slopes[cut : m + pp1]]
                    diff[c] -= 1
                    diff[m] += 1
                    return c - p + 1, m, m - c
            front = i
        k = i + p
        if k >= size:
            # firings conserve the grain count, the first moment of the slopes
            raise _overrun(p, sum(j * b for j, b in enumerate(slopes, 1)), k, size)
        slopes[i] = v - pp1
        diff[i] += 1
        mark[i] = serial
        left = 0
        if i:
            diff[i - 1] -= 1
            left = slopes[i - 1] + p
            slopes[i - 1] = left
        v = slopes[k] + 1
        slopes[k] = v
        if v == pp1 and k > top:
            top = k
        if on_fire is not None:
            on_fire(i)
        if left > p:
            i -= 1
    return (top if single else top + 1), top, 0


def _shots(diff, end) -> list[int]:
    """The shots ``a_0 .. a_{end-1}`` of differences ``diff`` that are 0 from ``end`` on."""
    shot = list(accumulate(reversed(diff[:end])))
    shot.reverse()
    return shot


def _fixed_point(p: int, n: int, slopes, shot, strategy: str) -> FixedPoint:
    return FixedPoint(
        p=p,
        n_grains=n,
        slopes=SlopeConfig(trimmed(slopes)),
        shot=trimmed(shot),
        strategy=strategy,
    )


def _run_batch(p: int, n: int):
    """Fire every column ``slope // (p+1)`` times per sweep until all are stable.

    A firing never lowers another column's slope, so a sweep is a legal
    run of firings in any order, and by the least action principle the
    sweeps end on the same fixed point and shot vector as any other
    order.  Sweeps work on the prefix ``[0, hi)`` that can hold unstable
    columns.  Only columns below ``hi`` fire, so kicks reach no further
    than ``[hi, hi+p)`` and every column past it stays 0.

    The sweeps keep only the shots ``a``.  Column ``i`` gains 1 from each
    firing of ``i - p``, ``p`` from each of ``i + 1`` and loses ``p + 1``
    to each of its own, so its slope is ``b_i = a_{i-p} - (p+1) a_i +
    p a_{i+1}``, with the ``n`` grains as a virtual ``a_{-p} = n`` and
    ``a_{-p+1} .. a_{-1} = 0``.  A sweep fires ``i`` ``b_i // (p+1)``
    times, and an integer moves into a floor unchanged, so the new shot is
    ``a_i + b_i // (p+1) = (b_i + (p+1) a_i) // (p+1) = (a_{i-p} +
    p a_{i+1}) // (p+1)``.  That is one multiply, one add and one
    floor-divide over ``[0, hi)``, through one scratch array so that
    every column reads the shots from before the sweep.

    Stability and widening are checked once per block of ``_BLOCK``
    sweeps, not after each one.  No column at or past ``hi`` has fired,
    so the slope of such a column ``i`` is ``a_{i-p}``, a shot.  After a
    block, ``hi`` widens by ``p`` if a column of ``[hi, hi+p)`` is over
    ``p``; otherwise the run ends if no column below ``hi`` is, which is
    when a sweep would fire nothing.  This stays legal: such a column
    waits at most one block to fire, other firings never lower its slope
    meanwhile, so every firing is still of a column over ``p`` and the
    run ends at the same place.  One widening by ``p`` covers every
    column that can be over ``p``, and a sweep with nothing over ``p``
    fires nothing, so the sweeps left in the last block change nothing.
    The slopes are computed from the shots once, at the end.
    """
    # imported here, not at the top, so that ``import kspm`` does not load numpy
    import numpy as np

    cap = _capacity(p, n)
    # a sweep's largest value is a_{i-p} + p a_{i+1}, at most n plus p times the
    # firing bound, which bounds every shot; the slopes' (p+1) a_i is no larger,
    # since no slope is negative, so int64 never wraps
    assert n + p * check_work(p, n) < 2**63
    pp1 = p + 1
    # padded[j] is a_{j-p}: the virtual shots, then the columns' shots, then
    # zeros as far as the slopes of the last columns read
    padded = np.zeros(cap + pp1, np.int64)
    padded[0] = n
    scratch = np.zeros(cap, np.int64)
    hi = 1
    while True:
        if hi + p > cap:
            raise _overrun(p, n, hi + p - 1, cap)
        # views of the active prefix, rebuilt only when it widens
        behind, a, ahead = padded[:hi], padded[p : p + hi], padded[pp1 : pp1 + hi]
        s = scratch[:hi]
        edge = padded[hi : hi + p]
        while True:
            for _ in range(_BLOCK):
                np.multiply(ahead, p, out=s)
                s += behind
                np.floor_divide(s, pp1, out=a)
            if edge.max() > p:
                hi += p
                break
            # the firings a sweep would make now: none exactly when all are stable
            np.multiply(ahead, p, out=s)
            s += behind
            s //= pp1
            s -= a
            if s.max() <= 0:
                width = hi + p
                slopes = padded[:width] + p * padded[pp1 : pp1 + width]
                slopes -= pp1 * padded[p : p + width]
                return slopes.tolist(), a.tolist()


def _run_random(p: int, n: int, seed: int):
    """Topple uniformly drawn fireable columns until every column is stable.

    Each step draws one column ``i`` from the list of columns over ``p``
    with a seeded Mersenne Twister and fires it ``q = slope // (p+1)``
    times at once: its slope drops to ``slope % (p+1)``, column ``i - 1``
    gains ``p*q`` and column ``i + p`` gains ``q``, so ``i`` leaves the
    list.  A firing never lowers another column's slope, so each draw is
    a legal run of ``q`` firings of a column over ``p``, and by the least
    action principle every such order ends on the same fixed point and
    shot vector.
    """
    rng = random.Random(seed)
    rnd = rng.random
    cap = _capacity(p, n)
    slopes = [0] * cap
    shot = [0] * cap
    pos = [-1] * cap  # pos[i] = index of column i in the fireable list
    slopes[0] = n
    fireable = []
    if n > p:
        fireable.append(0)
        pos[0] = 0
    pp1 = p + 1
    # the rightmost column that ever became fireable: no kick lands past top + p
    top = 0
    while fireable:
        m = len(fireable)
        idx = int(rnd() * m)
        i = fireable[idx]
        q, slopes[i] = divmod(slopes[i], pp1)
        shot[i] += q
        last = fireable.pop()
        if last != i:
            fireable[idx] = last
            pos[last] = idx
        pos[i] = -1
        if i:
            j = i - 1
            v = slopes[j] + p * q
            slopes[j] = v
            if v > p and pos[j] < 0:
                pos[j] = len(fireable)
                fireable.append(j)
        k = i + p
        if k >= cap:
            raise _overrun(p, n, k, cap)
        v = slopes[k] + q
        slopes[k] = v
        if v > p and pos[k] < 0:
            pos[k] = len(fireable)
            fireable.append(k)
            if k > top:
                top = k
    return slopes[: top + p + 1], shot[: top + p + 1]


class IncrementalStabilizer:
    """Stabilization of a growing pile, one avalanche at a time.

    The running configuration is always the fixed point of the grains
    added so far, so the cumulative work over all avalanches equals one
    direct stabilization of the final grain count.  ``slopes`` and
    ``diff`` are its live column lists, with trailing zeros, for callers
    to read between steps; ``diff[j]`` is ``a_j - a_{j+1}``, the drop of
    the shot vector from column ``j`` to the next, and the read-only
    ``shot`` sums it back up to the last nonzero shot; ``snapshot``
    sums it up to the pile's reach.  They are sized once, for ``expect`` grains,
    and a target past ``expect`` is refused before any grain is added.
    ``jumps`` counts the settles that jumped their regular block and
    ``jumped`` the columns those jumps fired, each updated once per jump.
    ``density_max`` is the largest density column of the avalanches so far.
    """

    def __init__(self, p: int, expect: int):
        check_p(p)
        self.p = p
        self.expect = check_grains(expect)
        self.grains = 0
        self.density_max = 0
        self.slopes = [0] * _capacity(p, expect)
        self.diff = [0] * len(self.slopes)
        # the grain count at the settle that last fired each column; a run
        # of one-column avalanches marks column 0 with its last tip's count
        self._mark = [0] * len(self.slopes)
        # every column at or past ``_reach`` holds slope 0, shot 0 and diff 0
        self._reach = 1
        # settles that ended in a jump, and the columns those jumps fired
        self.jumps = self.jumped = 0

    def _drop(self, k: int, on_fire=None) -> int:
        """Add ``k`` grains to column 0 and settle the pile if column 0 tips.

        Returns the touched extent: slopes changed only left of it, and
        shots and their differences only left of it minus ``p``.
        ``on_fire(i)``, if given, is
        called after each firing.  A drop that tips column 0 by one grain
        settles one avalanche, whose fired block ends at ``top`` and runs
        left as far as the walk marked columns; the drop records the
        block's start as a density column.
        """
        p = self.p
        slopes = self.slopes
        self.grains += k
        slopes[0] += k
        if slopes[0] <= p:
            return 1
        low, top, jumped = _settle(p, slopes, self.diff, self._mark, self.grains, on_fire)
        if jumped:
            self.jumps += 1
            self.jumped += jumped
        extent = top + p + 1
        if extent > self._reach:
            self._reach = extent
        if low <= top:
            mark, serial = self._mark, self.grains
            while low and mark[low - 1] == serial:
                low -= 1
            if low > self.density_max:
                self.density_max = low
        return extent

    def _check_target(self, target: int) -> None:
        """Refuse a target below the grains already added, or past ``expect``."""
        check_grains(target)
        if target < self.grains:
            raise ValueError(
                f"target {target} is below the {self.grains} grains already added"
            )
        if target > self.expect:
            raise ValueError(
                f"target {target} is past the {self.expect} grains the pile is sized for"
            )

    def advance(self) -> Avalanche:
        """Add one grain to column 0, settle it and return its avalanche."""
        self._check_target(self.grains + 1)
        order: list[int] = []
        self._drop(1, order.append)
        fired = tuple(order)
        return Avalanche(
            k=self.grains,
            fired=fired,
            density_column=density_column(fired),
            max_fired=max(fired) if fired else None,
        )

    def advance_to(self, target: int) -> int:
        """Add grains one at a time up to ``target``, settling each avalanche.

        A grain that leaves column 0 at or below ``p`` fires nothing, so
        the grains up to the next one that tips column 0 are added at once.
        A tip while column ``p`` holds ``q < p`` fires column 0 alone, and
        so do the next ``p - q - 1`` tips, so such a run of up to ``p - q``
        avalanches costs no settle: column 0 ends at 0 and fires once per
        tip, and column ``p`` gains one per tip, so ``diff[0]`` gains one
        per tip too.  Only the other tips go through :meth:`_drop`.
        Returns the touched extent of all the avalanches: slopes changed
        only left of it, and shots and their differences only left of it
        minus ``p``.  Each settle is recorded as :meth:`_drop` says, and a
        run's density columns are 0.
        """
        self._check_target(target)
        p = self.p
        slopes = self.slopes
        edge = p + 1
        touched = 1
        while self.grains < target:
            left = target - self.grains
            need = edge - slopes[0]
            q = slopes[p]
            if left >= need and q < p:
                # a run of one-column avalanches: each tip fires column 0
                # alone, and its kick leaves column p stable until it holds p
                t = min(p - q, 1 + (left - need) // edge)
                self.grains += need + (t - 1) * edge
                slopes[0] = 0
                slopes[p] = q + t
                self.diff[0] += t
                self._mark[0] = self.grains
                if edge > touched:
                    touched = edge
                if edge > self._reach:
                    self._reach = edge
                continue
            extent = self._drop(min(left, need))
            if extent > touched:
                touched = extent
        return touched

    @property
    def shot(self) -> list[int]:
        """The shot vector without its trailing zeros: the suffix sums of ``diff``,
        whose last nonzero entry is the last nonzero shot's."""
        return _shots(self.diff, len(trimmed(self.diff)))

    def snapshot(self) -> FixedPoint:
        reach = self._reach
        return _fixed_point(
            self.p, self.grains, self.slopes[:reach], _shots(self.diff, reach), "incremental"
        )


def stabilize(p: int, n: int, strategy: str = "batch", seed: int = 0) -> FixedPoint:
    """Stabilize ``n`` grains dropped on column 0 and return the fixed point.

    ``strategy`` is ``"batch"``, ``"random"`` or ``"incremental"``; the
    resulting slopes and shot vector are strategy-independent, and equal
    those of :func:`trace_leftmost`.  ``seed`` only matters for the random
    strategy; a negative one is refused, since it would draw the same
    numbers as its absolute value.
    """
    check_p(p)
    check_grains(n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if strategy == "batch":
        slopes, shot = _run_batch(p, n)
        return _fixed_point(p, n, slopes, shot, "batch")
    if strategy == "random":
        slopes, shot = _run_random(p, n, seed)
        return _fixed_point(p, n, slopes, shot, f"random(mt19937:{seed})")
    if strategy == "incremental":
        inc = IncrementalStabilizer(p, expect=n)
        inc.advance_to(n)
        return inc.snapshot()
    raise ValueError(f"unknown strategy {strategy!r}")


def trace_leftmost(p: int, n: int, on_fire=None) -> FixedPoint:
    """The reference walk: drop ``n`` grains at once and fire leftmost to stability.

    It walks every firing, calling ``on_fire(i)``, if given, after each.
    """
    pile = IncrementalStabilizer(p, expect=n)
    pile._drop(n, on_fire)
    # not ``snapshot``, where benchmarks/tracing.py counts a grown pile's firings
    reach = pile._reach
    return _fixed_point(p, n, pile.slopes[:reach], _shots(pile.diff, reach), "leftmost")
