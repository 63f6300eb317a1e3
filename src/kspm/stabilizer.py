"""Stabilization engines and avalanche bookkeeping.

Three ways to reach the unique fixed point of ``N`` grains:

* ``leftmost`` -- always fire the smallest fireable column (a heap-backed
  worklist; stale entries are skipped on pop).
* ``random`` -- fire a uniformly random fireable column, driven by a
  seeded Mersenne Twister so runs are reproducible.
* ``incremental`` -- add one grain at a time and settle the resulting
  avalanche with the leftmost rule.

All engines record the shot vector (number of firings per column).  The
fixed point itself does not depend on the strategy; the firing order
does, and is kept only for avalanches where it is cheap and useful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from math import isqrt

from .errors import CapacityError
from .model import MAX_GRAINS, SlopeConfig, check_grains, check_p, trimmed


#: Most columns any engine or audit allocates up front.
MAX_COLUMNS = 2**24


def check_columns(count: int) -> int:
    """Refuse, before allocating, column arrays longer than ``MAX_COLUMNS``."""
    if count > MAX_COLUMNS:
        raise CapacityError(f"{count} columns exceed the {MAX_COLUMNS}-column limit")
    return count


def _capacity(p: int, n: int) -> int:
    # support bound (p+1)*(sqrt(N)+1) plus room for the kick range
    return check_columns((p + 1) * (isqrt(n) + 1) + 2 * p + 4)


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

    @classmethod
    def from_order(cls, k: int, order) -> "Avalanche":
        fired = tuple(order)
        return cls(
            k=k,
            fired=fired,
            density_column=density_column(fired),
            max_fired=max(fired) if fired else None,
        )


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


def _drain(p, slopes, shot, heap, order=None, on_fire=None):
    """Settle every entry in ``heap`` with the leftmost rule.

    ``slopes``/``shot`` are plain lists, mutated in place and grown when a
    kick would land past the end.  ``order`` collects fired columns when
    given; ``on_fire`` is called after each firing with the fired column.
    """
    pp1 = p + 1
    size = len(slopes)
    while heap:
        i = heappop(heap)
        if slopes[i] <= p:
            continue
        k = i + p
        if k + 1 >= size:
            grow = k + 2 - size + 64
            slopes.extend([0] * grow)
            shot.extend([0] * grow)
            size = len(slopes)
        v0 = slopes[i] - pp1
        slopes[i] = v0
        shot[i] += 1
        if order is not None:
            order.append(i)
        if i:
            j = i - 1
            v = slopes[j] + p
            slopes[j] = v
            if v > p:
                heappush(heap, j)
        v = slopes[k] + 1
        slopes[k] = v
        if v > p:
            heappush(heap, k)
        if v0 > p:
            heappush(heap, i)
        if on_fire is not None:
            on_fire(i)


def _run_leftmost(p: int, n: int, on_fire=None):
    cap = _capacity(p, n)
    slopes = [0] * cap
    shot = [0] * cap
    slopes[0] = n
    if n > p:
        _drain(p, slopes, shot, [0], on_fire=on_fire)
    return slopes, shot


def _run_random(p: int, n: int, seed: int):
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
    while fireable:
        m = len(fireable)
        idx = int(rnd() * m)
        i = fireable[idx]
        v0 = slopes[i] - pp1
        slopes[i] = v0
        shot[i] += 1
        if v0 <= p:
            last = fireable.pop()
            if last != i:
                fireable[idx] = last
                pos[last] = idx
            pos[i] = -1
        if i:
            j = i - 1
            v = slopes[j] + p
            slopes[j] = v
            if v > p and pos[j] < 0:
                pos[j] = len(fireable)
                fireable.append(j)
        k = i + p
        v = slopes[k] + 1
        slopes[k] = v
        if v > p and pos[k] < 0:
            pos[k] = len(fireable)
            fireable.append(k)
    return slopes, shot


class IncrementalStabilizer:
    """Grain-by-grain stabilization sharing state across avalanches.

    The running configuration is always the fixed point of the grains
    added so far, so the cumulative work over all avalanches equals one
    direct stabilization of the final grain count.
    """

    def __init__(self, p: int, expect: int = 0, track_density: bool = False):
        check_p(p)
        check_grains(expect)
        self.p = p
        self.grains = 0
        self.track_density = track_density
        self.density_max = 0
        cap = _capacity(p, expect)
        self._slopes = [0] * cap
        self._shot = [0] * cap

    def advance(self, record: bool = False) -> Avalanche | None:
        """Add one grain to column 0 and settle the avalanche."""
        if self.grains + 1 > MAX_GRAINS:
            raise CapacityError("grain count would exceed the 2**62 limit")
        self.grains += 1
        p = self.p
        slopes = self._slopes
        slopes[0] += 1
        order = [] if (record or self.track_density) else None
        if slopes[0] > p:
            _drain(p, slopes, self._shot, [0], order=order)
        if order is not None and self.track_density:
            d = density_column(order)
            if d > self.density_max:
                self.density_max = d
        if record:
            return Avalanche.from_order(self.grains, order)
        return None

    def advance_to(self, target: int) -> None:
        check_grains(target)
        while self.grains < target:
            self.advance()

    def snapshot(self, strategy: str = "incremental") -> FixedPoint:
        return FixedPoint(
            p=self.p,
            n_grains=self.grains,
            slopes=SlopeConfig(trimmed(self._slopes)),
            shot=trimmed(self._shot),
            strategy=strategy,
        )

    @property
    def support(self) -> int:
        return len(trimmed(self._slopes))


def stabilize(p: int, n: int, strategy: str = "leftmost", seed: int = 0) -> FixedPoint:
    """Stabilize ``n`` grains dropped on column 0 and return the fixed point.

    ``strategy`` is ``"leftmost"``, ``"random"`` or ``"incremental"``; the
    resulting slopes and shot vector are strategy-independent.  ``seed``
    only matters for the random strategy.
    """
    check_p(p)
    check_grains(n)
    if strategy == "leftmost":
        slopes, shot = _run_leftmost(p, n)
        label = "leftmost"
    elif strategy == "random":
        slopes, shot = _run_random(p, n, seed)
        label = f"random(mt19937:{seed})"
    elif strategy == "incremental":
        inc = IncrementalStabilizer(p, expect=n)
        inc.advance_to(n)
        return inc.snapshot()
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return FixedPoint(
        p=p,
        n_grains=n,
        slopes=SlopeConfig(trimmed(slopes)),
        shot=trimmed(shot),
        strategy=label,
    )


def stabilize_incremental(p: int, n: int) -> tuple[FixedPoint, list[Avalanche]]:
    """Stabilize grain by grain, returning every avalanche.

    Keeps all ``n`` avalanche records in memory; for large sweeps drive
    :class:`IncrementalStabilizer` directly and discard records as you go.
    """
    check_p(p)
    check_grains(n)
    inc = IncrementalStabilizer(p, expect=n)
    avalanches = [inc.advance(record=True) for _ in range(n)]
    return inc.snapshot(), avalanches


def leftmost_avalanche(prev: FixedPoint) -> Avalanche:
    """Avalanche caused by one more grain on top of the fixed point ``prev``."""
    p = prev.p
    cap = _capacity(p, prev.n_grains + 1)
    slopes = list(prev.slopes.slopes) + [0] * (cap - prev.slopes.support)
    shot = [0] * len(slopes)
    slopes[0] += 1
    order: list[int] = []
    if slopes[0] > p:
        _drain(p, slopes, shot, [0], order=order)
    return Avalanche.from_order(prev.n_grains + 1, order)


def global_density_column(p: int, n: int) -> int:
    """Largest avalanche density column over the first ``n`` grains."""
    check_p(p)
    check_grains(n)
    inc = IncrementalStabilizer(p, expect=n, track_density=True)
    inc.advance_to(n)
    return inc.density_max


def trace_leftmost(p: int, n: int, on_fire) -> FixedPoint:
    """Leftmost stabilization calling ``on_fire(i)`` after every firing."""
    check_p(p)
    check_grains(n)
    slopes, shot = _run_leftmost(p, n, on_fire=on_fire)
    return FixedPoint(
        p=p,
        n_grains=n,
        slopes=SlopeConfig(trimmed(slopes)),
        shot=trimmed(shot),
        strategy="leftmost",
    )
