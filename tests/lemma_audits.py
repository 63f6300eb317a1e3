"""Test-side audits of the paper's lemmas, which no CLI command runs.

``check_plateaus_along_leftmost`` bounds the plateaus of every state a
leftmost stabilization passes through, not just of the fixed point.
``climbing_zero_check`` compares the interior zeros of two consecutive
fixed points across the avalanche between them.  ``uniform_index``
finds the first constant difference vector by brute force, as the
oracle for the trajectory walk.
"""

from dataclasses import dataclass
from math import isqrt

from kspm.analyzer import max_plateau, parse_waves
from kspm.model import check_grains, check_p
from kspm.stabilizer import (
    Avalanche,
    FixedPoint,
    check_columns,
    check_work,
    trace_leftmost,
)


def uniform_index(ys) -> int:
    """Index of the first constant vector in an iterable of vectors."""
    for i, y in enumerate(ys):
        if min(y) == max(y):
            return i
    raise ValueError("no uniform vector in the given trajectory")


@dataclass(frozen=True)
class PlateauTrajectoryReport:
    """Plateau audit of a full leftmost stabilization."""

    p: int
    n_grains: int
    firings: int
    max_plateau_seen: int
    bound: int
    ok: bool
    first_violation_at: int | None


def plateau_window(p: int, i: int) -> slice:
    """Columns a firing at ``i`` changed, with ``p + 2`` more on either side."""
    return slice(max(0, i - p - 2), i + 2 * p + 3)


def check_plateaus_along_leftmost(p: int, n: int) -> PlateauTrajectoryReport:
    """Stabilize ``n`` grains and bound plateaus in every intermediate state.

    After each firing only columns ``i .. i+p`` changed height, so it is
    enough to remeasure runs inside a window of ``p + 2`` columns on
    either side: any longer run already violates the ``p + 1`` bound and
    is still detected because at least ``p + 2`` of its columns lie in
    the window.
    """
    check_p(p)
    check_grains(n)
    check_work(p, n)
    heights = [0] * check_columns((p + 1) * (isqrt(n) + 2) + 4 * p + 8)
    heights[0] = n
    bound = p + 1
    state = {"max": 1, "firings": 0, "bad_at": None}

    def on_fire(i: int) -> None:
        heights[i] -= p
        for j in range(i + 1, i + p + 1):
            heights[j] += 1
        state["firings"] += 1
        local = max_plateau(heights[plateau_window(p, i)])
        if local > state["max"]:
            state["max"] = local
        if local > bound and state["bad_at"] is None:
            state["bad_at"] = state["firings"]

    trace_leftmost(p, n, on_fire)
    return PlateauTrajectoryReport(
        p=p,
        n_grains=n,
        firings=state["firings"],
        max_plateau_seen=state["max"],
        bound=bound,
        ok=state["bad_at"] is None,
        first_violation_at=state["bad_at"],
    )


@dataclass(frozen=True)
class ClimbingZeroReport:
    """How the interior zero moved across one added grain.

    Only avalanches reaching into the wave region can rearrange it; for
    those the zero count must stay at most 1 and, when both sides show an
    interior zero past the shared wave region, the zero may only move
    left.
    """

    k: int
    applicable: bool
    prev_start: int
    next_start: int
    prev_zero: int | None
    next_zero: int | None
    ok: bool
    reason: str


def climbing_zero_check(
    prev: FixedPoint, nxt: FixedPoint, avalanche: Avalanche
) -> ClimbingZeroReport:
    """Compare the interior zeros of two consecutive fixed points.

    An avalanche only influences columns up to ``max_fired + p``, so one
    that stops short of the wave region must leave the interior zero
    exactly where it was.
    """
    p = prev.p
    dp = parse_waves(p, prev.slopes, "strict")
    dn = parse_waves(p, nxt.slopes, "strict")
    pz = dp.zero_positions[0] if dp.zero_positions else None
    nz = dn.zero_positions[0] if dn.zero_positions else None
    applicable = (
        avalanche.max_fired is not None and avalanche.max_fired + p >= dp.start
    )
    ok = True
    reason = "ok"
    if dn.interior_zero_count > 1:
        ok = False
        reason = f"next tail has {dn.interior_zero_count} interior zeros"
    elif not applicable:
        if pz is not None and nz != pz:
            ok = False
            reason = "zero moved without the avalanche reaching the wave region"
    else:
        shared = max(dp.start, dn.start)
        if pz is not None and nz is not None and pz >= shared and nz >= shared:
            if nz > pz:
                ok = False
                reason = f"zero moved right: {pz} -> {nz}"
    return ClimbingZeroReport(
        k=nxt.n_grains,
        applicable=applicable,
        prev_start=dp.start,
        next_start=dn.start,
        prev_zero=pz,
        next_zero=nz,
        ok=ok,
        reason=reason,
    )
