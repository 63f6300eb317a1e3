"""Test-side audits of the paper's lemmas, which no CLI command runs.

``check_plateaus_along_leftmost`` bounds the plateaus of every state a
leftmost stabilization passes through, not just of the fixed point.
``climbing_zero_check`` compares the interior zeros of two consecutive
fixed points across the avalanche between them.  ``audit_avalanches``
checks the structure of every one-grain avalanche of a growing pile
(Perrot and Remila, "Kadanoff sand pile model. Avalanche structure and
wave shape", Theor. Comput. Sci. 504, 2013), read off its slopes and
shot vector alone, so it audits a pile settled by the jump as well as
one settled by the plain walk.  ``uniform_index`` finds the first
constant difference vector by brute force, as the oracle for the
trajectory walk.
"""

from dataclasses import dataclass
from math import isqrt
from operator import sub

from kspm.analyzer import max_plateau, parse_waves
from kspm.model import check_grains, check_p
from kspm.stabilizer import (
    Avalanche,
    FixedPoint,
    IncrementalStabilizer,
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


@dataclass(frozen=True)
class AvalancheAuditReport:
    """Structure audit of every avalanche of a pile grown grain by grain.

    ``blocks`` counts the avalanches whose trailing fired block spans at
    least ``2p`` columns, where the edge facts apply.
    """

    p: int
    n_grains: int
    avalanches: int
    blocks: int
    ok: bool
    first_violation_at: int | None
    reason: str


def fired_block(shot0, shot1) -> tuple[bytes, int, int]:
    """Which columns fired between two shot vectors, with ``(low, top)``.

    ``top`` is the rightmost column whose shot rose (-1 when none did)
    and ``low`` the start of the trailing run of such columns, the
    density column.
    """
    rose = bytes(map(bool, map(sub, shot1, shot0)))
    top = rose.rfind(1)
    return rose, rose.rfind(0, 0, max(top, 0)) + 1, top


def avalanche_violation(p: int, slopes0, shot0, slopes1, shot1) -> str | None:
    """The first avalanche-structure fact one grain's step breaks, or None.

    The lists hold the same columns before and after the step, and every
    column the step changed.  The fired columns are those whose shot
    rose, so the facts are read off the step's result alone:

    * no column fires twice;
    * no slope in ``[density_column + p, max_fired)`` changes;
    * in a block of at least ``2p`` columns, slope ``m = max_fired``
      goes from ``p`` to 0, slopes ``m+1 .. m+p`` each gain 1 and slope
      ``m + p`` was not ``p``.
    """
    _, low, top = fired_block(shot0, shot1)
    if top < 0:
        return None
    if max(map(sub, shot1, shot0)) > 1:
        return "a column fired twice"
    if slopes1[low + p : top] != slopes0[low + p : top]:
        return f"a slope in [{low + p}, {top}) changed"
    if top - low + 1 >= 2 * p:
        edge = slopes0[top + 1 : top + p + 1]
        if (slopes0[top], slopes1[top]) != (p, 0):
            return f"slope {top} went from {slopes0[top]} to {slopes1[top]}"
        if slopes1[top + 1 : top + p + 1] != [b + 1 for b in edge]:
            return f"the slopes right of {top} did not each gain 1"
        if edge[-1] == p:
            return f"slope {top + p} was {p} before the avalanche"
    return None


def audit_avalanches(p: int, n: int, jump: bool = False):
    """Add ``n`` grains one at a time and audit every avalanche's structure.

    The pile settles each grain with ``advance()``, the plain walk, whose
    fired columns, density column and rightmost fired column are checked
    against the shot vector too; with ``jump`` it settles each grain with
    ``advance_to``, which jumps the regular block.  A grain that leaves
    column 0 at or below ``p`` fires nothing, so only the others are read.
    """
    pile = IncrementalStabilizer(p, expect=n)
    avalanches = blocks = 0
    for k in range(1, n + 1):
        if pile.slopes[0] < p:
            pile.advance_to(k) if jump else pile.advance()
            continue
        # no column at or past the reach fires, so kicks land before reach + p
        width = pile._reach + p
        slopes0, shot0 = pile.slopes[:width], pile.shot[:width]
        av = None if jump else pile.advance()
        if jump:
            pile.advance_to(k)
        slopes1, shot1 = pile.slopes[:width], pile.shot[:width]
        reason = avalanche_violation(p, slopes0, shot0, slopes1, shot1)
        rose, low, top = fired_block(shot0, shot1)
        if reason is None and av is not None:
            fired = [i for i, r in enumerate(rose) if r]
            if (sorted(av.fired), av.density_column) != (fired, low if fired else 0):
                reason = "the firing order and the shot vector disagree"
            elif av.max_fired != (top if fired else None):
                reason = "the avalanche's rightmost column disagrees with its shots"
        if reason is not None:
            return AvalancheAuditReport(p, n, avalanches, blocks, False, k, reason)
        if top >= 0:
            avalanches += 1
            blocks += top - low + 1 >= 2 * p
    return AvalancheAuditReport(p, n, avalanches, blocks, True, None, "ok")
