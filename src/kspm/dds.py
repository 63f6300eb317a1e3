"""Exact dynamics of the shot vector.

Write ``a_i`` for the number of times column ``i`` fires while ``n``
grains stabilize, with the virtual convention ``a_{-p} = n`` and
``a_j = 0`` for ``-p < j < 0``.  Mass balance at column ``i`` gives

    b_i = a_{i-p} - (p + 1) * a_i + p * a_{i+1}

so a sliding window of ``p + 1`` consecutive shot values advances one
column at a time, driven by the slope it passes over.  Everything here
is exact integer arithmetic; divisibility failures raise
:class:`NonIntegral` because they prove the inputs were not genuine
fixed-point data.

Reducing mod ``p`` nearly determines the slope from the window alone:
the residue of ``a_{i-p} - a_i`` equals ``b_i mod p``, which pins the
slope except when the residue is 0, where it may be either 0 or ``p``.

The averaging view replaces the window by its ``p`` consecutive
differences.  The slope again drives a one-step shift whose new entry
is the old mean plus ``b_i / p``, and the min/max envelope of that
difference vector contracts, which is what eventually freezes the
pattern into waves.  Centered by its mean, it follows the contraction
``O`` of :mod:`kspm.spectral`, whose integer step :func:`_scaled_step`
is written here so that one walk replays both views without numpy.
The wave grammar itself is decided in :mod:`kspm.analyzer`; the
brute-force ``uniform_index`` oracle that checks this walk's uniform
column is test-side, in ``tests/lemma_audits.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Divergence, NonIntegral
from .model import SlopeConfig, check_grains, check_p, support_bound, trimmed


def next_shot(p: int, a_back: int, a_here: int, b: int) -> int:
    """Invert the balance: shot one column to the right, exactly.

    Raises :class:`NonIntegral` when ``p`` does not divide the numerator,
    which cannot happen for consistent fixed-point data.
    """
    check_p(p)
    num = -a_back + (p + 1) * a_here + b
    q, r = divmod(num, p)
    if r:
        raise NonIntegral(
            f"(-{a_back} + {p + 1}*{a_here} + {b}) is not divisible by {p}"
        )
    return q


def determine_slope(p: int, a_back: int, a_here: int) -> int | None:
    """Read the slope mod ``p`` from the two window ends.

    ``None`` means the residue is 0, so the slope is either 0 or ``p``.
    """
    check_p(p)
    return (a_back - a_here) % p or None


def initial_window(p: int, n: int, a0: int) -> tuple[int, ...]:
    """Window at column 0: the virtual shots followed by ``a_0``."""
    check_p(p)
    return (n,) + (0,) * (p - 1) + (a0,)


def to_averaging(window) -> tuple[int, ...]:
    """Consecutive differences of a shot window (one entry shorter)."""
    return tuple(window[i + 1] - window[i] for i in range(len(window) - 1))


def y_step(p: int, y: tuple[int, ...], b: int) -> tuple[int, ...]:
    """Advance the difference vector one column under slope ``b``.

    The new entry is ``(sum(y) + b) / p``; non-divisibility raises
    :class:`NonIntegral`.
    """
    check_p(p)
    if len(y) != p:
        raise ValueError(f"difference vector must have {p} entries")
    q, r = divmod(sum(y) + b, p)
    if r:
        raise NonIntegral(f"(sum {sum(y)} + {b}) is not divisible by {p}")
    return y[1:] + (q,)


def determine_slope_from_mean(p: int, y) -> int | None:
    """Read the slope mod ``p`` from a difference vector's sum, as
    :func:`determine_slope` reads it from the window ends."""
    check_p(p)
    return (-sum(y)) % p or None


def _scaled_step(p: int, zs: list[int], pb: int) -> list[int]:
    """``(p**2 O) Z + pb (p kick)`` in ``O(p)``, the one definition of ``O``.

    Centering the averaging advance subtracts each column's mean, which
    gives ``p**2 O = p**2 J + U V^T`` with ``J`` the upper shift,
    ``U = (-1, p e_last)`` and ``V = ((p [j >= 1] + 1)_j, 1)``, and the
    kick ``p kick = p e_last - 1``.  So row ``r < p - 1`` of the step is
    ``p**2 Z[r + 1] - v - pb`` and the last row is ``p s - v + (p - 1) pb``,
    with ``s = sum(Z)`` and ``v = V[:, 0] . Z``.  No term leans on
    ``s = 0``, so the step is linear on every integer vector, and the
    dense matrix of :func:`kspm.spectral._centered_scaled` is read off it.
    """
    pp = p * p
    s = sum(zs)
    # V[:, 0] is 1 at j = 0 and p + 1 after it
    v = s + p * (s - zs[0])
    step = [pp * z - v - pb for z in zs[1:]]
    step.append(p * s - v + (p - 1) * pb)
    return step


def _check_a0(a0: int) -> None:
    """Validate the shot count of column 0 (a non-negative integer)."""
    if not isinstance(a0, int) or isinstance(a0, bool) or a0 < 0:
        raise ValueError(f"a0 must be a non-negative integer, got {a0!r}")


def _walk(p, n, a0, slope_at, limit, overrun, support=0):
    """Yield ``(i, window, b_i)`` from column 0 until the window closes.

    ``slope_at(i, window)`` gives the slope that advances the window past
    column ``i``.  The walk ends at the closing window, the first all-zero
    window past column ``p``, which certifies nothing fires further out;
    it is yielded with slope 0 and ``slope_at`` is not asked for it.
    Passing column ``limit`` unclosed raises ``overrun``.  Closing left of
    column ``support``, where the caller still holds a nonzero slope,
    raises :class:`NonIntegral`.
    """
    window = initial_window(p, n, a0)
    i = 0
    while not (i > p and not any(window)):
        b = slope_at(i, window)
        yield i, window, b
        window = window[1:] + (next_shot(p, window[0], window[-1], b),)
        i += 1
        if i > limit:
            raise overrun(f"no all-zero window within {limit} columns")
    if i < support:
        raise NonIntegral(
            f"window closed at column {i} but slopes run to column {support - 1}"
        )
    yield i, window, 0


def iter_windows(p: int, slopes, a0: int, n: int):
    """Yield ``(i, window, b_i)`` along the true trajectory of a fixed point.

    ``slopes`` are the stabilized slopes for ``n`` grains and ``a0`` the
    shot count of column 0.  Iteration stops after the first all-zero
    window past position ``p``, which certifies nothing fires further out.
    Raises :class:`NonIntegral` when the inputs are not a fixed point: a
    shot value fails to divide, the window closes before the last nonzero
    slope, or it does not close within ``2p + 2`` columns past it.
    A non-integer or negative ``a0`` raises ``ValueError`` at the call.
    """
    check_p(p)
    check_grains(n)
    _check_a0(a0)
    seq = trimmed(slopes)
    w = len(seq)
    return _walk(
        p, n, a0, lambda i, _: seq[i] if i < w else 0, w + 2 * p + 2, NonIntegral, w
    )


@dataclass(frozen=True)
class TrajectoryReport:
    """Summary of one exact window trajectory and its invariant audit.

    ``uniform_index`` is the first column whose difference vector is
    constant.  ``ambiguous_count`` counts positions where the residue
    alone does not pin the slope.
    ``violations`` is empty when all audited invariants held.  ``spread0``
    is the min/max spread of the first difference vector, ``N + a0`` if
    ``p > 1``.  ``centered_mismatch`` is the first column whose centered
    vector is not the step of the one before it, or ``None``.
    """

    steps: int
    uniform_index: int
    ambiguous_count: int
    violations: tuple[str, ...]
    spread0: int
    spread0_identity_ok: bool
    centered_mismatch: int | None


def trajectory_report(p, slopes, a0, n) -> TrajectoryReport:
    """Walk the exact window trajectory of a fixed point and audit it.

    Replays the windows from ``a0`` alone and verifies, at every step:
    the two slope reads (window residue and difference-vector residue)
    agree and match the true slope; advancing differences commutes with
    differencing the advanced window; and at nonconstant difference
    vectors the min/max envelope never widens, the new entry lands inside
    the old open/closed envelope, and the envelope width strictly shrinks
    within ``p`` steps.  Each centered vector, scaled into integers, must
    be :func:`_scaled_step` of the one before; the first column where it
    is not is recorded, not raised.  The statistics pass behind scans and
    :func:`kspm.analyzer.row_statistics` reads the same statistics off the
    engine's shot vector instead; this walk is its independent audit.
    """
    violations: list[str] = []
    spreads: list[int] = []
    nonuniform: list[int] = []
    uniform_at = -1
    ambiguous = 0
    mismatch = zs = None
    pp = p * p
    for i, window, b in iter_windows(p, slopes, a0, n):
        if i == 0:
            y = to_averaging(window)
            total = sum(y)
        else:
            new = window[-1] - window[-2]
            # y_step keeps y[1:] and appends (sum(y) + b) / p, so only that
            # entry can differ from differencing the advanced window
            q, r = divmod(total + b_prev, p)
            if r or q != new:
                violations.append(f"i={i - 1}: averaging step does not commute")
            total += new - y[0]
            y = y[1:] + (new,)
        lo, hi = min(y), max(y)
        if i and mn != mx:
            if not (mn < new <= mx):
                violations.append(
                    f"i={i - 1}: new entry {new} outside envelope ({mn}, {mx}]"
                )
            if lo < mn or hi > mx:
                violations.append(f"i={i - 1}: envelope widened")
        mn, mx = lo, hi
        spreads.append(mx - mn)
        if mn == mx:
            if uniform_at < 0:
                uniform_at = i
        else:
            nonuniform.append(i)

        # Z = p y - sum(y) is p times the centered vector, and Z' = O Z + b kick,
        # so p^2 Z' = (p^2 O) Z + p b (p kick) holds exactly in integers
        zs_prev, zs = zs, [p * v - total for v in y]
        if i and mismatch is None:
            if _scaled_step(p, zs_prev, p * b_prev) != [pp * z for z in zs]:
                mismatch = i

        det = determine_slope(p, window[0], window[-1])
        # determine_slope_from_mean, read off the running sum
        if det != ((-total) % p or None):
            violations.append(f"i={i}: window and mean determinations differ")
        if det is None:
            ambiguous += 1
            if b not in (0, p):
                violations.append(f"i={i}: ambiguous residue but true slope {b}")
        elif det != b:
            violations.append(f"i={i}: determined slope {det} but true slope {b}")
        b_prev = b

    last = len(spreads) - 1
    for j in nonuniform:
        lookahead = spreads[j + 1 : min(j + p, last) + 1]
        if lookahead and min(lookahead) >= spreads[j]:
            violations.append(f"i={j}: envelope width did not shrink within {p} steps")

    return TrajectoryReport(
        steps=i,
        uniform_index=uniform_at,
        # the closing window has residue 0 but reads no slope
        ambiguous_count=ambiguous - 1,
        violations=tuple(violations),
        spread0=spreads[0],
        spread0_identity_ok=p == 1 or spreads[0] == n + a0,
        centered_mismatch=mismatch,
    )


@dataclass(frozen=True)
class Reconstruction:
    """A fixed point rebuilt from ``(p, n, a0)`` plus an ambiguity resolver.

    ``ambiguous_positions`` lists every column where the resolver was
    consulted.
    """

    slopes: SlopeConfig
    shot: tuple[int, ...]
    ambiguous_positions: tuple[int, ...]
    steps: int


def reconstruct_fixed_point(p: int, n: int, a0: int, resolver) -> Reconstruction:
    """Rebuild slopes and shot vector from the initial window alone.

    Walks the window recurrence, reading each slope from the residue and
    asking ``resolver(i)`` (which must return 0 or ``p``) whenever the
    residue leaves it open; a known fixed point resolves with
    ``fp.slopes.__getitem__``.  Stops at the first all-zero window past
    position ``p``.  Raises :class:`Divergence` if the window fails to
    close within the provable support bound, and :class:`NonIntegral` on
    a divisibility failure; both mean ``(n, a0)`` plus the resolutions do
    not describe a real fixed point.
    """
    check_p(p)
    check_grains(n)
    _check_a0(a0)
    consulted: list[int] = []

    def slope_at(i, window):
        r = determine_slope(p, window[0], window[-1])
        if r:
            return r
        consulted.append(i)
        b = resolver(i)
        if b not in (0, p):
            raise ValueError(f"resolver returned {b!r}; must be 0 or {p}")
        return b

    # the closing window lies at most one column past the support bound
    bound = support_bound(p, n) + 1
    slopes: list[int] = []
    shots: list[int] = []
    for i, window, b in _walk(p, n, a0, slope_at, bound, Divergence):
        slopes.append(b)
        shots.append(window[-1])
    return Reconstruction(
        slopes=SlopeConfig(slopes),
        shot=trimmed(shots),
        ambiguous_positions=tuple(consulted),
        steps=i,
    )
