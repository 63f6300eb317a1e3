"""Core sandpile model with a tunable kick range.

A configuration is described by its column slopes ``b_0, b_1, ...``
(implicitly zero from some point on).  Column ``i`` may fire when its
slope exceeds the parameter ``p``; firing removes ``p + 1`` units of
slope at ``i``, returns ``p`` units to the left neighbour (dropped when
``i == 0``) and sends one unit to column ``i + p``.

Everything here is value-semantic and exact.  The fast engines in
:mod:`kspm.stabilizer` work on mutable arrays internally and only
exchange immutable configurations at their boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from .errors import CapacityError, NotFireable

#: Largest grain count accepted by the simulation APIs.
MAX_GRAINS = 2**62

#: Largest value grain_count may return before it overflows the contract.
_MAX_COUNT = 2**63 - 1


def check_grains(n: int) -> int:
    """Validate a grain count (non-negative integer, at most ``MAX_GRAINS``)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"grain count must be a non-negative integer, got {n!r}")
    if n > MAX_GRAINS:
        raise CapacityError(f"grain count {n} exceeds the 2**62 limit")
    return n


def support_bound(p: int, n: int) -> int:
    """Most columns the fixed point of ``n`` grains can occupy."""
    return (p + 1) * (isqrt(n) + 1) + p + 1


def trimmed(values) -> tuple[int, ...]:
    """``values`` as a tuple without its trailing zeros."""
    seq = tuple(values)
    w = len(seq)
    while w and seq[w - 1] == 0:
        w -= 1
    return seq[:w]


def check_p(p: int) -> int:
    """Validate the kick-range parameter (an integer at least 1)."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"parameter p must be an integer >= 1, got {p!r}")
    return p


@dataclass(frozen=True)
class SlopeConfig:
    """Immutable slope sequence, canonically stored without trailing zeros.

    Two configs with the same mathematical content always compare equal.
    Indexing past the support returns 0.
    """

    slopes: tuple[int, ...]

    def __init__(self, slopes=()):
        vals = list(slopes)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"slopes must be integers, got {v!r}")
            if v < 0:
                raise ValueError(f"slopes must be non-negative, got {v}")
        object.__setattr__(self, "slopes", trimmed(vals))

    @property
    def support(self) -> int:
        """Number of columns up to and including the last nonzero slope."""
        return len(self.slopes)

    def __len__(self) -> int:
        return len(self.slopes)

    def __iter__(self):
        return iter(self.slopes)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise ValueError("column indices start at 0")
        return self.slopes[i] if i < len(self.slopes) else 0


def fireable(p: int, c: SlopeConfig, i: int) -> bool:
    """True when column ``i`` of ``c`` may fire, i.e. its slope exceeds ``p``."""
    check_p(p)
    return c[i] > p


def fire(p: int, c: SlopeConfig, i: int) -> SlopeConfig:
    """Fire column ``i`` and return the successor configuration.

    Raises :class:`NotFireable` when the slope at ``i`` is not above ``p``.
    The update touches at most columns ``i - 1``, ``i`` and ``i + p``.
    """
    check_p(p)
    if not fireable(p, c, i):
        raise NotFireable(f"column {i} has slope {c[i]} <= {p}")
    out = list(c.slopes) + [0] * max(0, i + p + 1 - len(c.slopes))
    out[i] -= p + 1
    if i > 0:
        out[i - 1] += p
    out[i + p] += 1
    return SlopeConfig(out)


def is_stable(p: int, c: SlopeConfig) -> bool:
    """True when no column of ``c`` can fire."""
    check_p(p)
    return all(v <= p for v in c.slopes)


def grain_count(c: SlopeConfig) -> int:
    """Total mass ``sum((i + 1) * b_i)`` conserved by firing.

    Raises :class:`OverflowError` when the count exceeds ``2**63 - 1``.
    """
    total = sum((i + 1) * v for i, v in enumerate(c.slopes))
    if total > _MAX_COUNT:
        raise OverflowError("grain count exceeds 2**63 - 1")
    return total


def heights_from_slopes(c: SlopeConfig) -> tuple[int, ...]:
    """Heights are the suffix sums of the slopes."""
    return tuple(accumulate(reversed(c.slopes)))[::-1]
