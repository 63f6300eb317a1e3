"""Sandpile fixed points with a tunable kick range.

Grains stack on column 0; a column whose slope exceeds ``p`` may fire,
sending ``p`` units of slope left and one unit ``p`` columns right.
Stabilization always reaches the same fixed point, whose slope tail
organizes into descending waves.  The subpackages cover simulation
(:mod:`kspm.stabilizer`), exact shot-vector dynamics (:mod:`kspm.dds`),
pattern analysis (:mod:`kspm.analyzer`), the spectral side
(:mod:`kspm.spectral`) and a CLI (:mod:`kspm.cli`).
"""

from .errors import (
    CapacityError,
    Divergence,
    InsufficientData,
    KSPMError,
    NoConvergence,
    NonIntegral,
    NotFireable,
    RecurrenceMismatch,
)
from .model import (
    SlopeConfig,
    fire,
    fireable,
    grain_count,
    heights_from_slopes,
    is_stable,
)
from .stabilizer import (
    Avalanche,
    FixedPoint,
    IncrementalStabilizer,
    density_column,
    stabilize,
)

__version__ = "0.1.0"

__all__ = [
    "Avalanche",
    "CapacityError",
    "Divergence",
    "FixedPoint",
    "IncrementalStabilizer",
    "InsufficientData",
    "KSPMError",
    "NoConvergence",
    "NonIntegral",
    "NotFireable",
    "RecurrenceMismatch",
    "SlopeConfig",
    "density_column",
    "fire",
    "fireable",
    "grain_count",
    "heights_from_slopes",
    "is_stable",
    "stabilize",
]
