"""Dynamic submodular maximization toolkit.

Insertion-only streaming algorithms under cardinality and matroid
constraints, exact evaluators for two families of adversarial instances,
and a replay harness with per-round query accounting.
"""

from dynsub.oracle import (
    CountedOracle,
    check_submodular_monotone,
    brute_force_opt,
    EnumerationBudgetError,
)
from dynsub.streams import Stream, StreamOp, INSERT, DELETE
from dynsub.objectives import (
    CoverageFunction,
    ModularFunction,
    multilinear_exact,
    plus_direction,
)
from dynsub.matroids import (
    UniformMatroid,
    PartitionMatroid,
    ConvexCombo,
    swap_round,
)

__all__ = [
    "CountedOracle",
    "check_submodular_monotone",
    "brute_force_opt",
    "EnumerationBudgetError",
    "Stream",
    "StreamOp",
    "INSERT",
    "DELETE",
    "CoverageFunction",
    "ModularFunction",
    "multilinear_exact",
    "plus_direction",
    "UniformMatroid",
    "PartitionMatroid",
    "ConvexCombo",
    "swap_round",
]

__version__ = "0.1.0"
