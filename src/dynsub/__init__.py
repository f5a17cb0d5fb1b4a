"""Dynamic submodular maximization toolkit.

Insertion-only streaming algorithms under cardinality and matroid
constraints, exact evaluators for two families of adversarial instances,
and a replay harness with per-round query accounting.  Names are
imported from their modules, e.g. `from dynsub.oracle import
CountedOracle`.
"""

__version__ = "0.1.0"
