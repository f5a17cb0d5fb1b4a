"""Counted set-function oracles, marginals, property samplers, brute force.

Every algorithm in this package sees its objective only through a
CountedOracle, so query budgets can be audited after the fact.  A
"charged" count following the two-queries-per-marginal convention is
maintained by the algorithms themselves (see e.g. dynsub.cardinality);
the oracle only tracks raw evaluations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


class DomainError(ValueError):
    """A queried set contains elements outside the oracle's ground set."""


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget."""


class InvariantError(RuntimeError):
    """A guarantee of the paper or of a construction does not hold."""


class CountedOracle:
    """Wraps a set function with a monotone query counter.

    The inner function is normalized so that eval(frozenset()) == 0
    (one uncounted probe at construction).  An oracle is not meant to be
    shared across threads: the counter is a plain integer.
    """

    def __init__(self, inner, ground):
        self._inner = inner
        self.ground = frozenset(ground)
        self._offset = float(inner(frozenset()))
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def eval(self, S) -> float:
        S = frozenset(S)
        if not S <= self.ground:
            raise DomainError(f"unknown elements: {sorted(S - self.ground)}")
        self._count += 1
        return float(self._inner(S)) - self._offset


def marginal(oracle: CountedOracle, S, T, cached_base: float | None = None) -> float:
    """Marginal gain of T on top of S: eval(S | T) - eval(S).

    Costs 2 counted queries, or 1 when the caller supplies eval(S).
    """
    S = frozenset(S)
    T = frozenset(T)
    if not T:
        return 0.0
    base = oracle.eval(S) if cached_base is None else cached_base
    return oracle.eval(S | T) - base


@dataclass
class PropertyReport:
    trials: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_submodular_monotone(oracle: CountedOracle, trials: int, seed: int,
                              tol: float = 1e-9) -> PropertyReport:
    """Sample random (S subset-of T, e not in T) triples and test
    f_S(e) >= f_T(e) - tol (submodularity) and f_S(e) >= -tol (monotonicity).

    Deterministic given the seed.  Violating triples are recorded verbatim.
    """
    if not oracle.ground:
        raise ValueError("empty ground set")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    rng = random.Random(seed)
    universe = sorted(oracle.ground)
    report = PropertyReport(trials=trials)
    for _ in range(trials):
        e = rng.choice(universe)
        rest = [u for u in universe if u != e]
        t_size = rng.randint(0, len(rest))
        T = frozenset(rng.sample(rest, t_size))
        S = frozenset(u for u in T if rng.random() < 0.5)
        fS = oracle.eval(S)
        fT = oracle.eval(T)
        mS = oracle.eval(S | {e}) - fS
        mT = oracle.eval(T | {e}) - fT
        if mS < mT - tol:
            report.violations.append(("submodularity", S, T, e, mS, mT))
        if mS < -tol:
            report.violations.append(("monotonicity", S, T, e, mS, None))
    return report


def _n_choose_upto(n: int, k: int) -> int:
    import math
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


def brute_force_opt(oracle: CountedOracle, ground=None, k: int | None = None,
                    matroid=None, budget: int = 10 ** 6):
    """Exact maximizer over feasible subsets of `ground`.

    Feasibility is |S| <= k (cardinality) or membership in `matroid`.
    Ties break toward the lexicographically smallest sorted id tuple.
    Refuses (never approximates) when enumeration exceeds `budget` sets.
    """
    if (k is None) == (matroid is None):
        raise ValueError("specify exactly one of k / matroid")
    ground = sorted(oracle.ground if ground is None else ground)

    best_val = 0.0
    best_set = frozenset()
    best_key = ()

    if k is not None:
        if k < 0:
            raise ValueError("k must be >= 0")
        if _n_choose_upto(len(ground), k) > budget:
            raise EnumerationBudgetError(
                f"C({len(ground)},<= {k}) exceeds budget {budget}")
        candidates = itertools.chain.from_iterable(
            itertools.combinations(ground, j) for j in range(min(k, len(ground)) + 1))
        for tup in candidates:
            v = oracle.eval(frozenset(tup))
            if v > best_val + 1e-15 or (abs(v - best_val) <= 1e-15 and tup < best_key):
                best_val, best_set, best_key = v, frozenset(tup), tup
        return best_set, best_val

    # Matroid: DFS over elements in id order, pruning dependent prefixes.
    # Downward closure makes the pruning exact.
    explored = 0
    stack = [(frozenset(), 0)]
    while stack:
        S, start = stack.pop()
        explored += 1
        if explored > budget:
            raise EnumerationBudgetError(f"independent-set walk exceeds budget {budget}")
        v = oracle.eval(S)
        tup = tuple(sorted(S))
        if v > best_val + 1e-15 or (abs(v - best_val) <= 1e-15 and tup < best_key):
            best_val, best_set, best_key = v, S, tup
        for i in range(len(ground) - 1, start - 1, -1):
            cand = S | {ground[i]}
            if matroid.is_independent(cand):
                stack.append((cand, i + 1))
    return best_set, best_val
