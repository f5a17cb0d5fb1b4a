"""Counted set-function oracles, property samplers, brute force.

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


class EnumerationBudgetError(ValueError):
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


def best_of(oracle: CountedOracle, sets) -> frozenset:
    """The first of `sets` whose counted value beats every earlier one
    by more than 1e-15; the empty set when none is positive."""
    best, best_val = frozenset(), 0.0
    for S in sets:
        v = oracle.eval(S)
        if v > best_val + 1e-15:
            best, best_val = S, v
    return best


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

    if k is not None:
        if k < 0:
            raise ValueError("k must be >= 0")
        if _n_choose_upto(len(ground), k) > budget:
            raise EnumerationBudgetError(
                f"C({len(ground)},<= {k}) exceeds budget {budget}")
        walk = ((frozenset(tup), tup) for tup in itertools.chain.from_iterable(
            itertools.combinations(ground, j)
            for j in range(min(k, len(ground)) + 1)))
    else:
        walk = _independent_sets(matroid, ground, budget)
    best_val, best_set, best_key = 0.0, frozenset(), ()
    for S, tup in walk:
        v = oracle.eval(S)
        if v > best_val + 1e-15 or (abs(v - best_val) <= 1e-15 and tup < best_key):
            best_val, best_set, best_key = v, S, tup
    return best_set, best_val


def _independent_sets(matroid, ground: list, budget: int):
    """(S, sorted id tuple of S) for each independent subset of `ground`:
    a DFS over elements in id order that prunes dependent prefixes,
    which downward closure makes exact."""
    explored = 0
    stack = [(frozenset(), 0)]
    while stack:
        S, start = stack.pop()
        explored += 1
        if explored > budget:
            raise EnumerationBudgetError(f"independent-set walk exceeds budget {budget}")
        yield S, tuple(sorted(S))
        for i in range(len(ground) - 1, start - 1, -1):
            cand = S | {ground[i]}
            if matroid.is_independent(cand):
                stack.append((cand, i + 1))
