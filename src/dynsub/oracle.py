"""Counted set-function oracles and the brute-force optimum.

Every algorithm in this package sees its objective only through a
CountedOracle, so query budgets can be audited after the fact.  A
"charged" count following the two-queries-per-marginal convention is
maintained by the algorithms themselves (see e.g. dynsub.cardinality);
the oracle only tracks raw evaluations.
"""

from __future__ import annotations

import itertools


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


def _n_choose_upto(n: int, k: int) -> int:
    import math
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


class Optimum(tuple):
    """The pair (best set, value) of a brute-force walk, which unpacks
    like a tuple, plus what a later walk over a larger ground resumes
    from: `ground`, the elements walked so far, and `count`, the feasible
    subsets of `ground`."""

    def __new__(cls, best: frozenset, value: float, ground: frozenset,
                count: int):
        self = super().__new__(cls, (best, value))
        self.ground, self.count = ground, count
        return self


def brute_force_opt(oracle: CountedOracle, ground=None, k: int | None = None,
                    matroid=None, budget: int = 10 ** 6,
                    prev: Optimum | None = None) -> Optimum:
    """Exact maximizer over feasible subsets of `ground`.

    Feasibility is |S| <= k (cardinality) or membership in `matroid`.
    The value is the exact maximum, and among sets of that value the one
    with the lexicographically smallest sorted id tuple wins, so the
    result does not depend on the order of the walk.

    `prev` is the result of an earlier call with the same oracle and
    constraint over a subset of `ground`.  Every set feasible then is
    feasible now with the same value, so only the feasible sets that
    hold an element outside `prev.ground` are evaluated, and the better
    of them and `prev` is returned.  Without `prev` every feasible set,
    the empty one included, is evaluated.

    The budget counts the feasible subsets of the whole of `ground`,
    whether walked now or by the calls `prev` resumes: C(|ground|, <= k)
    under a cardinality constraint, checked before the walk, and
    `prev.count` plus the sets walked now under a matroid, checked as
    the walk goes.  Over `budget` the call refuses (never approximates)
    with EnumerationBudgetError.

    Under a matroid a walk with new elements makes one independence
    query per element of `ground` for its rank (see _sets_through), one
    per new element for its singleton, and one per candidate it adds to
    an independent set smaller than the rank.
    """
    if (k is None) == (matroid is None):
        raise ValueError("specify exactly one of k / matroid")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    ground = frozenset(oracle.ground if ground is None else ground)
    if prev is None:
        old, new, count = [], sorted(ground), 1  # the empty set
    elif prev.ground <= ground:
        old, new = sorted(prev.ground), sorted(ground - prev.ground)
        count = prev.count
    else:
        raise ValueError("prev must come from a walk over a subset of ground")
    if k is not None:
        count = _n_choose_upto(len(ground), k)
    if count > budget:
        raise EnumerationBudgetError(
            f"{count} feasible sets exceed budget {budget}")
    if prev is None:
        best_set, best_val = frozenset(), oracle.eval(frozenset())
    else:
        best_set, best_val = prev
    best_ids = sorted(best_set)  # the tie-break key, sorted once per incumbent
    for S in _sets_through(new, old, k, matroid):
        if k is None:
            count += 1
            if count > budget:
                raise EnumerationBudgetError(
                    f"independent-set walk exceeds budget {budget}")
        v = oracle.eval(S)
        if v >= best_val:
            ids = sorted(S)
            if v > best_val or ids < best_ids:
                best_set, best_val, best_ids = S, v, ids
    return Optimum(best_set, best_val, ground, count)


def _sets_through(new: list, old: list, k: int | None, matroid):
    """Each feasible subset of old + new that holds an element of `new`,
    once: those whose first element of `new` is new[i] are new[i] plus
    a subset of old + new[i+1:].  Under a matroid that subset grows by a
    DFS in pool order that prunes dependent prefixes, which downward
    closure makes exact.  The DFS does not grow a set of size r, the
    rank of old + new: no independent set is larger.  r is the size of
    a greedy basis, which costs one independence query per element of
    old + new."""
    if k is None and new:
        basis: set = set()
        for e in old + new:
            if matroid.is_independent(basis | {e}):
                basis.add(e)
        rank = len(basis)
    for i, e in enumerate(new):
        pool = old + new[i + 1:]
        root = frozenset((e,))
        if k is not None:
            for j in range(min(k - 1, len(pool)) + 1):
                yield from map(root.union, itertools.combinations(pool, j))
            continue
        if not matroid.is_independent(root):
            continue
        stack = [(root, 0)]
        while stack:
            S, start = stack.pop()
            yield S
            if len(S) == rank:
                continue
            for j in range(len(pool) - 1, start - 1, -1):
                cand = S | {pool[j]}
                if matroid.is_independent(cand):
                    stack.append((cand, j + 1))
