"""Counted set-function oracles and the brute-force optimum.

Every algorithm in this package sees its objective only through a
CountedOracle, so query budgets can be audited after the fact.  A
"charged" count following the two-queries-per-marginal convention is
maintained by the algorithms themselves (see e.g. dynsub.cardinality);
the oracle only tracks raw evaluations.
"""

from __future__ import annotations

import bisect
import itertools
import math


class DomainError(ValueError):
    """A queried set contains elements outside the oracle's ground set."""


class EnumerationBudgetError(ValueError):
    """Exact enumeration would exceed the configured budget."""


class InvariantError(RuntimeError):
    """A guarantee of the paper or of a construction does not hold."""


_ALONE = object()  # eval's `plus` when S is asked alone
# a marginal settles a test with no query only this far, relative to the
# values it is computed from, below the bound: m is a difference of
# floats, and a set's value a sum of them
SETTLE_MARGIN = 1e-9


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
        self._growing_set = getattr(inner, "growing_set", None)

    @property
    def count(self) -> int:
        return self._count

    def eval(self, S, plus=_ALONE) -> float:
        """f(S); or, given `plus`, f(S + {plus}) for a growing set S of
        this oracle that answers it itself (see GrowingSet)."""
        if plus is _ALONE:
            S = frozenset(S)
            if not S <= self.ground:
                raise DomainError(
                    f"unknown elements: {sorted(S - self.ground)}")
            self._count += 1
            return float(self._inner(S)) - self._offset
        if plus not in self.ground:  # S holds only elements asked before
            raise DomainError(f"unknown elements: {[plus]}")
        self._count += 1
        return S.f_plus(plus) - self._offset

    def growing(self, S=None) -> "GrowingSet":
        """A GrowingSet over this oracle whose members are the set S
        itself, a new empty set by default: the inner function's own
        (`inner.growing_set(oracle, S)`) where it has one, else the plain
        one.  Once it is made, S grows only through its `add`."""
        S = set() if S is None else S
        if self._growing_set is None:
            return GrowingSet(self, S)
        return self._growing_set(self, S)


class GrowingSet:
    """A set S that only grows, with counted queries f(S + {e}).

    `oracle.eval(S, e)` is one counted query, which calls `f_plus(e)`
    after its domain check and count, and `add(e)` puts e in S, whose
    elements are `members`.  This plain one hands the inner function the
    set S | {e}, so it sees the sets it would see without a growing set.
    An inner function may offer one that keeps what it needs of S and
    answers f(S + {e}) itself (CoverageFunction.growing_set).  A growing
    set keeps nothing of a query once it returns.
    """

    __slots__ = ("_inner", "members")

    def __init__(self, oracle: CountedOracle, S: set):
        self._inner = oracle._inner
        self.members = S

    def f_plus(self, e) -> float:
        return float(self._inner(frozenset(self.members | {e})))

    def add(self, e) -> None:
        self.members.add(e)


def best_of(oracle: CountedOracle, sets, values=None) -> frozenset:
    """The first of `sets` whose value beats every earlier one by more
    than 1e-15; the empty set when none is positive.  Each value is a
    counted query, unless `values` gives them in the order of `sets`."""
    sets = list(sets)
    best, best_val = frozenset(), 0.0
    for S, v in zip(sets, map(oracle.eval, sets) if values is None
                    else values):
        if v > best_val + 1e-15:
            best, best_val = S, v
    return best


def _n_choose_upto(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


class Optimum(tuple):
    """The pair (best set, value) of a brute-force walk, which unpacks
    like a tuple, plus what a later walk over a larger ground resumes
    from: `ground`, the elements walked so far, and `count`, the sets
    the walk counts against its budget (see brute_force_opt)."""

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
    feasible now with the same value, so only feasible sets that hold an
    element outside `prev.ground` are walked, and the better of them and
    `prev` is returned.  Without `prev` the empty set is evaluated too.

    Both walks assume f is monotone and skip only sets that can neither
    beat the optimum nor win a tie with it.  Under a cardinality
    constraint a call with new elements first evaluates the cap f(ground)
    (unless |ground| <= k, when ground is itself walked), which bounds
    every f(T) for T in ground as computed.  Within a group of the walk,
    the sets through one first new element with one size come in
    increasing order of sorted id tuple, so once the incumbent reaches
    the cap the group ends at its first set above the incumbent's tuple:
    it and every later set of the group can at best tie, and lose the
    tie.  A walked set above the cap raises InvariantError.  Under a
    matroid the walk is a branch and bound (see _MatroidWalk) that also
    assumes f is submodular.  It checks both premises on every edge it
    expands and raises InvariantError where one fails by more than a
    float slack.

    The budget counts sets over the whole of `ground`, whether walked
    now or by the calls `prev` resumes: the C(|ground|, <= k) feasible
    sets under a cardinality constraint, checked before the walk, and
    the sets evaluated, the empty one included, under a matroid, checked
    as the walk goes.  Over `budget` the call refuses (never
    approximates) with EnumerationBudgetError.
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
    if k is None:
        walk = _MatroidWalk(oracle, matroid, best_set, best_val, count, budget)
        walk.run(old, new, from_empty=prev is None)
        return Optimum(walk.best_set, walk.best_val, ground, walk.count)
    best_ids = tuple(sorted(best_set))  # the tie-break key, per incumbent
    cap = math.inf
    if new and len(ground) > k:
        cap = oracle.eval(ground)
    if best_val > cap:
        raise InvariantError(f"f is not monotone: f({list(best_ids)}) is "
                             f"{best_val!r}, above f(ground) {cap!r}")
    # each feasible set through new[i], and no earlier element of `new`,
    # is new[i] plus a subset of old + new[i+1:], in groups by size
    for i, e in enumerate(new):
        pool = sorted(old + new[i + 1:])
        root = frozenset((e,))
        for j in range(min(k - 1, len(pool)) + 1):
            for c in itertools.combinations(pool, j):
                if best_val >= cap:
                    at = bisect.bisect(c, e)
                    if c[:at] + (e,) + c[at:] > best_ids:
                        break  # the group's sorted tuples only grow
                S = root.union(c)
                v = oracle.eval(S)
                if v >= best_val:
                    if v > cap:
                        raise InvariantError(
                            f"f is not monotone: f({sorted(S)}) is {v!r}, "
                            f"above f(ground) {cap!r}")
                    ids = tuple(sorted(S))
                    if v > best_val or ids < best_ids:
                        best_set, best_val, best_ids = S, v, ids
    return Optimum(best_set, best_val, ground, count)


class _MatroidWalk:
    """Branch and bound over the independent sets that hold an element
    of `new`, for monotone submodular f.

    A node is an independent set S with a pool and a start: its children
    are S + pool[j] for j >= start, the subtree under S + pool[j] adds
    only pool elements after j, and no set outgrows the rank r of old +
    new (a greedy basis, one independence query per element).  Expanding
    S evaluates each independent child, which gives the marginals
    f(x|S).  Since f(S + T) <= f(S) + sum of f(x|S) over x in T
    (Nemhauser, Wolsey and Fisher 1978), the subtree under child c is
    bounded by f(c) plus the r - |c| largest marginals, floored at 0, of
    the later independent children.  A child is expanded, in decreasing
    f(c), only while that bound is within `slack` of the incumbent, so
    no set that ties the optimum is skipped and the tie rule holds.
    The walk evaluates and tests no set that the plain walk over every
    independent set does not.
    """

    def __init__(self, oracle, matroid, best_set, best_val, count, budget):
        self.oracle, self.matroid = oracle, matroid
        self.best_set, self.best_val = best_set, best_val
        self._best_ids = sorted(best_set)
        self.count, self.budget = count, budget

    def slack(self) -> float:
        return 1e-9 * max(1.0, abs(self.best_val))

    def eval(self, S) -> float:
        self.count += 1
        if self.count > self.budget:
            raise EnumerationBudgetError(
                f"independent-set walk exceeds budget {self.budget}")
        v = self.oracle.eval(S)
        if v >= self.best_val:
            ids = sorted(S)
            if v > self.best_val or ids < self._best_ids:
                self.best_set, self.best_val, self._best_ids = S, v, ids
        return v

    def run(self, old: list, new: list, from_empty: bool) -> None:
        """From the empty set (already evaluated) over `new`, or from each
        independent {new[i]} over old + new[i+1:]."""
        if not new:
            return
        basis: set = set()
        for e in old + new:
            if self.matroid.is_independent(basis | {e}):
                basis.add(e)
        self.rank = len(basis)
        if from_empty:
            self.descend(frozenset(), 0.0, new, 0, None)  # f(empty) is 0
            return
        for i, e in enumerate(new):
            root = frozenset((e,))
            if self.matroid.is_independent(root):
                self.descend(root, self.eval(root), old + new[i + 1:], 0, None)

    def descend(self, S, f_S, pool, start, up) -> None:
        """Walks the subtree under S; `up` maps each pool index j to
        f(pool[j] | parent of S), or is None at a root."""
        stack = [(math.inf, S, f_S, start, up)]
        while stack:
            bound, S, f_S, start, up = stack.pop()
            if len(S) >= self.rank or bound < self.best_val - self.slack():
                continue
            kids = []  # (f(c), j, c) for each independent child c
            for j in range(start, len(pool)):
                c = S | {pool[j]}
                if self.matroid.is_independent(c):
                    kids.append((self.eval(c), j, c))
            gains = {}
            for f_c, j, _ in kids:
                gain = gains[j] = f_c - f_S
                if gain < -self.slack():
                    raise InvariantError(
                        f"f is not monotone: f({sorted(S)} + {pool[j]}) is "
                        f"{-gain!r} below f({sorted(S)})")
                if up is not None and gain > up[j] + self.slack():
                    raise InvariantError(
                        f"f is not submodular: the gain of {pool[j]} is "
                        f"{gain!r} on {sorted(S)}, {up[j]!r} on a subset")
            if len(S) + 1 >= self.rank:
                continue  # the children are bases
            # the r - |c| largest later gains, ascending, for each child
            room, top, bounded = self.rank - len(S) - 1, [], []
            for f_c, j, c in reversed(kids):
                bounded.append((f_c + sum(top), f_c, -j, c))
                bisect.insort(top, max(0.0, gains[j]))
                del top[:-room]
            bounded.sort(key=lambda b: (b[1], b[2]))  # largest f(c) on top
            stack.extend((b, c, f_c, -neg_j + 1, gains)
                         for b, f_c, neg_j, c in bounded)
