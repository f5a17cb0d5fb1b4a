"""Test oracles: helpers that only the tests call.

Most are a literal or sampled restatement of something the library
computes another way (the bipartite factorization, the tree expectation,
the submodularity of an objective), or a closed form the paper states.
The rest are test conveniences: a counted oracle over a whole ground
set, a modular objective, a small shuffled-tree objective, and writers
and readers of the file formats the CLI reads and writes.

Test modules import it by name, `from oracles import ...`: pytest puts
this directory on sys.path.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from hypothesis import strategies as st

from dynsub.cardinality import NEG_MARGINAL_TOL, CardinalityState, GuessLadder
from dynsub.hard_bipartite import _g_block, fhat
from dynsub.hard_tree import ShuffledTreeInstance, random_tree_pi, tree_F_eval
from dynsub.harness import RoundRecord
from dynsub.matroid_dynamic import LPassResult
from dynsub.objectives import CoverageFunction
from dynsub.oracle import CountedOracle, InvariantError, best_of


# coverage weights from 1e16 down to 1e-16, with repeats, where a
# left-to-right sum and the exact sum round apart
SPREAD_WEIGHTS = ([1e16] + [1.0] * 4 + [10.0 ** -j for j in range(1, 17)]
                  + [3e-16] * 3)


@st.composite
def spread_coverage(draw):
    """A coverage function of 1 to 10 elements over the SPREAD_WEIGHTS
    items, each element covering 1 to 5 of them."""
    items = [f"u{j}" for j in range(len(SPREAD_WEIGHTS))]
    n = draw(st.integers(1, 10))
    covers = {e: draw(st.sets(st.sampled_from(items), min_size=1,
                              max_size=5)) for e in range(n)}
    return CoverageFunction(list(zip(items, SPREAD_WEIGHTS)), covers)


_TREE_SHAPES = [(4, (2, 1)), (2, (3, 1)), (4, (3, 1))]  # (k, arities)


def small_tree(seed: int):
    """tree_F_eval over a seeded ShuffledTreeInstance of 6 to 12
    elements at eps 0.5, as a function with a `ground`."""
    k, arities = _TREE_SHAPES[seed % len(_TREE_SHAPES)]
    inst = ShuffledTreeInstance(k=k, eps=0.5, arities=arities,
                                pi=random_tree_pi(arities, seed))
    f = lambda S: tree_F_eval(inst, S)  # noqa: E731
    f.ground = inst.ground
    return f


def counted(f) -> CountedOracle:
    """A fresh counted oracle over f's whole ground set."""
    return CountedOracle(f, f.ground)


class ModularFunction:
    """f(S) = sum of per-element weights, added in S's iteration order."""

    def __init__(self, weights):
        self.weights = {int(e): float(w) for e, w in weights.items()}
        self.ground = frozenset(self.weights)

    def __call__(self, S):
        return sum(self.weights[e] for e in S)


class Recorded:
    """f behind a callable that records every set it is asked."""

    def __init__(self, f):
        self.f, self.asked = f, []

    def __call__(self, S):
        self.asked.append(S)
        return self.f(S)


class AskTheSetEngine(CardinalityState):
    """The cardinality engine written out step by step: each marginal is
    `oracle.eval(S | {e})` on the set itself, against the cached f(S),
    and a full S is final.  Over coverage its values are the engine's
    bit for bit, since f(S) is a correctly rounded sum."""

    def _marginal(self, e) -> float:
        self.charged += 2
        m = self.oracle.eval(self._in_S | {e}) - self.f_of_S
        if m < -NEG_MARGINAL_TOL:
            raise InvariantError(f"negative marginal {m} for element {e}")
        return m

    def _file(self, e, m: float, cap: int) -> None:
        """Files e in the bucket of m, at most `cap`; drops it when cap
        is below bucket 0."""
        ell = min(int(m / self.delta) if m > 0 else 0, self.n_buckets - 1, cap)
        if ell >= 0:
            self.buckets[ell].add(e)

    def _threshold(self) -> float:
        return (self.opt_guess - self.f_of_S) / self.k - self.delta

    def _accept(self, e, m: float) -> None:
        self._in_S.add(e)
        self.f_of_S += m

    def insert(self, e) -> None:
        self.inserts += 1
        if len(self._in_S) >= self.k:
            return
        m = self._marginal(e)
        if m >= self._threshold():
            self._accept(e, m)
            self._revoke()
        else:
            self._file(e, m, self.n_buckets - 1)

    def _revoke(self) -> None:
        while len(self._in_S) < self.k:
            r = max(0, int((self.opt_guess - self.f_of_S)
                           / (self.k * self.delta)))
            ell = next((i for i in range(self.n_buckets - 1, r - 1, -1)
                        if self.buckets[i]), None)
            if ell is None:
                return
            e = min(self.buckets[ell])
            self.buckets[ell].remove(e)
            m = self._marginal(e)
            if m >= self._threshold():
                self._accept(e, m)
            else:
                self._file(e, m, ell - 1)


class FeedEveryEngine(GuessLadder):
    """The guess ladder that feeds every engine of the window each
    insert, full or not, without f({e}), and asks every engine's set at
    each extraction; `engine` makes the engines.  With `retire` set it
    recomputes LB, the largest f(S) over every engine, at each insert and
    neither makes nor feeds an engine i whose next target (1+eps)^(i+1)
    is below LB."""

    def __init__(self, oracle, k, epsilon, engine=CardinalityState,
                 retire=False):
        super().__init__(oracle, k, epsilon)
        self.engine = engine
        self.retire = retire

    def insert(self, e) -> None:
        v = self.oracle.eval({e})
        if v > self.v_max:
            self.v_max = v
            self.i_t = math.floor(math.log(v) / math.log1p(self.epsilon))
        if self.i_t is None:
            return
        lb = max((t.f_of_S for t in self.threads.values()), default=0.0)
        for i in range(self.i_t, self.i_t + self.window_length + 1):
            if self.retire and (1.0 + self.epsilon) ** (i + 1) < lb:
                continue
            if i not in self.threads:
                self.threads[i] = self.engine(self.oracle, self.k,
                                              self.epsilon,
                                              (1.0 + self.epsilon) ** i)
            self.threads[i].insert(e)

    def solution(self) -> frozenset:
        sets = [self.threads[i].solution() for i in sorted(self.threads)]
        return best_of(sets, [self.oracle.eval(S) for S in sets])


def check_extraction(algo, inner: Recorded, probe: CountedOracle,
                     sets: dict, last: dict) -> dict:
    """Runs algo.solution() over an oracle of `inner` and checks that it
    asks exactly the sets of `sets` (key -> S, in pick order) that are
    not empty and not `last`'s S under their key, each distinct set
    once, in pick order; that it picks what best_of picks over every
    set, each asked afresh through `probe`; and that a second call asks
    nothing and picks the same.  Returns `sets`, the `last` of the next
    call."""
    grown = []
    for key, S in sets.items():
        if S and S != last.get(key) and S not in grown:
            grown.append(S)
    start = len(inner.asked)
    S = algo.solution()
    assert inner.asked[start:] == grown
    values = [probe.eval(T) for T in sets.values()]
    assert S == best_of(list(sets.values()), values)
    count = algo.oracle.count
    assert algo.solution() == S and algo.oracle.count == count
    return sets


def every_pass_lpass(history: list, h: CountedOracle, M, params,
                     prev: LPassResult | None = None) -> LPassResult:
    """reference_lpass with a per-call memo keyed by the candidate set
    base | {e}, without growing sets and without the lazy bound: every
    pass walks its range and asks h and M each set it has not asked
    yet, whatever an answer over a smaller base says.  It resumes from
    `prev` the same way.  That reference_lpass asks no set twice in a
    call is test_lpass_asks_each_set_once_per_call's check, not this
    oracle's."""
    walked = len(history)
    if prev is not None and prev.history is not history:
        prev = None
    asked: dict = {}
    T: list = []
    T_set: set = set()
    t_val = 0.0
    a_star = []
    passes = []
    for level in range(1, params.L + 1):
        thresh = params.threshold(level)
        base = set(T_set)
        if prev is None:
            base_val, S_ell, start = t_val, [], 0
        else:
            base_val, S_ell = prev.passes[level - 1]
            S_ell = list(S_ell)
            base.update(e for e, _ in S_ell)
            start = prev.walked
        for i in range(start, walked):
            e = history[i]
            if e in base:
                continue
            cand = frozenset(base | {e})
            if cand not in asked:
                asked[cand] = (h.eval(cand) if M.is_independent(cand)
                               else None)
            if asked[cand] is None:
                continue
            m = asked[cand] - base_val
            if m >= thresh:
                S_ell.append((e, m))
                base.add(e)
                base_val += m
        passes.append((base_val, tuple(S_ell)))
        pass_val = base_val - t_val
        a_ell = int(pass_val / params.delta) if pass_val > 0 else 0
        a_star.append(a_ell)
        if a_ell > 0:
            c = a_ell * params.delta
            for e, m in S_ell:
                T.append(e)
                T_set.add(e)
                t_val += m
                c -= m
                if c <= 0.0:
                    break
            else:
                raise InvariantError("pass value failed to exhaust its own budget")
        if prev is not None and a_ell != prev.a_star[level - 1]:
            prev = None
    if sum(a_star) > params.R:
        raise InvariantError(
            f"branch tuple {a_star} leaves the tuple space (sum > R={params.R}); "
            "opt is likely mis-scaled")
    return LPassResult(a_star=tuple(a_star), T=frozenset(T), value=t_val,
                       history=history, walked=walked, passes=tuple(passes),
                       asked={}, keys=(None,) * params.L)


def plain_cardinality_opt(f, ground, k):
    """(best set, value) over every subset of `ground` of size <= k,
    each evaluated once: the exact maximum, ties to the smallest sorted
    id tuple."""
    best_ids, best_val = (), f(frozenset())
    ids = sorted(ground)
    for j in range(1, min(k, len(ids)) + 1):
        for c in itertools.combinations(ids, j):
            v = f(frozenset(c))
            if v > best_val or (v == best_val and c < best_ids):
                best_ids, best_val = c, v
    return frozenset(best_ids), best_val


def dump_coverage(f, path) -> None:
    """Write a CoverageFunction in the format CoverageFunction.load reads."""
    with open(path, "w") as fh:
        fh.write(f"coverage {len(f.covers)} {len(f.universe)}\n")
        for item, w in f.universe:
            fh.write(f"w {item} {w!r}\n")
        for e in sorted(f.covers):
            fh.write(f"e {e} : " + " ".join(sorted(f.covers[e])) + "\n")


def dump_partition(M, path) -> None:
    """Write a PartitionMatroid in the format PartitionMatroid.load reads."""
    with open(path, "w") as fh:
        fh.write("partition\n")
        for b in sorted(M.caps, key=str):
            fh.write(f"b {b} cap {M.caps[b]}\n")
        for e in sorted(M.blocks):
            fh.write(f"e {e} block {M.blocks[e]}\n")


def load_report_json(path) -> list[RoundRecord]:
    """The records of a `--format json` report."""
    with open(path) as fh:
        return [RoundRecord(**d) for d in json.load(fh)]


@dataclass
class PropertyReport:
    trials: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_submodular_monotone(oracle, trials: int, seed: int,
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


def analytic_F(part_alpha: float, beta: float, lam: float) -> float:
    if not (0 < part_alpha < 1 and 0 < beta < 1 and 0 <= lam <= 1):
        raise ValueError("arguments must be in (0, 1)")
    e1 = math.exp(-(1.0 - lam) * beta / part_alpha)
    e2 = math.exp(-lam / (1.0 - part_alpha))
    return beta * (1.0 - e1) + (1.0 - beta) * (1.0 - e1 * e2)


def analytic_Q(part_alpha: float, beta: float) -> float:
    """max of analytic_F over lambda in [0, 1], in closed form.

    With a = beta/alpha and c = 1/(1-alpha),
    F = 1 - beta e^{a(lam-1)} - (1-beta) e^{a(lam-1) - c lam} is a sum of
    concave terms, so its maximizer is the stationary point
    ln((1-beta)(c-a)/(beta a))/c clamped to [0, 1] (0 when c <= a).
    """
    a, c = beta / part_alpha, 1.0 / (1.0 - part_alpha)
    ratio = (1.0 - beta) * (c - a) / (beta * a)
    lam = min(max(math.log(ratio) / c, 0.0), 1.0) if ratio > 0 else 0.0
    return analytic_F(part_alpha, beta, lam)


def tree_sample(inst, seed: int) -> frozenset:
    """One draw of the stopping antichain R of a ShuffledTreeInstance
    (full-tree walk)."""
    rng = random.Random(seed)
    p = inst.tab["p"]
    R = []
    stack = [()]
    while stack:
        u = stack.pop()
        d = len(u)
        if d >= 1 and rng.random() < p[d]:
            R.append(u)
            continue
        if d < inst.L:
            for i in range(inst.arities[d], 0, -1):
                stack.append(u + (i,))
    return frozenset(R)


# The bipartite per-index factorization written literally on the load
# vectors of `inst.loads`, one block-function call per block and index.
def literal_value(inst, S, block_fn, pi=None, sort=False):
    S = frozenset(S)
    pi = inst.pi if pi is None else pi
    y, z = inst.loads(S)
    beta = inst.beta
    fac = [beta * (1.0 - block_fn(y[pi[i]])) +
           (1.0 - beta) * (1.0 - block_fn(z[i]))
           for i in range(1, inst.m + 1)]
    prod = 1.0
    for t in (sorted(fac) if sort else fac):
        prod *= t
    return min(1.0 - prod + inst.eps * len(S) / inst.k, 1.0)


def literal_bipartite(inst, S):
    """bipartite_eval, factors multiplied in index order."""
    return literal_value(inst, S, lambda v: fhat(v, inst.sym))


def literal_symmetric(inst, S, pi=None):
    """The pairing-oblivious variant: block values through the
    symmetrized g only, under pairing `pi` (the instance's by default).
    The factors are multiplied in sorted order, so two pairings that
    give the same factor multiset give bit-identical values."""
    return literal_value(inst, S, lambda v: _g_block(v, inst.w), pi=pi,
                         sort=True)
