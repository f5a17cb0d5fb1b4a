"""Insertion-only maximization under a matroid constraint.

Three layers:

* a pruned multi-level threshold greedy whose per-level accepted mass is
  truncated to integer budgets a_ell * delta, making the whole
  trajectory enumerable over branch tuples a;
* an offline L-pass reference greedy that certifies which branch tuple
  reproduces the pruned trajectory (used both as a test oracle and as
  the "guided" runner);
* a stage-wise amplifier that runs the pruned greedy against residual
  multilinear gains and swap-rounds the resulting convex combination.

Float discipline: the pruned greedy and the reference greedy accumulate
set values through the identical sequence of additions/subtractions of
the same marginals, so branch parity can be asserted with == rather
than a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dynsub.matroids import ConvexCombo, swap_round
from dynsub.objectives import multilinear_exact, plus_direction
from dynsub.oracle import (CountedOracle, EnumerationBudgetError,
                           InvariantError, best_of, brute_force_opt)

BRANCH_BUDGET = 10 ** 6  # most branch tuples exhaustive mode enumerates


@dataclass(frozen=True)
class BranchParams:
    L: int
    R: int
    delta: float
    opt: float
    epsilon: float

    @classmethod
    def standard(cls, k: int, epsilon: float, opt: float) -> "BranchParams":
        if not (k >= 1 and 0.0 < epsilon < 1.0 and 0.0 < opt < math.inf):
            raise ValueError(f"branch parameters need k >= 1, 0 < epsilon < 1 "
                             f"and 0 < opt < inf, got k={k}, "
                             f"epsilon={epsilon}, opt={opt}")
        lg = math.log(k / epsilon)
        L = math.ceil(lg / epsilon)
        R = math.ceil(2.0 * lg / epsilon ** 2)
        return cls(L=L, R=R, delta=epsilon ** 2 * opt / lg, opt=opt,
                   epsilon=epsilon)

    def threshold(self, level: int) -> float:
        # level is 1-based; level 1 demands the full per-element target
        return (1.0 + self.epsilon) ** (-(level - 1)) * self.opt


def branch_count(L: int, R: int) -> int:
    """Number of L-tuples of non-negative integers summing to at most R."""
    return math.comb(R + L, L)


def enumerate_branches(L: int, R: int):
    """Lexicographic stream of all L-tuples of non-negative integers
    summing to at most R."""
    total = branch_count(L, R)
    if total > BRANCH_BUDGET:
        raise EnumerationBudgetError(
            f"{total} branch tuples exceed budget {BRANCH_BUDGET}; "
            "use guided mode")

    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for v in range(remaining + 1):
            yield from rec(prefix + [v], remaining - v, slots - 1)

    return rec([], R, L)


class PruneGreedyState:
    """One branch of the pruned threshold greedy, resumable per insert.

    Accepts an element at the active level ell* when it is feasible and
    its h-marginal clears the level threshold; acceptance spends the
    level budget.  When a budget runs out the state advances to the
    next funded level and rescans its full history.
    """

    def __init__(self, h: CountedOracle, M, params: BranchParams, a):
        a = tuple(int(v) for v in a)
        if len(a) != params.L or any(v < 0 for v in a):
            raise ValueError("branch tuple must be L non-negative integers")
        if sum(a) > params.R:
            raise ValueError("branch tuple exceeds total budget R")
        self.h = h
        self.M = M
        self.params = params
        self.a = a
        self.c = [v * params.delta for v in a]
        self.ell = next((i + 1 for i, b in enumerate(self.c) if b > 0.0), None)
        self._in_S: set = set()
        self.h_of_S = 0.0
        self.history: list[int] = []
        self.terminated = False
        self.charged = 0

    def _marginal(self, e) -> float:
        self.charged += 2
        return self.h.eval(self._in_S | {e}) - self.h_of_S

    def _try_accept(self, e) -> bool:
        """Test e at the active level; returns True if the level budget
        was newly exhausted."""
        if e in self._in_S:
            return False
        if not self.M.is_independent(self._in_S | {e}):
            return False
        m = self._marginal(e)
        if m < self.params.threshold(self.ell):
            return False
        self._in_S.add(e)
        self.h_of_S += m
        self.c[self.ell - 1] -= m
        return self.c[self.ell - 1] <= 0.0

    def _revoke(self) -> None:
        while True:
            nxt = next((i + 1 for i in range(self.ell, self.params.L)
                        if self.c[i] > 0.0), None)
            if nxt is None:
                self.terminated = True
                return
            self.ell = nxt
            exhausted = False
            for e in list(self.history):
                if self._try_accept(e):
                    exhausted = True
                    break
            if not exhausted:
                return

    def insert(self, e) -> None:
        if self.terminated:
            return
        if self.ell is None:  # no funded level at all
            self.terminated = True
            return
        self.history.append(e)
        if self._try_accept(e):
            self._revoke()

    def solution(self) -> frozenset:
        return frozenset(self._in_S)

    def check_budget_semantics(self) -> None:
        if self.terminated:
            bad = [i + 1 for i, b in enumerate(self.c) if b > 0.0 and self.a[i] > 0]
            if self.ell is not None and bad:
                raise InvariantError(f"terminated with funded levels {bad}")
        elif self.ell is not None:
            if self.c[self.ell - 1] <= 0.0:
                raise InvariantError("active level has no budget")
            if any(b > 0.0 for b in self.c[:self.ell - 1]):
                raise InvariantError("level below active still funded")


@dataclass
class LPassResult:
    a_star: tuple
    T: frozenset
    value: float  # h(T) accumulated the pruned-greedy way


def reference_lpass(prefix, h: CountedOracle, M,
                    params: BranchParams) -> LPassResult:
    """Offline L-pass greedy with per-pass floor-rounded pruning.

    Pass ell collects S_ell by thresholding against the growing base
    T_1..T_{ell-1} + S_ell-so-far; T_ell is the shortest prefix of
    S_ell whose accumulated marginal mass exhausts a*_ell * delta,
    mirroring the online budget arithmetic operation for operation.
    """
    prefix = list(prefix)
    T: list[int] = []
    T_set: set = set()
    t_val = 0.0
    a_star = []
    for level in range(1, params.L + 1):
        thresh = params.threshold(level)
        S_ell: list[tuple[int, float]] = []  # (element, accepted marginal)
        base = set(T_set)
        base_val = t_val
        for e in prefix:
            if e in base:
                continue
            if not M.is_independent(base | {e}):
                continue
            m = h.eval(base | {e}) - base_val
            if m >= thresh:
                S_ell.append((e, m))
                base.add(e)
                base_val += m
        pass_val = base_val - t_val
        a_ell = int(pass_val / params.delta) if pass_val > 0 else 0
        a_star.append(a_ell)
        if a_ell > 0:
            c = a_ell * params.delta
            for e, m in S_ell:
                T.append(e)
                T_set.add(e)
                t_val += m  # summed as PruneGreedyState sums h_of_S
                c -= m
                if c <= 0.0:
                    break
            else:
                raise InvariantError("pass value failed to exhaust its own budget")
    if sum(a_star) > params.R:
        raise InvariantError(
            f"branch tuple {a_star} leaves the tuple space (sum > R={params.R}); "
            "opt is likely mis-scaled")
    return LPassResult(a_star=tuple(a_star), T=frozenset(T), value=t_val)


def run_prune_greedy(prefix, h: CountedOracle, M, params: BranchParams,
                     a) -> PruneGreedyState:
    state = PruneGreedyState(h, M, params, a)
    for e in prefix:
        if state.terminated:
            break
        state.insert(e)
    return state


class MatroidHalf:
    """The (1/2 - eps) runner over an insertion-only stream, resumable
    per insert.

    Guided mode replays the history through the pruned greedy at the
    branch tuple the reference L-pass certifies for it; exhaustive mode
    keeps one pruned-greedy state per branch tuple and reports the best
    by value.
    """

    def __init__(self, oracle: CountedOracle, M, params: BranchParams,
                 mode: str = "guided"):
        if mode not in ("guided", "exhaustive"):
            raise ValueError(f"bad mode {mode!r}")
        self.oracle = oracle
        self.M = M
        self.params = params
        self.mode = mode
        self.history: list[int] = []
        self.states = ([PruneGreedyState(oracle, M, params, a)
                        for a in enumerate_branches(params.L, params.R)]
                       if mode == "exhaustive" else [])

    def insert(self, e) -> None:
        self.history.append(e)
        for st in self.states:
            st.insert(e)

    def solution(self) -> frozenset:
        if self.mode == "guided":
            ref = reference_lpass(self.history, self.oracle, self.M,
                                  self.params)
            return run_prune_greedy(self.history, self.oracle, self.M,
                                    self.params, ref.a_star).solution()
        return best_of(self.oracle, (st.solution() for st in self.states))


@dataclass
class AmplifierConfig:
    m: int  # number of stages
    epsilon: float

    def guess_depth(self) -> int:
        return math.ceil(4.0 * math.log(1.0 / self.epsilon) / self.epsilon)


@dataclass
class AmplifiedResult:
    x: dict
    stage_sets: list
    stage_guesses: list
    rounded: frozenset
    value: float  # exact multilinear at x


def amplified_run(elements, M, f, cfg: AmplifierConfig, k: int,
                  seed: int = 0) -> AmplifiedResult:
    """Stage-wise residual-gain amplification with swap rounding.

    Each stage tau maximizes g(S) = F(x + S/m) - F(x) with the pruned
    greedy at a geometric guess of the residual optimum, then commits
    S_tau/m into x.  F(x) is evaluated exactly (see multilinear_exact).
    The offline optimum is brute-forced to pick each stage guess, and
    each stage runs guided MatroidHalf over the elements, rather than
    enumerating the guess grid and the branch tuples.
    """
    elements = list(elements)
    ground = frozenset(elements)
    opt_set, opt = brute_force_opt(CountedOracle(f, ground), ground=ground,
                                   matroid=M)
    if opt <= 0:
        return AmplifiedResult(x={}, stage_sets=[], stage_guesses=[],
                               rounded=frozenset(), value=0.0)

    m = cfg.m
    depth = cfg.guess_depth()
    x: dict = {}
    stage_sets, stage_guesses = [], []
    for _tau in range(m):
        base_F = multilinear_exact(f, x)

        def g_inner(S, _x=dict(x), _base=base_F):
            return multilinear_exact(f, plus_direction(_x, S, 1.0 / m)) - _base

        g = CountedOracle(g_inner, ground)
        v = g.eval(opt_set)
        d_tau = 0.0
        for j in range(depth + 1):
            cand = (1.0 + cfg.epsilon) ** (-j) * opt
            if cand <= v:
                d_tau = cand
                break
        stage_guesses.append(d_tau)
        if d_tau <= 0.0:
            stage_sets.append(frozenset())
            continue
        half = MatroidHalf(g, M, BranchParams.standard(k, cfg.epsilon, d_tau))
        for e in elements:
            half.insert(e)
        S_tau = half.solution()
        stage_sets.append(S_tau)
        x = plus_direction(x, S_tau, 1.0 / m) if S_tau else x

    parts = [(1.0 / m, S) for S in stage_sets]
    combo = ConvexCombo(parts)
    rounded = swap_round(M, combo, seed=seed)
    return AmplifiedResult(x=x, stage_sets=stage_sets,
                           stage_guesses=stage_guesses, rounded=rounded,
                           value=multilinear_exact(f, x))
