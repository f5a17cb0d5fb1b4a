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
from dynsub.objectives import (multilinear_exact, multilinear_shifts,
                               plus_direction)
from dynsub.oracle import (SETTLE_MARGIN, CountedOracle,
                           EnumerationBudgetError, InvariantError, best_of,
                           brute_force_opt)

BRANCH_BUDGET = 10 ** 6  # most branch tuples exhaustive mode enumerates
MODES = ("guided", "exhaustive")  # of MatroidHalf


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

    One walk over `history`, a list its owner only appends to: the
    active level ell* tests history[pos] and moves pos on.  It accepts
    an element that is feasible and whose h-marginal clears the level
    threshold; acceptance spends the level budget.  When a budget runs
    out the walk moves to the next funded level with pos = 0, so that
    level tests the elements taken so far before it takes new ones.
    feed() walks to the end of the history; `fed` counts the elements
    any level has reached.  S is the `members` of a growing set of h
    (CountedOracle.growing), and each marginal is one counted query
    h(S + {e}) through it, `h.eval(G, e)`.  `_log` holds (i, m,
    charged) per accept, flat: history[i] was taken with marginal m,
    `charged` counted after it.

    `asked`, a table of answers of the shape reference_lpass keeps (see
    `_known`), files each h(S + {e}) the walk asks.  A later test of e
    takes the value of an answer over S itself, or rejects e with no h
    query where an answer over a subset of S settles it: a level that
    walks again from position 0 meets elements an earlier level asked
    over a smaller S.  M is asked first, so the table holds no refusal,
    and `charged` stays the paper's count: 2 per test that M accepts,
    asked or settled.  A state built without a table, as exhaustive
    mode builds its states, asks every marginal.
    """

    # class defaults, so a state without a table stores neither
    asked: dict | None = None
    _key = None  # frozenset(S) as the table last filed an answer over it

    def __init__(self, h: CountedOracle, M, params: BranchParams, a,
                 history: list, asked: dict | None = None):
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
        self.ell = _next_funded(self.c, 0)
        self._S = h.growing()
        self.h_of_S = 0.0
        self.history = history
        self.pos = 0
        self.fed = 0
        self.terminated = self.ell is None  # no funded level at all
        self.charged = 0
        self._log = ()
        if asked is not None:
            self.asked = asked

    def _accept(self, i: int, m: float) -> bool:
        """Takes history[i] with marginal m at the active level; returns
        True if that exhausts the level budget, and then moves to the
        next funded level, or terminates."""
        self._S.add(self.history[i])
        self.h_of_S += m
        self.c[self.ell - 1] -= m
        self._log += (i, m, self.charged)
        if self.c[self.ell - 1] > 0.0:
            return False
        nxt = _next_funded(self.c, self.ell)
        self.terminated = nxt is None
        if nxt is not None:
            self.ell, self.pos = nxt, 0
        return True

    def feed(self) -> None:
        """Walks the history to its end, or to the element that
        terminates the branch."""
        S, history = self._S, self.history
        while not self.terminated and self.pos < len(history):
            i = self.pos
            self.pos = i + 1
            self.fed = max(self.fed, self.pos)
            e = history[i]
            if e in S.members or not self.M.is_independent(S.members | {e}):
                continue
            self.charged += 2
            thresh = self.params.threshold(self.ell)
            asked = self.asked
            v = _known(() if asked is None else asked.get(e, ()), S.members,
                       thresh - SETTLE_MARGIN * self.h_of_S)
            if v is None:
                v = self.h.eval(S, e)
                if asked is not None:
                    # S only grows, so a key of S's size is S
                    if self._key is None or len(self._key) != len(S.members):
                        self._key = frozenset(S.members)
                    _file(asked, e, self._key, v, self.h_of_S)
            m = v - self.h_of_S
            if m >= thresh:
                self._accept(i, m)

    def _rewind(self, old: "PruneGreedyState") -> None:
        """Takes the accepts of `old`, a state over the same history at
        another tuple, with no query, while this tuple makes the same
        moves: the same active level, the same exhaustion and the same
        next funded level.  The tests between two accepts depend only on
        S and the level, so they are old's too.  Old's levels are
        replayed from old.a and the logged marginals."""
        c_old = [v * self.params.delta for v in old.a]
        if _next_funded(c_old, 0) != self.ell:
            return
        log = old._log
        for k in range(0, len(log), 3):
            i, m, self.charged = log[k:k + 3]
            ell = self.ell
            self.pos = i + 1
            self.fed = max(self.fed, self.pos)
            c_old[ell - 1] -= m
            old_done = c_old[ell - 1] <= 0.0
            if self._accept(i, m) != old_done:
                return
            if old_done and _next_funded(c_old, ell) != (
                    None if self.terminated else self.ell):
                return
        self.pos, self.fed, self.charged = old.pos, old.fed, old.charged

    def solution(self) -> frozenset:
        return frozenset(self._S.members)

    def check_budget_semantics(self) -> None:
        """The level invariants, and the per-branch query ceiling
        4*L*inserts + 2: each of at most L levels tests each of the `fed`
        elements at most once, at 2 charged queries a test, so the walk
        charges at most 2*L*inserts."""
        ceiling = 4 * self.params.L * self.fed + 2
        if self.charged > ceiling:
            raise InvariantError(f"charged {self.charged} queries, over the "
                                 f"ceiling 4*L*inserts + 2 = {ceiling}")
        if self.terminated:
            bad = [i + 1 for i, b in enumerate(self.c) if b > 0.0 and self.a[i] > 0]
            if self.ell is not None and bad:
                raise InvariantError(f"terminated with funded levels {bad}")
        elif self.ell is not None:
            if self.c[self.ell - 1] <= 0.0:
                raise InvariantError("active level has no budget")
            if any(b > 0.0 for b in self.c[:self.ell - 1]):
                raise InvariantError("level below active still funded")


def _next_funded(c: list, ell: int) -> int | None:
    """The first level above `ell` whose budget in `c` is positive."""
    return next((i + 1 for i in range(ell, len(c)) if c[i] > 0.0), None)


def _known(answers: tuple, base, lim: float) -> float | None:
    """What e's `answers` tell of h(base + {e}), or None if they cannot
    tell.  An answer is (frozenset(B), h(B + {e}) or -inf where M refuses
    B + {e}, bound), newest first, its bound e's marginal over B plus
    SETTLE_MARGIN * h(B + {e}).  One over a subset B of base whose bound
    is below `lim`, the threshold less SETTLE_MARGIN * h(base), settles
    e: -inf.  Else one over base itself gives its value.  For h monotone
    submodular, e gains no more over base than over B, and M refuses
    base + {e} if it refuses B + {e}: the lazy greedy of Minoux (1978)."""
    for B, v, bound in answers:
        if bound < lim and B <= base:
            return -math.inf
        if B == base:
            return v
    return None


def _file(asked: dict, e, key: frozenset, v: float, base_val: float) -> None:
    """Files v = h(key + {e}) as e's newest answer, base_val being h(key)."""
    asked[e] = ((key, v, v - base_val + SETTLE_MARGIN * v), *asked.get(e, ()))


@dataclass
class LPassResult:
    """The branch tuple `reference_lpass` certifies for the first
    `walked` elements of `history`, and what a call over more of that
    list resumes from: the passes, and the table of answers, which a
    resumed call shares and adds to."""
    a_star: tuple
    T: frozenset
    value: float  # h(T) accumulated the pruned-greedy way
    history: list  # the list the passes walked, not a copy of it
    walked: int  # how many of its elements they walked
    # per pass ell: (base_val, S_ell), S_ell as ((element, marginal), ...)
    passes: tuple
    asked: dict  # e -> its answers (see _known), shared with later calls
    keys: tuple  # per pass, frozenset of its final base if `asked` has it


def reference_lpass(history: list, h: CountedOracle, M, params: BranchParams,
                    prev: LPassResult | None = None) -> LPassResult:
    """Offline L-pass greedy with per-pass floor-rounded pruning.

    Pass ell collects S_ell by thresholding against the growing base
    T_1..T_{ell-1} + S_ell-so-far; T_ell is the shortest prefix of
    S_ell whose accumulated marginal mass exhausts a*_ell * delta,
    mirroring the online budget arithmetic operation for operation.

    `prev`, the result of an earlier call over this same list, which
    has only grown since, makes the call walk only the new elements in
    each pass ell whose a*_1 .. a*_{ell-1} are unchanged: T_1 ..
    T_{ell-1}, and so pass ell's scan up to there, are then those of
    `prev`.  The passes after the first changed a*_ell walk the whole
    list again.  A `prev` over another list is ignored.  The result,
    and any InvariantError, is that of a call without `prev`; only the
    number of queries differs.  prev's a_star, T, value, passes and
    `walked` are not changed, and its table only gains valid answers.

    h must be monotone submodular.  The call keeps each e's answers,
    h(B + {e}) per base B, or -inf where M refuses B + {e}, in a table
    (see `_known`) that a call resuming from `prev` takes over, shared,
    not copied, even where a* changes: an answer depends only on h, M
    and the base.  One over the base itself is reused; one over a
    subset B of it settles e when the marginal over B plus
    SETTLE_MARGIN * (h(B + {e}) + h(base)) is below the threshold (the
    lazy greedy of Minoux, across calls).  Each base is filed under one
    frozenset, which `keys` hands to the next call.  Within a pass no
    two (base, e) name one set, as the base only grows in walk order;
    that no set is asked twice in a run is a tested invariant, not an
    assumption.  A pass asks h(base + {e}) through a growing set whose
    members are its base (CountedOracle.growing), made at its first ask
    that M accepts.
    """
    walked = len(history)
    if prev is not None and prev.history is not history:
        prev = None
    asked = {} if prev is None else prev.asked  # e -> answers, see _known
    T: list[int] = []
    T_set: set = set()
    t_val = 0.0
    a_star = []
    passes = []
    keys = []
    for level in range(1, params.L + 1):
        thresh = params.threshold(level)
        # built by the adds a fresh call makes, so the sets made from it
        # iterate in the same order and order-sensitive sums agree
        base = set(T_set)
        G = key = None  # a growing set at the base, and frozenset(base)
        if prev is None:
            base_val, S_ell, start = t_val, [], 0
        else:
            base_val, S_ell = prev.passes[level - 1]
            S_ell = list(S_ell)
            for e, _ in S_ell:
                base.add(e)
            start, key = prev.walked, prev.keys[level - 1]
        lim = thresh - SETTLE_MARGIN * base_val  # a bound below it settles e
        for i in range(start, walked):
            e = history[i]
            if e in base:
                continue
            v = _known(asked.get(e, ()), base, lim)
            if v is None:
                v = -math.inf  # M refuses base + {e}: no pass takes e
                if M.is_independent(base | {e}):
                    G = h.growing(base) if G is None else G
                    v = h.eval(G, e)
                key = frozenset(base) if key is None else key
                _file(asked, e, key, v, base_val)
            m = v - base_val
            if m >= thresh:
                S_ell.append((e, m))
                if G is None:
                    base.add(e)
                else:
                    G.add(e)
                base_val += m
                lim = thresh - SETTLE_MARGIN * base_val
                key = None
        passes.append((base_val, tuple(S_ell)))
        keys.append(key)
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
        if prev is not None and a_ell != prev.a_star[level - 1]:
            prev = None  # T_ell moved, so the later passes start anew
    if sum(a_star) > params.R:
        raise InvariantError(
            f"branch tuple {a_star} leaves the tuple space (sum > R={params.R}); "
            "opt is likely mis-scaled")
    return LPassResult(a_star=tuple(a_star), T=frozenset(T), value=t_val,
                       history=history, walked=walked, passes=tuple(passes),
                       asked=asked, keys=tuple(keys))


def run_prune_greedy(history: list, h: CountedOracle, M, params: BranchParams,
                     a, prev: PruneGreedyState | None = None
                     ) -> PruneGreedyState:
    """The pruned greedy at branch tuple `a` over the list `history`.

    `prev`, a state an earlier call returned over this same list, which
    has only grown since, is fed the new elements in place and returned
    when its branch tuple is `a`; a terminated one takes none.  At
    another tuple, the new state rewinds `prev` (PruneGreedyState._rewind):
    it copies prev's accepts up to the first move the two tuples make
    differently, with no query, and queries only from there.  It shares
    prev's table of answers, so it also takes what prev asked over its
    S or a subset of it; prev is not changed, but for that table, which
    only gains valid answers.  Without `prev` the state starts a table
    of its own.  A `prev` over another list is ignored.  After a call
    that raised, pass a state from before it or None.
    """
    if prev is not None and prev.history is not history:
        prev = None
    state = prev
    if prev is None or prev.a != tuple(a):
        state = PruneGreedyState(h, M, params, a, history,
                                 asked={} if prev is None else prev.asked)
        if prev is not None:
            state._rewind(prev)
    state.feed()
    return state


class MatroidHalf:
    """The (1/2 - eps) runner over an insertion-only stream, resumable
    per insert.

    Guided mode runs the pruned greedy at the branch tuple the
    reference L-pass certifies for the history.  Each solution()
    resumes both from the previous one: the history only grows, so the
    L-pass walks only the new elements until some a*_ell changes, and
    the pruned greedy is fed only the new elements until a* changes;
    then the new replay rewinds the old one to the last accept both
    tuples make alike and queries from there.  Each keeps one table of
    answers for the whole run, L-pass and replay apart, and asks only
    what its table neither holds nor settles (the replay still makes
    its M tests).  insert makes no query.
    Exhaustive mode keeps one pruned-greedy state per branch tuple and
    reports the best by value.  `history` is the only list of the
    stream the runner keeps: each branch and L-pass reads it and counts
    how far.
    """

    def __init__(self, oracle: CountedOracle, M, params: BranchParams,
                 mode: str = "guided"):
        if mode not in MODES:
            raise ValueError(f"bad mode {mode!r}: one of {MODES}")
        self.oracle = oracle
        self.M = M
        self.params = params
        self.mode = mode
        self.history: list[int] = []
        self.states = ([PruneGreedyState(oracle, M, params, a, self.history)
                        for a in enumerate_branches(params.L, params.R)]
                       if mode == "exhaustive" else [])
        self._lpass: LPassResult | None = None  # last L-pass that returned
        self._replay: PruneGreedyState | None = None

    def insert(self, e) -> None:
        self.history.append(e)
        for st in self.states:
            st.feed()

    def solution(self) -> frozenset:
        if self.mode == "guided":
            self._lpass = reference_lpass(self.history, self.oracle, self.M,
                                          self.params, prev=self._lpass)
            # the replay is fed in place, so it is dropped if feeding raises
            replay, self._replay = self._replay, None
            self._replay = run_prune_greedy(self.history, self.oracle, self.M,
                                            self.params, self._lpass.a_star,
                                            prev=replay)
            return self._replay.solution()
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
    S_tau/m into x.  F(x) is evaluated exactly (see multilinear_exact),
    for a coverage f as a correctly rounded sum; there g patches an exact
    expansion of that sum with only the terms S changes, so g(S) is never
    negative, and the L-pass and the pruned greedy ask g(S + e) through
    growing sets at the cost of what e covers (see multilinear_shifts).
    The exact offline optimum picks each stage guess.  It comes from
    brute_force_opt, whose branch and bound under M evaluates a small
    part of the independent sets and needs f monotone submodular.  Each
    stage runs guided MatroidHalf over the elements, rather than
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
        # the oracle subtracts the value at the empty set, which is F(x)
        g = CountedOracle(multilinear_shifts(f, x, 1.0 / m), ground)
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
