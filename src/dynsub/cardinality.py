"""Insertion-only maximization under a cardinality constraint.

A fixed-target engine keeps a solution S plus lazy buckets of deferred
elements, re-testing bucketed elements only when the residual target
drops.  A guess ladder runs a window of engines with geometrically
spaced targets so no prior estimate of the optimum is needed.
"""

from __future__ import annotations

import math

from dynsub.oracle import (SETTLE_MARGIN, CountedOracle, InvariantError,
                           best_of_growing)

NEG_MARGINAL_TOL = 1e-9
# cap on the bucket sets one run may hold, checked before any is built:
# an empty set takes about 216 bytes, so the cap is about 220 MB of them
MAX_BUCKETS = 1_000_000


def check_bucket_count(engines: int, epsilon: float) -> None:
    """Refuses `engines` engines of floor(1/eps)+1 buckets each when
    their bucket sets would exceed MAX_BUCKETS."""
    per_engine = int(1.0 / epsilon) + 1
    if engines * per_engine > MAX_BUCKETS:
        raise ValueError(f"{engines} engine(s) of {per_engine} buckets at "
                         f"epsilon {epsilon} make {engines * per_engine:,} "
                         f"bucket sets, over the cap of {MAX_BUCKETS:,}")


def check_k_epsilon(k: int, epsilon: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")


class CardinalityState:
    """Fixed-target engine: maintains S with f(S) >= (1-1/e-eps)*target
    once the stream's true optimum reaches the target.

    A marginal it asks is one counted query f(S + {e}), `oracle.eval(S, e)`
    on a GrowingSet of the oracle (CountedOracle.growing): over coverage
    it costs what e covers and gives the float f(S | {e}) gives, bit for
    bit; over any other function it asks the set S | {e}.  Given v =
    f({e}), a fresh test asks nothing when S is empty, as m is then v, or
    when v plus a margin scaled to max(f(S), v) is below both delta and
    the threshold, as m <= v files e in bucket 0: both rules need f
    monotone submodular, and a settled m is charged but not checked for
    a negative value.  A GuessLadder passes `answers`, a table of the
    f(S + {x}) asked in one insert, which the engines fed that insert
    share: engines whose S is equal as a set ask f(S + {e}) once, and
    each takes its own marginal, threshold, bucket and negative-marginal
    check from the shared answer, still charged as two.  That assumes f
    is a set function, so equal sets get one answer, as the coverage
    sums (math.fsum) and the hard objectives (keyed by sorted ids) do.
    An engine fed alone gets no table.  Once |S| = k, S is final: the
    growing set is dropped, and a later insert is counted in `inserts`
    but makes no query and files nothing.  A GuessLadder stops feeding
    an engine once its S is full or it retires the engine, so there
    `inserts` counts the elements the engine was fed.  Query accounting
    uses the two-per-marginal charging convention; `charged` never
    exceeds 2*(floor(1/eps)+2) per insert counted.  Each element is
    inserted at most once: a Stream refuses a repeat, and the engine
    keeps no set to check it again.
    """

    def __init__(self, oracle: CountedOracle, k: int, epsilon: float,
                 opt_guess: float):
        check_k_epsilon(k, epsilon)
        if not 0.0 < opt_guess < math.inf:
            raise ValueError(f"opt_guess must be positive and finite, "
                             f"got {opt_guess}")
        check_bucket_count(1, epsilon)
        self.oracle = oracle
        self.k = k
        self.epsilon = epsilon
        self.opt_guess = opt_guess
        self.delta = epsilon * opt_guess / k
        self.n_buckets = int(1.0 / epsilon) + 1  # indices 0 .. floor(1/eps)
        self.buckets: list[set] = [set() for _ in range(self.n_buckets)]
        self._S = oracle.growing()  # None once S is full
        self._in_S: set = self._S.members  # S itself, which outlives it
        self._key: frozenset | None = None  # frozenset(S), built when asked
        self.f_of_S = 0.0
        # (opt - f(S))/k - delta, and the bound below which f({e}) settles
        self._accept_at = opt_guess / k - self.delta
        self._settle_below = min(self.delta, self._accept_at)
        self.charged = 0
        self.inserts = 0

    def insert(self, e, v: float | None = None,
               answers: dict | None = None) -> None:
        """Tests e against the threshold (opt - f(S))/k - delta, and files
        it in the bucket of its marginal if S does not take it.  Once S
        takes an element, retests bucketed elements, smallest id of the
        top bucket first, while S has room and a bucket at or above the
        residual's index r holds one.  A failed retest is filed below the
        bucket it came from, and dropped if that was bucket 0.  `v` is
        f({e}) where the caller has asked it."""
        self.inserts += 1
        S = self._S
        if S is None:  # a full S is final
            return
        cap = self.n_buckets - 1  # the highest bucket e may be filed in
        fresh, fed = True, e
        while True:
            # one raw eval of f(S + {e}) against the cached f(S); charged
            # as two, also where f({e}) stands in for it
            self.charged += 2
            f_of_S = self.f_of_S
            threshold = self._accept_at
            if (v is not None and v + SETTLE_MARGIN * (
                    f_of_S if f_of_S > v else v) < self._settle_below
                    and self._in_S):
                self.buckets[0].add(e)  # m <= f({e}) = v
                return
            if v is not None and not self._in_S:
                m = v - f_of_S
            elif answers is None:
                m = self.oracle.eval(S, e) - f_of_S
            else:
                # each set asked in one insert holds the element fed, so
                # the table keys it by the rest: S on the fresh test, and
                # S - {fed} + {e} on a retest, as S took fed
                if fresh:
                    key = self._key
                    if key is None:
                        key = self._key = frozenset(self._in_S)
                else:
                    key = frozenset(self._in_S ^ {fed, e})
                f_plus = answers.get(key)
                if f_plus is None:
                    f_plus = answers[key] = self.oracle.eval(S, e)
                m = f_plus - f_of_S
            if m < -NEG_MARGINAL_TOL:
                raise InvariantError(f"negative marginal {m} for element {e}")
            if m >= threshold:
                S.add(e)
                self.f_of_S = f_of_S = f_of_S + m
                self._key = None
                self._accept_at = threshold = (
                    (self.opt_guess - f_of_S) / self.k - self.delta)
                self._settle_below = min(self.delta, threshold)
                if len(self._in_S) == self.k:  # final: no query again
                    self._S = None
                    return
            else:
                # a marginal of opt/k or more is accepted, so the top clamp
                # only bites on a float landing on the edge; a failed
                # retest moves below its old bucket (cap), or the loop
                # could spin on a float tie, and one from bucket 0 is
                # dropped
                ell = int(m / self.delta) if m > 0 else 0
                if ell > cap:
                    ell = cap
                if ell >= 0:
                    self.buckets[ell].add(e)
                if fresh:
                    return
            fresh, v = False, None  # f({e}) serves the first test only
            r = max(0, int((self.opt_guess - self.f_of_S)
                           / (self.k * self.delta)))
            ell = next((i for i in range(self.n_buckets - 1, r - 1, -1)
                        if self.buckets[i]), None)
            if ell is None:
                return
            e = min(self.buckets[ell])
            self.buckets[ell].remove(e)
            cap = ell - 1

    def solution(self) -> frozenset:
        return frozenset(self._in_S)

    def charged_budget(self) -> int:
        """The exact per-run ceiling 2*(floor(1/eps)+2)*inserts, over the
        inserts counted (see the class docstring)."""
        return 2 * (int(1.0 / self.epsilon) + 2) * self.inserts


def default_window_length(k: int, epsilon: float) -> int:
    return math.ceil(math.log(k / epsilon) / epsilon) + 1


class GuessLadder:
    """Target-free wrapper: a moving window of fixed-target engines with
    targets (1+eps)^i, answer taken from the best engine.

    It feeds the window's engines whose S is not full (a full S is final)
    and that its best answer has not outrun.  LB, the largest f(S) of any
    engine, is at most OPT_t, and the engine that carries the guarantee
    has the largest target tau* <= OPT_t, so the next target above tau*
    is more than OPT_t >= LB.  An engine whose next target (1+eps)^(i+1)
    is below LB is therefore never tau*, now or later, as LB and OPT_t
    only grow: it is retired for good, and no engine is made below it
    (the rule of Sieve-Streaming++, Kazemi, Mitrovic, Zadimoghaddam,
    Lattanzi and Karbasi, ICML 2019).  LB is the engines' accumulated
    f(S), fl(F + fl(f(S) - F)) at S's last accept, which is within one
    ulp of the asked f(S): no float lies strictly between OPT_t and LB,
    so the strict cut needs no margin.  Retired engines keep their S for
    the pick, so outputs may differ from a ladder that feeds every
    engine, while the guarantee holds.  Each insert asks f({e}) once and
    hands it to the engines it feeds, with one answer table for the
    insert: engines whose S is equal as a set, whatever order S was
    taken in, ask each f(S + {x}) once, and the insert asks no set twice
    (see CardinalityState).  Extraction does not read the table: it asks
    each distinct S that grew since the last extraction once, however
    many engines hold it (oracle.best_of_growing)."""

    def __init__(self, oracle: CountedOracle, k: int, epsilon: float):
        check_k_epsilon(k, epsilon)
        self.window_length = default_window_length(k, epsilon)
        check_bucket_count(self.window_length + 1, epsilon)
        self.oracle = oracle
        self.k = k
        self.epsilon = epsilon
        self.threads: dict[int, CardinalityState] = {}
        self.v_max = 0.0
        self.i_t: int | None = None
        self.lb = 0.0  # the largest f_of_S of any engine
        self.lowest: int | None = None  # engines below this index are retired
        # the window's engines that are fed, in ascending target; empty
        # while every singleton so far is worthless
        self._live: list[CardinalityState] = []
        self._asked: dict = {}  # target index -> (|S|, f(S)) last asked
        self._empty = oracle.growing()  # never grows

    def insert(self, e) -> None:
        v = self.oracle.eval(self._empty, e)  # f({e}), as f(empty + {e})
        if v > self.v_max:
            try:  # the window's top target must be a float
                i_t = math.floor(math.log(v) / math.log1p(self.epsilon))
                (1.0 + self.epsilon) ** (i_t + self.window_length)
            except OverflowError:
                raise ValueError(f"singleton value {v} puts the guess "
                                 f"ladder's targets past the float range"
                                 ) from None
            self.v_max, self.i_t = v, i_t
            if self.lowest is None:
                self.lowest = i_t
            window = range(max(i_t, self.lowest),
                           i_t + self.window_length + 1)
            for i in window:
                if i not in self.threads:
                    self.threads[i] = CardinalityState(
                        self.oracle, self.k, self.epsilon,
                        (1.0 + self.epsilon) ** i)
            self._live = [self.threads[i] for i in window
                          if self.threads[i]._S is not None]
        lb = self.lb
        changed = False
        answers: dict = {}  # frozenset(T - {e}) -> f(T), T asked here
        for st in self._live:
            # looked up on the class, where a tracer wraps it
            st.insert(e, v, answers)
            if st._S is None:
                changed = True
            if st.f_of_S > lb:
                lb = st.f_of_S
        if lb > self.lb:
            self.lb = lb
            while (1.0 + self.epsilon) ** (self.lowest + 1) < lb:
                self.lowest += 1
            changed = True
        if changed:
            floor = (1.0 + self.epsilon) ** self.lowest
            self._live = [st for st in self._live
                          if st._S is not None and st.opt_guess >= floor]

    def solution(self) -> frozenset:
        """Best engine solution by best_of's rule, in ascending target,
        asking only the sets of engines whose S grew since the last call,
        each distinct set once (see best_of_growing)."""
        return best_of_growing(self.oracle, ((i, self.threads[i]._in_S)
                                             for i in sorted(self.threads)),
                               self._asked)
