"""Insertion-only maximization under a cardinality constraint.

A fixed-target engine keeps a solution S plus lazy buckets of deferred
elements, re-testing bucketed elements only when the residual target
drops.  A guess ladder runs a window of engines with geometrically
spaced targets so no prior estimate of the optimum is needed.
"""

from __future__ import annotations

import math

from dynsub.oracle import CountedOracle, InvariantError, best_of

NEG_MARGINAL_TOL = 1e-9


class CardinalityState:
    """Fixed-target engine: maintains S with f(S) >= (1-1/e-eps)*target
    once the stream's true optimum reaches the target.

    Each marginal is one counted query f(S + {e}), `oracle.eval(S, e)`
    on a GrowingSet of the oracle (CountedOracle.growing): over coverage
    it costs what e covers and gives the float f(S | {e}) gives, bit for
    bit; over any other function it asks the set S | {e}.  Once |S| = k,
    S is final: the growing set is dropped, and a later insert is counted
    in `inserts` but makes no query and files nothing.  A GuessLadder
    stops feeding an engine once its S is full, so there `inserts` counts
    the elements the engine was fed while S had room.  Query accounting
    uses the two-per-marginal charging convention; `charged` never
    exceeds 2*(floor(1/eps)+2) per insert counted.  Each element is
    inserted at most once: a Stream refuses a repeat, and the engine
    keeps no set to check it again.
    """

    def __init__(self, oracle: CountedOracle, k: int, epsilon: float,
                 opt_guess: float):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < opt_guess < math.inf:
            raise ValueError(f"opt_guess must be positive and finite, "
                             f"got {opt_guess}")
        self.oracle = oracle
        self.k = k
        self.epsilon = epsilon
        self.opt_guess = opt_guess
        self.delta = epsilon * opt_guess / k
        self.n_buckets = int(1.0 / epsilon) + 1  # indices 0 .. floor(1/eps)
        self.buckets: list[set] = [set() for _ in range(self.n_buckets)]
        self._S = oracle.growing()  # None once S is full
        self._in_S: set = self._S.members  # S itself, which outlives it
        self.f_of_S = 0.0
        self.charged = 0
        self.inserts = 0

    def insert(self, e) -> None:
        """Tests e against the threshold (opt - f(S))/k - delta, and files
        it in the bucket of its marginal if S does not take it.  Once S
        takes an element, retests bucketed elements, smallest id of the
        top bucket first, while S has room and a bucket at or above the
        residual's index r holds one.  A failed retest is filed below the
        bucket it came from, and dropped if that was bucket 0."""
        self.inserts += 1
        S = self._S
        if S is None:  # a full S is final
            return
        cap = self.n_buckets - 1  # the highest bucket e may be filed in
        fresh = True
        while True:
            # one raw eval of f(S + {e}) against the cached f(S); charged
            # as two
            self.charged += 2
            f_of_S = self.f_of_S
            m = self.oracle.eval(S, e) - f_of_S
            if m < -NEG_MARGINAL_TOL:
                raise InvariantError(f"negative marginal {m} for element {e}")
            if m >= (self.opt_guess - f_of_S) / self.k - self.delta:
                S.add(e)
                self.f_of_S = f_of_S + m
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
            fresh = False
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
    targets (1+eps)^i, answer taken from the best engine.  Only the
    window's engines whose S is not full are fed: a full S is final."""

    def __init__(self, oracle: CountedOracle, k: int, epsilon: float):
        self.oracle = oracle
        self.k = k
        self.epsilon = epsilon
        self.window_length = default_window_length(k, epsilon)
        self.threads: dict[int, CardinalityState] = {}
        self.v_max = 0.0
        self.i_t: int | None = None
        # the window's engines whose S is not full, in ascending target;
        # empty while every singleton so far is worthless
        self._live: list[CardinalityState] = []

    def insert(self, e) -> None:
        v = self.oracle.eval({e})
        if v > self.v_max:
            try:  # the window's top target must be a float
                i_t = math.floor(math.log(v) / math.log1p(self.epsilon))
                (1.0 + self.epsilon) ** (i_t + self.window_length)
            except OverflowError:
                raise ValueError(f"singleton value {v} puts the guess "
                                 f"ladder's targets past the float range"
                                 ) from None
            self.v_max, self.i_t = v, i_t
            window = range(i_t, i_t + self.window_length + 1)
            for i in window:
                if i not in self.threads:
                    self.threads[i] = CardinalityState(
                        self.oracle, self.k, self.epsilon,
                        (1.0 + self.epsilon) ** i)
            self._live = [self.threads[i] for i in window
                          if self.threads[i]._S is not None]
        filled = False
        for st in self._live:
            st.insert(e)  # looked up on the class, where a tracer wraps it
            if st._S is None:
                filled = True
        if filled:
            self._live = [st for st in self._live if st._S is not None]

    def solution(self) -> frozenset:
        """Best thread solution; re-evaluated through the counted oracle."""
        return best_of(self.oracle, (self.threads[i].solution()
                                     for i in sorted(self.threads)))
