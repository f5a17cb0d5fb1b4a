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

    Query accounting uses the two-per-marginal charging convention;
    `charged` never exceeds 2*(floor(1/eps)+2) per inserted element.
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
        self._in_S: set = set()
        self.f_of_S = 0.0
        self.charged = 0
        self.inserts = 0
        self._seen: set = set()

    def _marginal(self, e) -> float:
        # one raw eval against the cached f(S); charged as two
        self.charged += 2
        m = self.oracle.eval(self._in_S | {e}) - self.f_of_S
        if m < -NEG_MARGINAL_TOL:
            raise InvariantError(f"negative marginal {m} for element {e}")
        return m

    def _bucket_index(self, m: float, cap: int | None = None) -> int:
        ell = int(m / self.delta) if m > 0 else 0
        # while S has room a marginal of opt/k or more is accepted, so the
        # clamp only bites on a float landing on the edge; once S is full
        # the top level also takes marginals above its ceiling
        ell = min(ell, self.n_buckets - 1)
        if cap is not None:
            ell = min(ell, cap)
        return max(ell, 0)

    def _accept(self, e, m: float) -> None:
        self._in_S.add(e)
        self.f_of_S += m

    def _threshold(self) -> float:
        return (self.opt_guess - self.f_of_S) / self.k - self.delta

    def insert(self, e) -> None:
        if e in self._seen:
            raise ValueError(f"duplicate insert of {e}")
        self._seen.add(e)
        self.inserts += 1
        m = self._marginal(e)
        if m >= self._threshold() and len(self._in_S) < self.k:
            self._accept(e, m)
            self._revoke()
        else:
            self.buckets[self._bucket_index(m)].add(e)

    def _revoke(self) -> None:
        while len(self._in_S) < self.k:
            r = max(0, int((self.opt_guess - self.f_of_S) / (self.k * self.delta)))
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
                # failed retests must move strictly down or the loop
                # could spin on a float tie
                self.buckets[self._bucket_index(m, cap=ell - 1)].add(e)

    def solution(self) -> frozenset:
        return frozenset(self._in_S)

    def charged_budget(self) -> int:
        """The exact per-run ceiling 2*(floor(1/eps)+2)*inserts."""
        return 2 * (int(1.0 / self.epsilon) + 2) * self.inserts


def default_window_length(k: int, epsilon: float) -> int:
    return math.ceil(math.log(k / epsilon) / epsilon) + 1


class GuessLadder:
    """Target-free wrapper: a moving window of fixed-target engines with
    targets (1+eps)^i, answer taken from the best engine."""

    def __init__(self, oracle: CountedOracle, k: int, epsilon: float):
        self.oracle = oracle
        self.k = k
        self.epsilon = epsilon
        self.window_length = default_window_length(k, epsilon)
        self.threads: dict[int, CardinalityState] = {}
        self.v_max = 0.0
        self.i_t: int | None = None

    def insert(self, e) -> None:
        v = self.oracle.eval({e})
        if v > self.v_max:
            self.v_max = v
            self.i_t = math.floor(math.log(self.v_max) / math.log1p(self.epsilon))
        if self.i_t is None:  # all singletons worthless so far
            return
        window = range(self.i_t, self.i_t + self.window_length + 1)
        for i in window:
            if i not in self.threads:
                self.threads[i] = CardinalityState(
                    self.oracle, self.k, self.epsilon,
                    (1.0 + self.epsilon) ** i)
            self.threads[i].insert(e)

    def solution(self) -> frozenset:
        """Best thread solution; re-evaluated through the counted oracle."""
        return best_of(self.oracle, (self.threads[i].solution()
                                     for i in sorted(self.threads)))
