"""Concrete submodular objectives and the multilinear extension.

Fractional points are plain dicts element -> probability in [0, 1];
omitted coordinates are 0.
"""

from __future__ import annotations

import itertools
import random

from dynsub.oracle import CountedOracle, EnumerationBudgetError

BRUTE_FORCE_SUPPORT = 20
MAX_COVER = 4  # most items one random_coverage element covers


class CoverageFunction:
    """Weighted coverage: f(S) = total weight of union of covers(e), e in S.

    Each element's items are stored once more as universe positions, so
    an evaluation costs what S covers, not |U|.  The function is fixed
    after construction: `covers` and `universe` must not be mutated.
    """

    def __init__(self, universe, covers):
        # universe: list of (item, weight); covers: element id -> iterable of items
        self.universe = [(item, float(w)) for item, w in universe]
        self.weights = dict(self.universe)
        if len(self.weights) != len(self.universe):
            raise ValueError("duplicate universe items")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("negative item weight")
        self.covers = {int(e): frozenset(items) for e, items in covers.items()}
        # universe position of each item; a failed lookup is an unknown item
        position = dict(zip(self.weights, range(len(self.universe)))).__getitem__
        self._positions = {}
        for e, items in self.covers.items():
            try:
                self._positions[e] = tuple(map(position, items))
            except KeyError:
                raise ValueError(f"element {e} covers unknown items") from None
        self._weight_at = list(self.weights.values())
        self._coverers = None  # built by coverers() on first use
        self.ground = frozenset(self.covers)

    def __call__(self, S):
        hit = set().union(*map(self._positions.__getitem__, S))
        # summed in universe order so equal sets give bit-identical values
        return sum(map(self._weight_at.__getitem__, sorted(hit)))

    def coverers(self) -> list:
        """Per universe position, the elements covering that item in
        ascending id (built once, on the first call)."""
        if self._coverers is None:
            inv = [[] for _ in self.universe]
            for e in sorted(self._positions):
                for i in self._positions[e]:
                    inv[i].append(e)
            self._coverers = inv
        return self._coverers

    def as_oracle(self) -> CountedOracle:
        return CountedOracle(self, self.ground)

    def dump(self, path) -> None:
        items = [item for item, _ in self.universe]
        with open(path, "w") as fh:
            fh.write(f"coverage {len(self.covers)} {len(items)}\n")
            # weight lines first, in universe order, so a reload keeps the
            # exact summation order (values stay bit-identical)
            for item, w in self.universe:
                fh.write(f"w {item} {w!r}\n")
            for e in sorted(self.covers):
                fh.write(f"e {e} : " + " ".join(sorted(self.covers[e])) + "\n")

    @classmethod
    def load(cls, path) -> "CoverageFunction":
        covers = {}
        weights = {}
        items_seen = []
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3 or header[0] != "coverage":
                raise ValueError("bad coverage header")
            for line in fh:
                tok = line.split()
                if not tok:
                    continue
                if tok[0] == "e":
                    if len(tok) < 3 or tok[2] != ":":
                        raise ValueError(f"bad element line: {line!r}")
                    eid = int(tok[1])
                    covers[eid] = set(tok[3:])
                    for it in tok[3:]:
                        if it not in weights:
                            weights[it] = 1.0
                            items_seen.append(it)
                elif tok[0] == "w" and len(tok) == 3:
                    item, w = tok[1], float(tok[2])
                    if item not in weights:
                        items_seen.append(item)
                    weights[item] = w
                else:
                    raise ValueError(f"bad line: {line!r}")
        universe = [(it, weights[it]) for it in items_seen]
        return cls(universe, covers)


class ModularFunction:
    """f(S) = sum of per-element weights."""

    def __init__(self, weights):
        self.weights = {int(e): float(w) for e, w in weights.items()}
        self.ground = frozenset(self.weights)

    def __call__(self, S):
        return sum(self.weights[e] for e in S)

    def as_oracle(self) -> CountedOracle:
        return CountedOracle(self, self.ground)


def random_coverage(n_elements: int, n_items: int, seed: int,
                    weighted: bool = False) -> CoverageFunction:
    """Seeded random coverage instance; every element covers 1 to
    MAX_COVER items."""
    rng = random.Random(seed)
    items = [f"u{j}" for j in range(n_items)]
    universe = [(it, rng.uniform(0.5, 2.0) if weighted else 1.0) for it in items]
    covers = {}
    for e in range(n_elements):
        size = rng.randint(1, min(MAX_COVER, n_items))
        covers[e] = set(rng.sample(items, size))
    return CoverageFunction(universe, covers)


def _validate_point(x):
    for e, p in x.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"coordinate {e} = {p} outside [0,1]")


def plus_direction(x, S, step: float):
    """x' with coordinates in S raised by step, clamped at 1."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    out = dict(x)
    for e in S:
        out[e] = min(out.get(e, 0.0) + step, 1.0)
    return out


def multilinear_exact(f, x) -> float:
    """Exact multilinear extension F(x).

    Closed form for CoverageFunction; otherwise f must be a callable
    set -> value and |support(x)| <= 20 (brute-force over subsets).
    """
    _validate_point(x)
    if isinstance(f, CoverageFunction):
        # items in universe order, factors in ascending element id: the
        # float result depends on this order (see README, determinism)
        total = 0.0
        for (_, w), elements in zip(f.universe, f.coverers()):
            miss = 1.0
            for e in elements:
                miss *= 1.0 - x.get(e, 0.0)
            total += w * (1.0 - miss)
        return total

    support = sorted(e for e, p in x.items() if p > 0.0)
    if len(support) > BRUTE_FORCE_SUPPORT:
        raise EnumerationBudgetError(
            f"support {len(support)} exceeds brute-force cutoff {BRUTE_FORCE_SUPPORT}")
    evaluate = f.eval if isinstance(f, CountedOracle) else f
    total = 0.0
    for r in range(len(support) + 1):
        for tup in itertools.combinations(support, r):
            inside = set(tup)
            prob = 1.0
            for e in support:
                prob *= x[e] if e in inside else 1.0 - x[e]
            if prob > 0.0:
                total += prob * evaluate(frozenset(tup))
    return total

