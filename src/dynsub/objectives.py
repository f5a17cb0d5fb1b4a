"""Concrete submodular objectives and the multilinear extension.

Fractional points are plain dicts element -> probability in [0, 1];
omitted coordinates are 0.
"""

from __future__ import annotations

import itertools
import math
import random
import types

from dynsub.oracle import CountedOracle, EnumerationBudgetError, GrowingSet

BRUTE_FORCE_SUPPORT = 20
MAX_COVER = 4  # most items one random_coverage element covers
# what a growing set holds for an empty S: shared, and read-only
_NOTHING = frozenset()
_NO_TERMS = types.MappingProxyType({})


class CoverageFunction:
    """Weighted coverage: f(S) = total weight of union of covers(e), e in S.

    Each element's items are stored once more as universe positions, so
    an evaluation costs what S covers, not |U|.  f(S) is the math.fsum
    of the covered weights, which no order moves.  The function is fixed
    after construction: `covers` and `universe` must not be mutated.
    """

    def __init__(self, universe, covers):
        # universe: list of (item, weight); covers: element id -> iterable of items
        self.universe = [(item, float(w)) for item, w in universe]
        self.weights = dict(self.universe)
        if len(self.weights) != len(self.universe):
            raise ValueError("duplicate universe items")
        weights = self.weights.values()
        # a finite total keeps every f(S), a part of it, finite too
        try:
            total = math.fsum(weights)
        except (OverflowError, ValueError):  # too large, or inf - inf
            total = math.inf
        if not (math.isfinite(total) and min(weights, default=0.0) >= 0.0):
            raise ValueError(f"item weights must be finite and >= 0, with a "
                             f"finite total, got total {total}")
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
        return math.fsum(map(self._weight_at.__getitem__, hit))

    def growing_set(self, oracle: CountedOracle,
                    S: set) -> "CoverageGrowingSet":
        return CoverageGrowingSet(oracle, self, S)

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

    @classmethod
    def load(cls, path) -> "CoverageFunction":
        """A `coverage <elements> <items>` header, one `e <id> : <item> ...`
        line per element, and at most one `w <item> <weight>` line per
        item; an item without one weighs 1.0.  Items are in the order
        they first appear."""
        covers = {}
        weights = {}
        weighed = set()  # the items a `w` line has set
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3 or header[0] != "coverage":
                raise ValueError("bad coverage header")
            for lineno, line in enumerate(fh, start=2):
                tok = line.split()
                if not tok:
                    continue
                try:
                    if tok[0] == "e" and len(tok) >= 3 and tok[2] == ":":
                        eid = int(tok[1])
                        if eid in covers:
                            raise ValueError
                        covers[eid] = set(tok[3:])
                        for it in tok[3:]:
                            weights.setdefault(it, 1.0)
                    elif (tok[0] == "w" and len(tok) == 3
                          and tok[1] not in weighed):
                        weighed.add(tok[1])
                        weights[tok[1]] = w = float(tok[2])
                        if not 0.0 <= w < math.inf:
                            raise ValueError
                    else:
                        raise ValueError
                except ValueError:
                    raise ValueError(f"bad coverage line {lineno}: "
                                     f"{line.strip()!r}") from None
        counts = [len(covers), len(weights)]
        if header[1:] != list(map(str, counts)):
            raise ValueError(f"bad coverage line 1: {' '.join(header)!r}, but "
                             f"the file has {counts[0]} elements and "
                             f"{counts[1]} items")
        return cls(list(weights.items()), covers)


def exact_expansion(parts: list) -> list:
    """Floats whose exact sum is that of `parts`: each is the correctly
    rounded rest of that sum after those before it.  So math.fsum of the
    expansion plus more floats is the exact sum of `parts` and them,
    rounded once."""
    expansion, parts = [], list(parts)
    rest = math.fsum(parts)
    while rest:
        expansion.append(rest)
        parts.append(-rest)
        rest = math.fsum(parts)
    return expansion


class CoverageGrowingSet(GrowingSet):
    """A GrowingSet over a CoverageFunction f that keeps the universe
    positions S covers and an exact expansion of f(S).  f(S + {e}) is the
    math.fsum of the expansion and the weights of the positions e adds,
    the exact sum rounded once, which is f(S | {e}) bit for bit; it costs
    what e covers, not what S does.  An empty S holds no container but
    `members`."""

    __slots__ = ("_positions", "_weight_at", "_hit", "_expansion")

    def __init__(self, oracle: CountedOracle, f: CoverageFunction, S: set):
        super().__init__(oracle, S)
        self._positions, self._weight_at = f._positions, f._weight_at
        self._hit, self._expansion = _NOTHING, ()
        if S:
            self._hit = set().union(*map(self._positions.__getitem__, S))
            self._expansion = exact_expansion(
                list(map(self._weight_at.__getitem__, self._hit)))

    def f_plus(self, e) -> float:
        hit, weight_at = self._hit, self._weight_at
        parts = list(self._expansion)
        for i in self._positions[e]:  # a plain loop: no comprehension frame
            if i not in hit:
                parts.append(weight_at[i])
        return math.fsum(parts)

    def add(self, e) -> None:
        if not self.members:
            self._hit = set()
        hit, weight_at = self._hit, self._weight_at
        parts = list(self._expansion)
        for i in self._positions[e]:
            if i not in hit:
                parts.append(weight_at[i])
                hit.add(i)
        self._expansion = exact_expansion(parts)
        self.members.add(e)


def random_coverage(n_elements: int, n_items: int, seed: int,
                    weighted: bool = False) -> CoverageFunction:
    """Seeded random coverage instance; every element covers 1 to
    MAX_COVER items."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
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


def _item_term(w: float, elements, x) -> float:
    """An item's term w * (1 - prod(1 - x_e)) of the coverage F(x),
    factors in the order of `elements` (ascending id)."""
    miss = 1.0
    for e in elements:
        miss *= 1.0 - x.get(e, 0.0)
    return w * (1.0 - miss)


def _coverage_terms(f: CoverageFunction, x) -> list:
    """The per-item terms of the coverage F(x), in universe order.  An
    item no element covers has the term 0.0, which is w * (1 - 1.0)."""
    return [_item_term(w, elements, x) if elements else 0.0
            for (_, w), elements in zip(f.universe, f.coverers())]


def multilinear_shifts(f, x, step: float):
    """S -> F(plus_direction(x, S, step)), equal bit for bit to
    multilinear_exact at that point.

    For a CoverageFunction this is a ShiftedCoverage, whose growing sets
    answer F(x + (S + {e}) * step) at the cost of what e covers
    (ShiftGrowingSet); otherwise each call evaluates the shifted point
    with multilinear_exact.
    """
    _validate_point(x)
    x = plus_direction(x, (), step)  # a copy; refuses a step outside (0, 1]
    if not isinstance(f, CoverageFunction):
        return lambda S: multilinear_exact(f, plus_direction(x, S, step))
    return ShiftedCoverage(f, x, step)


class ShiftedCoverage:
    """S -> F(x + S * step), coordinates clamped at 1, for a coverage f.

    The terms of F(x) and an exact expansion of their sum are computed
    once.  A shifted point changes only the terms of the items S covers,
    so the value is the correctly rounded sum of the expansion, each of
    those terms negated and each recomputed, factors in ascending id.
    That is the exact shifted sum, rounded once, so it is
    multilinear_exact's value at the shifted point.  Each -old precedes
    its +new, so the running exact sum stays within the total weight.
    """

    def __init__(self, f: CoverageFunction, x: dict, step: float):
        self.terms = _coverage_terms(f, x)
        self.expansion = exact_expansion(self.terms)
        self.positions, self.coverers = f._positions, f.coverers()
        self.weight_at = f._weight_at
        # each element's factor 1 - x_e of a term, as it is and shifted
        self.stay = {e: 1.0 - x.get(e, 0.0) for e in f.covers}
        self.moved = {e: 1.0 - min(x.get(e, 0.0) + step, 1.0)
                      for e in f.covers}

    def __call__(self, S) -> float:
        S = set(S)
        hit = set().union(*map(self.positions.__getitem__, S))
        return math.fsum(self.parts(self.expansion, {}, S, hit))

    def growing_set(self, oracle: CountedOracle,
                    S: set) -> "ShiftGrowingSet":
        return ShiftGrowingSet(oracle, self, S)

    def parts(self, expansion, terms: dict, S, items, e=None,
              new: dict | None = None) -> list:
        """`expansion`, then for each position in `items` its term in
        `terms` (by default its term at x) negated and its term with the
        elements of S and e shifted; `new`, when given, takes each new
        term."""
        coverers, weight_at, base = self.coverers, self.weight_at, self.terms
        moved, stay = self.moved, self.stay
        parts = list(expansion)
        for i in items:
            miss = 1.0
            for c in coverers[i]:
                miss *= moved[c] if c == e or c in S else stay[c]
            term = weight_at[i] * (1.0 - miss)
            parts += (-terms.get(i, base[i]), term)
            if new is not None:
                new[i] = term
        return parts


class ShiftGrowingSet(GrowingSet):
    """A GrowingSet over a ShiftedCoverage: F(x + (S + {e}) * step) from
    the current terms of the items S covers and an exact expansion of
    F(x + S * step), at the cost of what e covers.  It is the exact
    shifted sum rounded once, so it equals the ShiftedCoverage's value at
    S | {e} bit for bit.  x stays with the ShiftedCoverage, and an empty
    S holds no container but `members`."""

    __slots__ = ("_shift", "_terms", "_expansion")

    def __init__(self, oracle: CountedOracle, shift: ShiftedCoverage,
                 S: set):
        super().__init__(oracle, S)
        self._shift = shift
        self._terms, self._expansion = _NO_TERMS, shift.expansion
        if S:
            self._terms = {}
            hit = set().union(*map(shift.positions.__getitem__, S))
            self._expansion = exact_expansion(shift.parts(
                shift.expansion, {}, S, hit, new=self._terms))

    def f_plus(self, e) -> float:
        shift = self._shift
        return math.fsum(shift.parts(self._expansion, self._terms,
                                     self.members, shift.positions[e], e))

    def add(self, e) -> None:
        shift = self._shift
        if not self.members:
            self._terms = {}
        self._expansion = exact_expansion(shift.parts(
            self._expansion, self._terms, self.members, shift.positions[e],
            e, new=self._terms))
        self.members.add(e)


def multilinear_exact(f, x) -> float:
    """Exact multilinear extension F(x).

    Closed form for CoverageFunction, its per-item terms summed with
    math.fsum (correctly rounded, so the same for any item order);
    otherwise f must be a callable set -> value and |support(x)| <= 20
    (brute-force over subsets).
    """
    _validate_point(x)
    if isinstance(f, CoverageFunction):
        # factors in ascending element id: each term's float depends on
        # that order (see README, determinism)
        return math.fsum(_coverage_terms(f, x))

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

