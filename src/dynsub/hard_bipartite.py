"""Bipartite adversarial family with symmetric-gap smoothing.

The objective hides a bijection between two sides of colored blocks:
on "balanced" queries (per-color counts nearly equal within a block)
the smoothed block function collapses to a symmetric one that reveals
nothing about the hidden pairing.

Math conventions, per block of w colors with loads x in [0,1]^w:
    f(x)  = 1 - prod_j (1 - x_j)
    g(x)  = 1 - (1 - mean(x))^w          (the symmetrized f)
    h     = f - g                         (>= 0 by AM-GM)
    fs(x) = f - phi(h)                    (smoothed)
    fhat  = (fs + eps*g) / (1 + eps)      (monotone-submodular repair)
phi is linear up to eps1, concave with phi'' = -alpha/t up to eps2,
then constant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from dynsub.hard_tree import MAX_ELEMENTS
from dynsub.oracle import InvariantError
from dynsub.streams import Stream, StreamOp, INSERT, DELETE


@dataclass(frozen=True)
class SymGapParams:
    w: int
    eps: float
    gamma: float
    eps1: float
    eps2: float
    phi_alpha: float

    def __post_init__(self):
        if self.w < 2:
            raise ValueError("w must be >= 2")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        if self.eps1 > 0 and not self.eps1 < self.eps2 < 1:
            raise ValueError("need 0 < eps1 < eps2 < 1")

    @classmethod
    def test_friendly(cls, w: int, eps: float) -> "SymGapParams":
        """Numerically representable parameters preserving the
        qualitative structure: eps2 <= eps^2 keeps the sandwich
        f - eps <= fhat <= f, and the tiny phi_alpha keeps phi' >= 0."""
        gamma = 0.01 / w
        eps1, eps2 = w * gamma, 0.9 * min(eps ** 2, 0.25)
        if not eps1 < eps2:
            raise ValueError(f"eps must be above sqrt(1/90) ~ 0.1054, so "
                             f"that eps1 = 0.01 < eps2 = 0.9*eps^2, got {eps}")
        return cls(w=w, eps=eps, gamma=gamma, eps1=eps1, eps2=eps2,
                   phi_alpha=eps / (2.0 * w ** 6))


def phi(t: float, p: SymGapParams) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"phi argument {t} outside [0, 1]")
    if t <= p.eps1:
        return t
    t = min(t, p.eps2)
    a = p.phi_alpha
    return t - a * (t * math.log(t / p.eps1) - t + p.eps1)


def _f_block(x) -> float:
    prod = 1.0
    for v in x:
        prod *= 1.0 - v
    return 1.0 - prod


def _g_block(x, w: int) -> float:
    mean = math.fsum(x) / w
    return 1.0 - (1.0 - mean) ** w


def fhat(x, p: SymGapParams) -> float:
    if len(x) != p.w:
        raise ValueError(f"expected {p.w} coordinates, got {len(x)}")
    f = _f_block(x)
    g = _g_block(x, p.w)
    h = max(f - g, 0.0)
    fs = f - phi(h, p)
    return (fs + p.eps * g) / (1.0 + p.eps)


class BipartiteInstance:
    """Layout: side A has m blocks of alpha*k*w elements, side B has m
    blocks of (1-alpha)*k*w elements; each block splits into w color
    classes of equal size.  pi pairs A-block pi(i) with B-block i.
    """

    def __init__(self, m: int, k: int, w: int, eps: float,
                 part_alpha: float = 0.5, beta: float = 0.42,
                 seed: int = 0):
        # beta outside (0, 1) makes the objective non-monotone
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        ak = part_alpha * k
        bk = (1.0 - part_alpha) * k
        # checked first: round() raises on a NaN or infinite part_alpha
        if (not 0.0 < part_alpha < 1.0
                or abs(ak - round(ak)) > 1e-9 or abs(bk - round(bk)) > 1e-9
                or round(ak) < 1 or round(bk) < 1):
            raise ValueError(f"part_alpha must be in (0, 1) with alpha*k and "
                             f"(1-alpha)*k positive integers, got "
                             f"part_alpha={part_alpha}, k={k}")
        self.m, self.k, self.w, self.eps = m, k, w, eps
        self.part_alpha, self.beta, self.seed = part_alpha, beta, seed
        self.a_class = int(round(ak))  # elements per A color class
        self.b_class = int(round(bk))
        n = m * w * (self.a_class + self.b_class)
        if n > MAX_ELEMENTS:
            raise ValueError(f"{n} elements exceed cap {MAX_ELEMENTS}")
        self.sym = SymGapParams.test_friendly(w, eps)
        self.gamma = self.sym.gamma
        rng = random.Random(seed)
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        self.pi = {i + 1: perm[i] for i in range(m)}  # B-block i -> A-block pi(i)
        # element ids: side A first, blocks in order, random coloring via
        # a seeded shuffle of each block's slot list
        self.slot: dict[int, tuple[str, int, int]] = {}  # id -> (side, block, color)
        self.ids: dict[tuple[str, int, int], list[int]] = {}  # slot -> ids
        # id -> the index of its cell, the color class _factors counts it
        # in; cell c is ((side, block), color - 1) = self._cells[c], cells
        # in the order the loop below lays out the blocks
        self._cell: dict[int, int] = {}
        self._cells = [((side, i), j) for side in "AB"
                       for i in range(1, m + 1) for j in range(w)]
        nid, base = 0, -1  # color j of the block is cell base + j
        for side, size in (("A", self.a_class), ("B", self.b_class)):
            for i in range(1, m + 1):
                slots = [j for j in range(1, w + 1) for _ in range(size)]
                rng.shuffle(slots)
                for j in slots:
                    self.slot[nid] = key = (side, i, j)
                    self.ids.setdefault(key, []).append(nid)
                    self._cell[nid] = base + j
                    nid += 1
                base += w
        self.n = nid
        self.ground = frozenset(range(nid))
        # a color load is its count over the class size
        self._load_scale = {"A": self.a_class, "B": self.b_class}
        # (side, per-color counts) -> fhat of the block; counts never
        # exceed a class size, so this holds at most
        # (a_class+1)^w + (b_class+1)^w entries
        self.block_memo: dict = {}
        # cell_key(S) -> bipartite_eval(S); one entry per count vector
        # evaluated
        self.value_memo: dict = {}

    def block(self, side: str, i: int) -> list[int]:
        return [e for j in range(1, self.w + 1) for e in self.ids[(side, i, j)]]

    def loads(self, S):
        """Per-block color-load vectors (y for side A, z for side B)."""
        count = dict.fromkeys(self.ids, 0)
        for e in S:
            count[self.slot[e]] += 1
        y, z = ({i: [count[(side, i, j)] / scale for j in range(1, self.w + 1)]
                 for i in range(1, self.m + 1)}
                for side, scale in self._load_scale.items())
        return y, z

    def block_value(self, side: str, count: tuple) -> float:
        """fhat on the load vector of a `side` block whose color classes
        hold `count` elements; the vector is the one `loads` builds, so
        the value is the same float."""
        key = (side, count)
        v = self.block_memo.get(key)
        if v is None:
            scale = self._load_scale[side]
            v = self.block_memo[key] = fhat([c / scale for c in count],
                                            self.sym)
        return v


def cell_key(inst: BipartiteInstance, S) -> tuple:
    """The sorted cell indices of the elements of S, a set.  Two sets
    have the same key exactly when they hold as many elements in each
    (side, block, color) class, which fixes every value of S."""
    return tuple(sorted(map(inst._cell.__getitem__, S)))


def _factors(inst: BipartiteInstance, cells):
    """beta (1 - fhat(y_pi(i))) + (1 - beta) (1 - fhat(z_i)) for
    i = 1..m, for the set whose elements lie in `cells` (cell indices,
    one per element); each block value comes from the instance's memo."""
    touched: dict = {}  # (side, block) -> per-color counts of S
    for cell in cells:
        blk, j = inst._cells[cell]
        c = touched.get(blk)
        if c is None:
            c = touched[blk] = [0] * inst.w
        c[j] += 1
    zero = (0,) * inst.w
    beta = inst.beta
    fac = []
    for i in range(1, inst.m + 1):
        a, b = touched.get(("A", inst.pi[i])), touched.get(("B", i))
        y = inst.block_value("A", zero if a is None else tuple(a))
        z = inst.block_value("B", zero if b is None else tuple(b))
        fac.append(beta * (1.0 - y) + (1.0 - beta) * (1.0 - z))
    return fac


def bipartite_eval(inst: BipartiteInstance, S) -> float:
    """Exact hidden-pairing objective via the per-index factorization.

    The value depends on S only through its count vector, so it is
    computed once per `cell_key` and read from the instance's
    `value_memo` after that."""
    key = cell_key(inst, frozenset(S))
    v = inst.value_memo.get(key)
    if v is None:
        prod = 1.0
        for t in _factors(inst, key):
            prod *= t
        v = inst.value_memo[key] = min(
            1.0 - prod + inst.eps * len(key) / inst.k, 1.0)
    return v


def bipartite_eval_bruteforce(inst: BipartiteInstance, S) -> float:
    """Literal 2^m mixture sum; test oracle for the factorization."""
    if inst.m > 12:
        raise ValueError("brute-force path limited to m <= 12")
    S = frozenset(S)
    y, z = inst.loads(S)
    beta = inst.beta
    total = 0.0
    for mask in range(1 << inst.m):
        prod = 1.0
        n_ones = 0
        for i in range(1, inst.m + 1):
            if mask >> (i - 1) & 1:
                n_ones += 1
                vec = y[inst.pi[i]]
            else:
                vec = z[i]
            prod *= 1.0 - fhat(vec, inst.sym)
        total += beta ** n_ones * (1.0 - beta) ** (inst.m - n_ones) * (1.0 - prod)
    return min(total + inst.eps * len(S) / inst.k, 1.0)


def bipartite_stream(inst: BipartiteInstance) -> Stream:
    """All of side A up front, then per B-block: insert it, delete it."""
    ops = [StreamOp(INSERT, e) for i in range(1, inst.m + 1)
           for e in inst.block("A", i)]
    for i in range(1, inst.m + 1):
        blk = inst.block("B", i)
        ops.extend(StreamOp(INSERT, e) for e in blk)
        ops.extend(StreamOp(DELETE, e) for e in blk)
    return Stream(ops)


def bipartite_descriptor(inst: BipartiteInstance) -> dict:
    """The instance as a JSON object: its parameters and seed, and the
    pairing and element layout the seed produces."""
    return {
        "family": "bipartite",
        "seed": inst.seed,
        "m": inst.m, "k": inst.k, "w": inst.w, "eps": inst.eps,
        "part_alpha": inst.part_alpha, "beta": inst.beta,
        "pi": {str(i): inst.pi[i] for i in inst.pi},
        "slots": {str(e): list(inst.slot[e]) for e in sorted(inst.slot)},
    }


_FIELDS = (("m", int), ("k", int), ("w", int), ("eps", (int, float)),
           ("part_alpha", (int, float)), ("beta", (int, float)),
           ("seed", int), ("pi", dict), ("slots", dict))


def bipartite_from_descriptor(desc: dict) -> BipartiteInstance:
    """Rebuild the instance from a descriptor's parameters and seed.

    A missing or mistyped field raises ValueError; a stored pairing or
    layout that the seed does not produce raises InvariantError.
    """
    for key, kind in _FIELDS:
        if key not in desc:
            raise ValueError(f"descriptor has no key {key!r}")
        if not isinstance(desc[key], kind):
            raise ValueError(f"descriptor field {key!r} is {desc[key]!r}")
    inst = BipartiteInstance(m=desc["m"], k=desc["k"], w=desc["w"],
                             eps=desc["eps"], part_alpha=desc["part_alpha"],
                             beta=desc["beta"], seed=desc["seed"])
    if bipartite_descriptor(inst) != desc:
        raise InvariantError("descriptor does not match the instance its "
                             "seed produces")
    return inst


def verify_bipartite(inst: BipartiteInstance) -> None:
    """Check the construction's identities; raises InvariantError."""
    rng = random.Random(0)
    if bipartite_eval(inst, frozenset()) != 0.0:
        raise InvariantError("value at the empty set is nonzero")
    if inst.m <= 8:
        ids = sorted(inst.ground)
        for _ in range(20):
            S = frozenset(rng.sample(ids, rng.randint(0, min(len(ids), 12))))
            a = bipartite_eval(inst, S)
            b = bipartite_eval_bruteforce(inst, S)
            if abs(a - b) > 1e-9:
                raise InvariantError(f"factorized value {a} != mixture sum {b}")
    for i in range(1, inst.m + 1):
        j = rng.randint(1, inst.w)
        S = frozenset(inst.ids[("A", inst.pi[i], j)] + inst.ids[("B", i, j)])
        if bipartite_eval(inst, S) < 1.0 - inst.eps - 1e-9:
            raise InvariantError(f"paired color class {i},{j} undervalued")
    stream = bipartite_stream(inst)
    want = (2 - inst.part_alpha) * inst.m * inst.k * inst.w
    if len(stream) != int(round(want)):
        raise InvariantError("hard-stream length mismatch")
