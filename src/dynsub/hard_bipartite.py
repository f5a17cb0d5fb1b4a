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
    def asymptotic(cls, w: int, eps: float) -> "SymGapParams":
        """The exact formulas; they underflow double precision for any
        realistic (w, eps), so this variant is for inspection only."""
        gamma = math.exp(-4.0 * w ** 6 / eps) / w
        return cls(w=w, eps=eps, gamma=gamma, eps1=w * gamma,
                   eps2=math.exp(-2.0 * w ** 6 / eps),
                   phi_alpha=eps / (2.0 * w ** 6))

    @classmethod
    def test_friendly(cls, w: int, eps: float) -> "SymGapParams":
        """Numerically representable parameters preserving the
        qualitative structure: eps2 <= eps^2 keeps the sandwich
        f - eps <= fhat <= f, and the tiny phi_alpha keeps phi' >= 0."""
        gamma = 0.01 / w
        return cls(w=w, eps=eps, gamma=gamma, eps1=w * gamma,
                   eps2=0.9 * min(eps ** 2, 0.25),
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
        ak = part_alpha * k
        bk = (1.0 - part_alpha) * k
        if (abs(ak - round(ak)) > 1e-9 or abs(bk - round(bk)) > 1e-9
                or round(ak) < 1 or round(bk) < 1):
            raise ValueError("alpha*k and (1-alpha)*k must be positive "
                             "integers")
        self.m, self.k, self.w, self.eps = m, k, w, eps
        self.part_alpha, self.beta, self.seed = part_alpha, beta, seed
        self.a_class = int(round(ak))  # elements per A color class
        self.b_class = int(round(bk))
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
        nid = 0
        for side, size in (("A", self.a_class), ("B", self.b_class)):
            for i in range(1, m + 1):
                slots = [j for j in range(1, w + 1) for _ in range(size)]
                rng.shuffle(slots)
                for j in slots:
                    self.slot[nid] = (side, i, j)
                    self.ids.setdefault((side, i, j), []).append(nid)
                    nid += 1
        self.n = nid
        self.ground = frozenset(range(nid))

    def block(self, side: str, i: int) -> list[int]:
        return [e for j in range(1, self.w + 1) for e in self.ids[(side, i, j)]]

    def loads(self, S):
        """Per-block color-load vectors (y for side A, z for side B)."""
        count = dict.fromkeys(self.ids, 0)
        for e in S:
            count[self.slot[e]] += 1
        sizes = (("A", self.part_alpha * self.k),
                 ("B", (1.0 - self.part_alpha) * self.k))
        y, z = ({i: [count[(side, i, j)] / size for j in range(1, self.w + 1)]
                 for i in range(1, self.m + 1)} for side, size in sizes)
        return y, z


def _factors(inst: BipartiteInstance, S, block_fn, pi=None):
    if pi is None:
        pi = inst.pi
    y, z = inst.loads(S)
    beta = inst.beta
    return [beta * (1.0 - block_fn(y[pi[i]])) +
            (1.0 - beta) * (1.0 - block_fn(z[i]))
            for i in range(1, inst.m + 1)]


def bipartite_eval(inst: BipartiteInstance, S) -> float:
    """Exact hidden-pairing objective via the per-index factorization."""
    S = frozenset(S)
    fac = _factors(inst, S, lambda v: fhat(v, inst.sym))
    prod = 1.0
    for t in fac:
        prod *= t
    return min(1.0 - prod + inst.eps * len(S) / inst.k, 1.0)


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


def symmetric_eval(inst: BipartiteInstance, S, pi=None) -> float:
    """The pairing-oblivious variant: block values through g only.

    The factor product is taken in sorted order, so any two pairings
    producing the same factor multiset give bit-identical values.
    """
    S = frozenset(S)
    fac = _factors(inst, S, lambda v: _g_block(v, inst.w), pi=pi)
    prod = 1.0
    for t in sorted(fac):
        prod *= t
    return min(1.0 - prod + inst.eps * len(S) / inst.k, 1.0)


def is_balanced(inst: BipartiteInstance, S) -> bool:
    return all(max(v) - min(v) <= inst.gamma
               for side in inst.loads(S) for v in side.values())


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
