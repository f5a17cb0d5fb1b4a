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
    def test_friendly(cls, w: int, eps: float,
                      gamma: float | None = None) -> "SymGapParams":
        """Numerically representable parameters preserving the
        qualitative structure: eps2 <= eps^2 keeps the sandwich
        f - eps <= fhat <= f, and the tiny phi_alpha keeps phi' >= 0."""
        if gamma is None:
            gamma = 0.01 / w
        eps1 = w * gamma
        eps2 = 0.9 * min(eps ** 2, 0.25)
        if not eps1 < eps2:
            raise ValueError(f"gamma {gamma} too large for eps {eps}")
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
                 seed: int = 0, sym: SymGapParams | None = None):
        ak = part_alpha * k
        bk = (1.0 - part_alpha) * k
        if abs(ak - round(ak)) > 1e-9 or abs(bk - round(bk)) > 1e-9:
            raise ValueError("alpha*k and (1-alpha)*k must be integers")
        self.m, self.k, self.w, self.eps = m, k, w, eps
        self.part_alpha, self.beta = part_alpha, beta
        self.a_class = int(round(ak))  # elements per A color class
        self.b_class = int(round(bk))
        self.sym = sym if sym is not None else SymGapParams.test_friendly(w, eps)
        self.gamma = self.sym.gamma
        rng = random.Random(seed)
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        self.pi = {i + 1: perm[i] for i in range(m)}  # B-block i -> A-block pi(i)
        # element ids: A side first, blocks in order, random coloring via
        # a seeded shuffle of each block's slot list
        self.slot: dict[int, tuple[str, int, int]] = {}  # id -> (side, block, color)
        self.A_ids: dict[tuple[int, int], list[int]] = {}
        self.B_ids: dict[tuple[int, int], list[int]] = {}
        nid = 0
        for i in range(1, m + 1):
            slots = [j for j in range(1, w + 1) for _ in range(self.a_class)]
            rng.shuffle(slots)
            for j in slots:
                self.slot[nid] = ("A", i, j)
                self.A_ids.setdefault((i, j), []).append(nid)
                nid += 1
        for i in range(1, m + 1):
            slots = [j for j in range(1, w + 1) for _ in range(self.b_class)]
            rng.shuffle(slots)
            for j in slots:
                self.slot[nid] = ("B", i, j)
                self.B_ids.setdefault((i, j), []).append(nid)
                nid += 1
        self.n = nid
        self.ground = frozenset(range(nid))

    def a_block(self, i: int) -> list[int]:
        return [e for j in range(1, self.w + 1) for e in self.A_ids[(i, j)]]

    def b_block(self, i: int) -> list[int]:
        return [e for j in range(1, self.w + 1) for e in self.B_ids[(i, j)]]

    def loads(self, S):
        """Per-block color-load vectors (y for side A, z for side B)."""
        countA = {key: 0 for key in self.A_ids}
        countB = {key: 0 for key in self.B_ids}
        for e in S:
            side, i, j = self.slot[e]
            if side == "A":
                countA[(i, j)] += 1
            else:
                countB[(i, j)] += 1
        ak = self.part_alpha * self.k
        bk = (1.0 - self.part_alpha) * self.k
        y = {i: [countA[(i, j)] / ak for j in range(1, self.w + 1)]
             for i in range(1, self.m + 1)}
        z = {i: [countB[(i, j)] / bk for j in range(1, self.w + 1)]
             for i in range(1, self.m + 1)}
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
    y, z = inst.loads(S)
    for i in range(1, inst.m + 1):
        if max(y[i]) - min(y[i]) > inst.gamma:
            return False
        if max(z[i]) - min(z[i]) > inst.gamma:
            return False
    return True


def analytic_F(part_alpha: float, beta: float, lam: float) -> float:
    if not (0 < part_alpha < 1 and 0 < beta < 1 and 0 <= lam <= 1):
        raise ValueError("arguments must be in (0, 1)")
    e1 = math.exp(-(1.0 - lam) * beta / part_alpha)
    e2 = math.exp(-lam / (1.0 - part_alpha))
    return beta * (1.0 - e1) + (1.0 - beta) * (1.0 - e1 * e2)


def analytic_Q(part_alpha: float, beta: float) -> float:
    """max over lambda in (0,1), coarse grid then golden-section."""
    best_lam, best = 0.0, -1.0
    n = 10_000
    for s in range(1, n):
        lam = s / n
        v = analytic_F(part_alpha, beta, lam)
        if v > best:
            best, best_lam = v, lam
    lo, hi = max(best_lam - 1.0 / n, 0.0), min(best_lam + 1.0 / n, 1.0)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = analytic_F(part_alpha, beta, c), analytic_F(part_alpha, beta, d)
    while b - a > 1e-8:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = analytic_F(part_alpha, beta, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = analytic_F(part_alpha, beta, d)
    return max(best, fc, fd)


def bipartite_stream(inst: BipartiteInstance) -> Stream:
    """All of side A up front, then per B-block: insert it, delete it."""
    ops = [StreamOp(INSERT, e) for i in range(1, inst.m + 1)
           for e in inst.a_block(i)]
    for i in range(1, inst.m + 1):
        blk = inst.b_block(i)
        ops.extend(StreamOp(INSERT, e) for e in blk)
        ops.extend(StreamOp(DELETE, e) for e in blk)
    return Stream(ops)
