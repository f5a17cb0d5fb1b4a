"""Shuffled-tree adversarial family.

A depth-L tree where every non-root node u owns a set A_u of w = eps*k
fresh elements.  The objective is driven by a random antichain R that
hits every root-to-leaf path exactly once; depth-dependent stopping
probabilities p_ell make Pr[u in R] = w_ell for depth-ell nodes.  A
shuffling permutes, per parent, the last path coordinate of each node,
hiding which child continues the high-value path.

Node addressing: the root is the empty tuple; a depth-ell node is a
tuple (u1, ..., u_ell) with 1 <= u_i <= arity[i].
"""

from __future__ import annotations

import json
import math
import random

from dynsub.oracle import InvariantError
from dynsub.streams import Stream, StreamOp, INSERT, DELETE

MAX_STREAM_OPS = 2_000_000  # cap on the length of a traverse stream


def weight_sequence(L: int) -> dict:
    """The depth-weight table {delta, a, A_geq, w, p}.

    delta runs the backward recursion from delta_L = 1; a_ell is the
    telescoped product; w_ell normalizes; p_ell are the stopping
    probabilities with p_0 = 0 and p_L = 1.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    delta = [0.0] * (L + 1)  # 1-indexed
    delta[L] = 1.0
    for ell in range(L - 1, 0, -1):
        nxt = delta[ell + 1]
        delta[ell] = 1.0 + (1.0 + math.sqrt(1.0 + 4.0 / nxt)) / 2.0 * nxt
    a = [0.0, 1.0] + [0.0] * (L - 1)
    for ell in range(2, L + 1):
        a[ell] = a[ell - 1] * (1.0 / (1.0 - 1.0 / delta[ell - 1]))
    total = math.fsum(a[1:])
    w = [0.0] + [x / total for x in a[1:]]
    A_geq = [0.0] * (L + 2)
    for ell in range(L, 0, -1):
        A_geq[ell] = A_geq[ell + 1] + a[ell]
    p = [0.0] * (L + 1)
    consumed = 0.0
    for ell in range(1, L + 1):
        p[ell] = w[ell] / (1.0 - consumed)
        consumed += w[ell]
    p[L] = 1.0
    return {"delta": delta, "a": a, "A_geq": A_geq, "w": w, "p": p}


def random_tree_pi(arities, seed: int) -> dict:
    """Seeded uniformly random child bijections, one per internal node."""
    rng = random.Random(seed)
    pi: dict = {}
    frontier = [()]
    for m in arities:
        for u in frontier:
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            pi[u] = {i + 1: perm[i] for i in range(m)}
        frontier = [u + (i,) for u in frontier for i in range(1, m + 1)]
    return pi


class ShuffledTreeInstance:
    """Tree of arities (m_1, ..., m_L), m_L = 1, with w = eps*k elements
    per non-root node and sparse per-parent child bijections pi."""

    MAX_NODES = 200_000

    def __init__(self, k: int, eps: float, arities, pi=None):
        if not 0.0 < eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        L = 1.0 / eps
        if abs(L - round(L)) > 1e-9:
            raise ValueError("1/eps must be an integer")
        self.L = int(round(L))
        w = eps * k
        if abs(w - round(w)) > 1e-9 or round(w) < 1:
            raise ValueError("eps*k must be a positive integer")
        self.w = int(round(w))
        self.k = k
        self.eps = eps
        arities = tuple(arities)
        if len(arities) != self.L:
            raise ValueError(f"need {self.L} arities, got {len(arities)}")
        if arities[-1] != 1:
            raise ValueError("last-level arity must be 1")
        if any(not isinstance(m, int) or m < 1 for m in arities):
            raise ValueError(f"arities {arities} must be integers >= 1")
        self.arities = arities
        n_nodes = 0
        layer = 1
        for m in arities:
            layer *= m
            n_nodes += layer
        if n_nodes > self.MAX_NODES:
            raise ValueError(f"{n_nodes} nodes exceed cap {self.MAX_NODES}")
        self.tab = weight_sequence(self.L)
        # pi: internal node -> {child index -> permuted index}, the identity
        # where the caller gives no entry; element ids go in BFS node order
        given = pi or {}
        self.pi: dict = {}
        self._pi_inv: dict = {}
        self.base_id: dict = {}
        nid = 0
        frontier = [()]
        for m in arities:
            kids = range(1, m + 1)
            want = set(kids)
            nxt = []
            for u in frontier:
                b = dict(given[u]) if u in given else dict(zip(kids, kids))
                inv = {v: i for i, v in b.items()}
                # the entry maps the children of u onto themselves, one to one
                if not b.keys() == inv.keys() == want:
                    raise ValueError(f"pi at node {u} is not a permutation "
                                     f"of its children")
                self.pi[u], self._pi_inv[u] = b, inv
                for i in kids:
                    v = u + (i,)
                    self.base_id[v] = nid
                    nid += self.w
                    nxt.append(v)
            frontier = nxt
        unknown = given.keys() - self.pi.keys()
        if unknown:
            raise ValueError(f"pi names {unknown.pop()!r}, which is not an "
                             f"internal node")
        self.leaves = frontier
        self.n = nid
        self.ground = frozenset(range(nid))
        self._node_by_base = {b: v for v, b in self.base_id.items()}

    # --- node helpers -------------------------------------------------
    def elements_of(self, u) -> list[int]:
        b = self.base_id[u]
        return list(range(b, b + self.w))

    def node_of_element(self, e: int):
        return self._node_by_base[e - e % self.w]

    def shuffle_node(self, v):
        """pi(v): last coordinate permuted by the parent's bijection."""
        if not v:
            return v
        return v[:-1] + (self.pi[v[:-1]][v[-1]],)

    def shuffle_node_inv(self, v):
        if not v:
            return v
        return v[:-1] + (self._pi_inv[v[:-1]][v[-1]],)

    def shuffled_path_sets(self, leaf) -> list:
        """Nodes whose A-sets map onto the root path under rho_pi."""
        return [self.shuffle_node(leaf[:d]) for d in range(1, self.L + 1)]

    def sibling_sets(self, leaf) -> list:
        """W_u: children A-sets of every node on the leaf's root path."""
        out = []
        for d in range(self.L):
            u = leaf[:d]
            for i in range(1, self.arities[d] + 1):
                out.append(u + (i,))
        return out


def tree_sample(inst: ShuffledTreeInstance, seed: int) -> frozenset:
    """One draw of the stopping antichain R (full-tree walk)."""
    rng = random.Random(seed)
    p = inst.tab["p"]
    R = []
    stack = [()]
    while stack:
        u = stack.pop()
        d = len(u)
        if d >= 1 and rng.random() < p[d]:
            R.append(u)
            continue
        if d < inst.L:
            for i in range(inst.arities[d], 0, -1):
                stack.append(u + (i,))
    return frozenset(R)


def tree_G_exact(inst: ShuffledTreeInstance, x: dict) -> float:
    """Exact expectation of 1 - prod_{u in R}(1 - x_u) over R.

    Recursion per node: E(v) = p_d (1 - x_v) + (1 - p_d) prod E(child);
    any subtree without support has E = 1, so only support ancestors are
    expanded.  Child products multiply in sorted value order, making the
    result invariant (bit-for-bit) under support isomorphisms.
    """
    p = inst.tab["p"]
    support = {u: v for u, v in x.items() if v > 0.0}
    for u, v in support.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"load {v} at node {u} outside [0,1]")
    touched: set = set(support)
    for u in list(support):
        for d in range(len(u) - 1, 0, -1):
            touched.add(u[:d])

    def E(v) -> float:
        d = len(v)
        xv = support.get(v, 0.0)
        kids = range(1, inst.arities[d] + 1) if d < inst.L else ()
        vals = sorted(E(v + (i,)) for i in kids if (v + (i,)) in touched)
        prod = 1.0
        for t in vals:
            prod *= t
        if d == 0:
            return prod
        return p[d] * (1.0 - xv) + (1.0 - p[d]) * prod

    return 1.0 - E(())


def tree_F_eval(inst: ShuffledTreeInstance, S) -> float:
    """min{ G(x^{rho_pi(S)}) + eps|S|/k, 1 }.

    rho_pi sends element a_{u,i} to a_{pi^{-1}(u),i}, so the load of
    node v is the count of S in A_{pi(v)}.
    """
    S = frozenset(S)
    counts: dict = {}
    for e in S:
        u = inst.node_of_element(e)
        v = inst.shuffle_node_inv(u)
        counts[v] = counts.get(v, 0) + 1
    x = {v: c / (inst.eps * inst.k) for v, c in counts.items()}
    return min(tree_G_exact(inst, x) + inst.eps * len(S) / inst.k, 1.0)


def traverse_stream(inst: ShuffledTreeInstance, d: int) -> Stream:
    """Limited-DFS stream: at each internal node insert all children's
    A-sets, recurse into the first d of them, then delete them all."""
    if d < 1 or any(d > m for m in inst.arities[:-1]):
        raise ValueError("d must be between 1 and the minimum arity")
    total = _stream_length(inst.arities, d, inst.w)
    if total > MAX_STREAM_OPS:
        raise ValueError(f"stream length {total} exceeds cap {MAX_STREAM_OPS}")
    ops: list[StreamOp] = []

    def visit(u):
        if len(u) == inst.L:
            return
        m = inst.arities[len(u)]
        below = [e for i in range(1, m + 1) for e in inst.elements_of(u + (i,))]
        ops.extend(StreamOp(INSERT, e) for e in below)
        for i in range(1, min(d, m) + 1):  # a depth L-1 node has one child
            visit(u + (i,))
        ops.extend(StreamOp(DELETE, e) for e in below)

    visit(())
    assert len(ops) == total
    return Stream(ops)


def _stream_length(arities, d: int, w):
    """Length of the traverse stream over a tree with these arities,
    `d` children visited per internal node and w elements per node."""
    L = len(arities)
    return (sum(d ** ell * arities[ell] * 2 * w for ell in range(L - 1))
            + d ** (L - 1) * 2 * w)


def traverse_leaves(inst: ShuffledTreeInstance, d: int) -> list:
    """Leaves visited by traverse_stream, in visit order."""
    out = []

    def rec(u):
        if len(u) == inst.L - 1:
            out.append(u + (1,))
            return
        for i in range(1, d + 1):
            rec(u + (i,))

    rec(())
    return out


def asymptotic_arities(n: int, k: int, eps: float):
    """The scaling m_ell = n^{(L-ell+1) eps}/(2k), d = n^eps; validates
    integrality and that the traverse stream has length <= n."""
    L = 1.0 / eps
    if abs(L - round(L)) > 1e-9:
        raise ValueError("1/eps must be an integer")
    L = int(round(L))
    arities = []
    for ell in range(1, L + 1):
        if ell == L:
            arities.append(1)
            continue
        m = n ** ((L - ell + 1) * eps) / (2 * k)
        if abs(m - round(m)) > 1e-6 or round(m) < 1:
            raise ValueError(f"arity at depth {ell} not a positive integer: {m}")
        arities.append(int(round(m)))
    d = n ** eps
    if abs(d - round(d)) > 1e-6:
        raise ValueError(f"d = {d} not an integer")
    d = int(round(d))
    total = _stream_length(arities, d, eps * k)
    if total > n:
        raise ValueError(f"stream length {total} exceeds n = {n}")
    return tuple(arities), d


def tree_descriptor(inst: ShuffledTreeInstance, seed: int, d: int) -> dict:
    """The instance drawn by random_tree_pi(arities, seed), and the
    width d of its traverse stream, as a JSON object."""
    return {
        "family": "tree",
        "seed": seed,
        "k": inst.k, "eps": inst.eps, "arities": list(inst.arities), "d": d,
        "pi": {json.dumps(u): {str(i): v for i, v in b.items()}
               for u, b in inst.pi.items()},
    }


_FIELDS = (("k", int), ("eps", (int, float)), ("arities", list), ("d", int),
           ("seed", int), ("pi", dict))


def tree_from_descriptor(desc: dict):
    """Rebuild (instance, d) from a descriptor.

    A missing or malformed field raises ValueError; a stored pi that
    random_tree_pi does not draw from the seed raises InvariantError.
    """
    for key, kind in _FIELDS:
        if key not in desc:
            raise ValueError(f"descriptor has no key {key!r}")
        if not isinstance(desc[key], kind):
            raise ValueError(f"descriptor field {key!r} is {desc[key]!r}")
    try:
        # a non-integer child drops out and fails the permutation check
        pi = {tuple(json.loads(u)): {int(i): v for i, v in b.items()
                                     if isinstance(v, int)}
              for u, b in desc["pi"].items()}
    except (TypeError, AttributeError):
        raise ValueError("descriptor pi is malformed") from None
    inst = ShuffledTreeInstance(k=desc["k"], eps=desc["eps"],
                                arities=desc["arities"], pi=pi)
    if pi != random_tree_pi(inst.arities, desc["seed"]):
        raise InvariantError("descriptor pi does not match its seed")
    return inst, desc["d"]


def verify_tree(inst: ShuffledTreeInstance, d: int) -> None:
    """Check the weight identity, that every shuffled root path is
    optimal, and that the traverse stream shows each visited leaf its
    sibling sets; raises InvariantError."""
    stream = traverse_stream(inst, d)  # first: it checks d and the length
    tab = weight_sequence(inst.L)
    for j in range(1, inst.L + 1):
        prod = tab["a"][j]
        for i in range(1, j):
            prod *= 1.0 - tab["a"][i] / tab["A_geq"][i]
        if abs(prod - 1.0) > 1e-9:
            raise InvariantError(f"weight identity fails at depth {j}")
    for leaf in inst.leaves:
        S = [e for v in inst.shuffled_path_sets(leaf)
             for e in inst.elements_of(v)]
        if len(S) != inst.k or tree_F_eval(inst, S) != 1.0:
            raise InvariantError(f"shuffled path of leaf {leaf} not optimal")
    live: set = set()
    visits = iter(traverse_leaves(inst, d))
    expect = next(visits, None)
    for op in stream:
        if op.kind == INSERT:
            live.add(op.element)
        else:
            live.discard(op.element)
        if expect is not None and live == {
                e for v in inst.sibling_sets(expect)
                for e in inst.elements_of(v)}:
            expect = next(visits, None)
    if expect is not None:
        raise InvariantError(f"leaf {expect} never saw its live set")
