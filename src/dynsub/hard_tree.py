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
from collections import Counter

from dynsub.oracle import InvariantError
from dynsub.streams import Stream, StreamOp, INSERT, DELETE

MAX_STREAM_OPS = 2_000_000  # cap on the length of a traverse stream
# cap on the elements of a hard instance, checked before any table is
# built; a stream inserts and deletes each element at most once
MAX_ELEMENTS = MAX_STREAM_OPS // 2


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
        if n_nodes * self.w > MAX_ELEMENTS:
            raise ValueError(f"{n_nodes * self.w} elements exceed cap "
                             f"{MAX_ELEMENTS}")
        self.tab = weight_sequence(self.L)
        # pi: internal node -> {child index -> permuted index}, the identity
        # where the caller gives no entry; element ids go in BFS node order.
        # Per element: the index of the node pi^{-1}(owner) whose load it
        # adds to in tree_F_eval; node index i is self._nodes[i]
        given = pi or {}
        self.pi: dict = {}
        self.base_id: dict = {}
        self._load_node: dict[int, int] = {}
        self._nodes: list[tuple] = []
        # node_key(S) -> tree_F_eval(S); one entry per count vector
        # evaluated
        self.value_memo: dict = {}
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
                self.pi[u] = b
                # child i of u will be node base + i
                base = len(self._nodes) + len(nxt) - 1
                for i in kids:
                    v, load = u + (i,), base + inv[i]
                    self.base_id[v] = nid
                    for e in range(nid, nid + self.w):
                        self._load_node[e] = load
                    nid += self.w
                    nxt.append(v)
            self._nodes += nxt
            frontier = nxt
        unknown = given.keys() - self.pi.keys()
        if unknown:
            raise ValueError(f"pi names {unknown.pop()!r}, which is not an "
                             f"internal node")
        self.leaves = frontier
        self.n = nid
        self.ground = frozenset(range(nid))

    # --- node helpers -------------------------------------------------
    def elements_of(self, u) -> list[int]:
        b = self.base_id[u]
        return list(range(b, b + self.w))

    def shuffle_node(self, v):
        """pi(v): last coordinate permuted by the parent's bijection."""
        if not v:
            return v
        return v[:-1] + (self.pi[v[:-1]][v[-1]],)

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


def tree_G_exact(inst: ShuffledTreeInstance, x: dict) -> float:
    """Exact expectation of 1 - prod_{u in R}(1 - x_u) over R.

    x maps non-root nodes to loads in [0, 1]; any other key or load
    raises ValueError.  Per node, E(v) = p_d (1 - x_v) + (1 - p_d) prod
    E(child), and a subtree without support has E = 1, so one bottom-up
    pass over the support and its ancestors, deepest first, gives E at
    the root.  Child products multiply in sorted value order, making the
    result invariant (bit-for-bit) under support isomorphisms.
    """
    for u, v in x.items():
        if u not in inst.base_id:
            raise ValueError(f"{u!r} is not a non-root node of the tree")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"load {v} at node {u} outside [0,1]")
    support = {u: v for u, v in x.items() if v > 0.0}
    levels: list = [[] for _ in range(inst.L + 1)]  # touched nodes by depth
    seen: set = set()
    for u in support:
        while u and u not in seen:  # an ancestor in seen has all of its own
            seen.add(u)
            levels[len(u)].append(u)
            u = u[:-1]
    p = inst.tab["p"]
    kids: dict = {}  # node -> E of its touched children
    for d in range(inst.L, 0, -1):
        for v in levels[d]:
            prod = 1.0
            for t in sorted(kids.pop(v, ())):
                prod *= t
            kids.setdefault(v[:-1], []).append(
                p[d] * (1.0 - support.get(v, 0.0)) + (1.0 - p[d]) * prod)
    prod = 1.0
    for t in sorted(kids.get((), ())):
        prod *= t
    return 1.0 - prod


def node_key(inst: ShuffledTreeInstance, S) -> tuple:
    """The sorted load-node indices of the elements of S, a set.  Two
    sets have the same key exactly when they put the same load on every
    node."""
    return tuple(sorted(map(inst._load_node.__getitem__, S)))


def tree_F_eval(inst: ShuffledTreeInstance, S) -> float:
    """min{ G(x^{rho_pi(S)}) + eps|S|/k, 1 }.

    rho_pi sends element a_{u,i} to a_{pi^{-1}(u),i}, so the load of
    node v is the count of S in A_{pi(v)}.  The value depends on S only
    through these counts, so it is computed once per `node_key` and read
    from the instance's `value_memo` after that.
    """
    key = node_key(inst, frozenset(S))
    val = inst.value_memo.get(key)
    if val is None:
        x = {inst._nodes[i]: c / inst.w for i, c in Counter(key).items()}
        val = inst.value_memo[key] = min(
            tree_G_exact(inst, x) + inst.eps * len(key) / inst.k, 1.0)
    return val


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
