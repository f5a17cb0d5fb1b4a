import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub.hard_tree import (ShuffledTreeInstance, _stream_length,
                              node_key, random_tree_pi, traverse_leaves,
                              traverse_stream, tree_descriptor, tree_F_eval,
                              tree_from_descriptor, tree_G_exact, verify_tree,
                              weight_sequence)
from dynsub.matroid_dynamic import BranchParams, MatroidHalf
from dynsub.matroids import UniformMatroid
from dynsub.oracle import CountedOracle, InvariantError
from oracles import tree_sample


def test_weight_sequence_identities():
    for L in range(1, 11):
        tab = weight_sequence(L)
        assert abs(math.fsum(tab["w"][1:]) - 1.0) < 1e-12
        assert tab["p"][L] == 1.0
        for j in range(1, L + 1):
            prod = tab["a"][j]
            for i in range(1, j):
                prod *= 1.0 - tab["a"][i] / tab["A_geq"][i]
            assert abs(prod - 1.0) < 1e-9
        for j in range(1, L + 1):
            ratio = tab["A_geq"][L - j + 1] / tab["a"][L - j + 1]
            H = sum(1.0 / i for i in range(1, j + 1))
            assert 2 * j - H - 1e-9 <= ratio <= 2 * j - 1 + 1e-9


def test_weight_sequence_small_values():
    t1 = weight_sequence(1)
    assert t1["w"][1] == 1.0 and t1["p"][1] == 1.0
    t2 = weight_sequence(2)
    assert t2["delta"][1] == pytest.approx(1 + (1 + math.sqrt(5)) / 2, abs=1e-6)
    assert t2["w"][1] == pytest.approx(0.381966, abs=1e-6)
    assert t2["w"][2] == pytest.approx(0.618034, abs=1e-6)


def tiny_tree(pi=None):
    return ShuffledTreeInstance(k=9, eps=1 / 3, arities=(3, 2, 1), pi=pi)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShuffledTreeInstance(k=4, eps=0.3, arities=(2, 2, 1))  # 1/eps not int
    with pytest.raises(ValueError):
        ShuffledTreeInstance(k=3, eps=0.5, arities=(2, 1))  # eps*k not int
    with pytest.raises(ValueError):
        ShuffledTreeInstance(k=4, eps=0.5, arities=(2, 2))  # last arity != 1
    with pytest.raises(ValueError):
        ShuffledTreeInstance(k=4, eps=0.0, arities=(1,))
    for bad in ({1: 1, 2: 1}, {1: 2}, {1: 2, 2: 3}, {1: "2", 2: 1}):
        with pytest.raises(ValueError, match="not a permutation"):
            ShuffledTreeInstance(k=4, eps=0.5, arities=(2, 1),
                                 pi={(): bad})


def test_sample_hits_each_path_once():
    inst = tiny_tree()
    for s in range(300):
        R = tree_sample(inst, s)
        for leaf in inst.leaves:
            assert sum(leaf[:d] in R for d in range(1, 4)) == 1


def test_sample_depth_frequencies():
    inst = tiny_tree()
    trials = 30_000
    cnt = Counter()
    for s in range(trials):
        for u in tree_sample(inst, s):
            cnt[len(u)] += 1
    per_depth = [3, 6, 6]
    for d in range(1, 4):
        emp = cnt[d] / trials / per_depth[d - 1]
        assert abs(emp - inst.tab["w"][d]) <= 0.01


def test_L1_sample_returns_all_depth1_nodes():
    inst = ShuffledTreeInstance(k=2, eps=1.0, arities=(1,))
    assert tree_sample(inst, 0) == {(1,)}


def test_G_exact_basics():
    inst = tiny_tree()
    assert tree_G_exact(inst, {}) == 0.0
    path = {(1,): 1.0, (1, 2): 1.0, (1, 2, 1): 1.0}
    assert tree_G_exact(inst, path) == 1.0


def test_G_exact_refuses_bad_keys_and_loads():
    inst = tiny_tree()
    for x in ({(1,): -0.5}, {(1,): math.nan}, {(1,): 1.5},
              {(2, 1): 0.0, (1,): -0.0001}):
        with pytest.raises(ValueError, match="outside"):
            tree_G_exact(inst, x)
    for x in ({(7,): 0.5}, {(): 0.5}, {(1, 3): 0.5}, {(1, 2, 1, 1): 0.5},
              {(1, 2, 2): 0.0}, {"1": 0.5}):
        with pytest.raises(ValueError, match="not a non-root node"):
            tree_G_exact(inst, x)


# Test oracle: the top-down recursion over the support's ancestors.
def recursive_G(inst, x):
    p = inst.tab["p"]
    support = {u: v for u, v in x.items() if v > 0.0}
    touched = set(support)
    for u in support:
        for d in range(len(u) - 1, 0, -1):
            touched.add(u[:d])

    def E(v):
        d = len(v)
        kids = range(1, inst.arities[d] + 1) if d < inst.L else ()
        vals = sorted(E(v + (i,)) for i in kids if v + (i,) in touched)
        prod = 1.0
        for t in vals:
            prod *= t
        if d == 0:
            return prod
        return p[d] * (1.0 - support.get(v, 0.0)) + (1.0 - p[d]) * prod

    return 1.0 - E(())


def owner(inst, e):
    """The node whose element block holds e."""
    return next(v for v in inst.base_id if e in inst.elements_of(v))


def unshuffle(inst, v):
    """pi^{-1}(v): the child whose image under the parent's pi is v."""
    if not v:
        return v
    return v[:-1] + (next(i for i, j in inst.pi[v[:-1]].items()
                          if j == v[-1]),)


def load_counts(inst, S):
    """Node -> how many elements of S add to its load."""
    return Counter(unshuffle(inst, owner(inst, e)) for e in S)


def recursive_F(inst, S):
    S = frozenset(S)
    x = {v: c / inst.w for v, c in load_counts(inst, S).items()}
    return min(recursive_G(inst, x) + inst.eps * len(S) / inst.k, 1.0)


@st.composite
def trees(draw):
    L = draw(st.integers(1, 4))
    arities = tuple(draw(st.lists(st.integers(1, 4), min_size=L - 1,
                                  max_size=L - 1))) + (1,)
    k = L * draw(st.integers(1, 3))
    return ShuffledTreeInstance(
        k=k, eps=1 / L, arities=arities,
        pi=random_tree_pi(arities, draw(st.integers(0, 10 ** 6))))


@settings(max_examples=150, deadline=None)
@given(inst=trees(), data=st.data())
def test_bottom_up_G_and_F_match_the_recursion(inst, data):
    nodes = sorted(inst.base_id)
    loads = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    for _ in range(6):
        x = data.draw(st.dictionaries(st.sampled_from(nodes), loads))
        assert tree_G_exact(inst, x) == recursive_G(inst, x)
        # every node loaded: many touched siblings, so product order shows
        rnd = data.draw(st.randoms(use_true_random=False))
        x = {u: rnd.random() for u in nodes}
        assert tree_G_exact(inst, x) == recursive_G(inst, x)
        S = data.draw(st.sets(st.sampled_from(sorted(inst.ground))))
        assert tree_F_eval(inst, S) == recursive_F(inst, S)


def test_G_exact_matches_monte_carlo():
    inst = tiny_tree()
    rng = random.Random(5)
    nodes = sorted({leaf[:d] for leaf in inst.leaves for d in range(1, 4)})
    for rep in range(3):
        x = {u: rng.random() for u in rng.sample(nodes, 5)}
        exact = tree_G_exact(inst, x)
        N = 30_000
        acc = 0.0
        for s in range(N):
            prod = 1.0
            for u in tree_sample(inst, rep * N + s):
                prod *= 1.0 - x.get(u, 0.0)
            acc += 1.0 - prod
        assert abs(exact - acc / N) <= 0.01


def test_F_eval_path_and_saturation():
    pi = random_tree_pi((3, 2, 1), seed=4)
    inst = tiny_tree(pi=pi)
    assert tree_F_eval(inst, frozenset()) == 0.0
    for leaf in inst.leaves:
        S = [e for v in inst.shuffled_path_sets(leaf)
             for e in inst.elements_of(v)]
        assert len(set(S)) == inst.k
        assert tree_F_eval(inst, S) == 1.0
    big = sorted(inst.ground)[:math.ceil(inst.k / inst.eps)]
    assert tree_F_eval(inst, big) == 1.0


def test_traverse_stream_shape_and_live_sets():
    inst = tiny_tree()
    d = 2
    s = traverse_stream(inst, d)
    want = sum(d ** ell * inst.arities[ell] * 2 * inst.w
               for ell in range(inst.L - 1)) + d ** (inst.L - 1) * 2 * inst.w
    assert len(s) == want
    leaves = traverse_leaves(inst, d)
    assert leaves == [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
    live = set()
    hits = []
    li = 0
    for op in s:
        (live.add if op.kind == "I" else live.discard)(op.element)
        if li < len(leaves):
            W = {e for v in inst.sibling_sets(leaves[li])
                 for e in inst.elements_of(v)}
            if live == W:
                hits.append(leaves[li])
                li += 1
    assert hits == leaves


def test_verify_and_descriptor_round_trip():
    arities = (3, 2, 1)
    for seed in range(5):
        inst = tiny_tree(random_tree_pi(arities, seed))
        verify_tree(inst, 2)
        desc = json.loads(json.dumps(tree_descriptor(inst, seed, 2)))
        back, d = tree_from_descriptor(desc)
        assert back.pi == inst.pi and back.arities == arities and d == 2
        with pytest.raises(InvariantError, match="does not match its seed"):
            tree_from_descriptor(dict(desc, seed=seed + 1))


def test_traverse_single_level():
    inst = ShuffledTreeInstance(k=2, eps=1.0, arities=(1,))
    s = traverse_stream(inst, 1)
    assert [op.kind for op in s] == ["I", "I", "D", "D"]


def lca_depth(a, b):
    d = 0
    for x, y in zip(a, b):
        if x != y:
            break
        d += 1
    return d


def test_shuffle_invariance_under_lca_condition():
    rng = random.Random(2)
    arities = (3, 2, 1)
    found = nontrivial = 0
    while found < 40:
        i1 = tiny_tree(pi=random_tree_pi(arities, rng.randrange(10 ** 6)))
        i2 = tiny_tree(pi=random_tree_pi(arities, rng.randrange(10 ** 6)))
        S = frozenset(rng.sample(sorted(i1.ground), rng.randint(1, 10)))
        touched = sorted({owner(i1, e) for e in S})
        ok = True
        for a in range(len(touched)):
            for b in range(a + 1, len(touched)):
                u, v = touched[a], touched[b]
                if lca_depth(unshuffle(i1, u), unshuffle(i1, v)) \
                        != lca_depth(unshuffle(i2, u), unshuffle(i2, v)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        found += 1
        if {unshuffle(i1, u) for u in touched} != \
                {unshuffle(i2, u) for u in touched}:
            nontrivial += 1
        assert tree_F_eval(i1, S) == tree_F_eval(i2, S)
    assert nontrivial > 0


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


def test_asymptotic_preset_validation():
    arities, d = asymptotic_arities(n=2 ** 20, k=2 ** 4, eps=0.25)
    assert d == 2 ** 5 and arities[-1] == 1
    assert arities[0] == 2 ** 20 // (2 * 2 ** 4)
    with pytest.raises(ValueError):
        asymptotic_arities(n=1000, k=3, eps=0.25)


def test_golden_stream_weights_and_values():
    # pinned outputs of the construction; a refactor must keep them exact
    inst = ShuffledTreeInstance(k=4, eps=0.5, arities=(2, 1),
                                pi=random_tree_pi((2, 1), 1))
    assert inst.pi[()] == {1: 2, 2: 1}
    ops = " ".join(f"{op.kind}{op.element}" for op in traverse_stream(inst, 2))
    assert ops == "I0 I1 I2 I3 I4 I5 D4 D5 I6 I7 D6 D7 D0 D1 D2 D3"
    assert [repr(x) for x in weight_sequence(4)["a"]] == [
        "0.0", "1.0", "1.1912142245602164", "1.5425782259138918",
        "2.4959439998341906"]
    inst = tiny_tree(pi=random_tree_pi((3, 2, 1), seed=4))
    got = [repr(tree_F_eval(inst, S))
           for S in ({0}, {0, 3, 9}, {2, 5, 20, 33})]
    assert got == ["0.11296273844849741", "0.34115538361865055",
                   "0.5133812755098358"]


def test_full_node_load_is_exactly_one():
    # eps*k = 0.9999999999999999 here; dividing by it gave a full node
    # the load 1.0000000000000002, which tree_G_exact refused
    inst = ShuffledTreeInstance(k=49, eps=1 / 49, arities=(1,) * 49)
    assert inst.w == 1
    assert tree_F_eval(inst, inst.ground) == 1.0


def test_value_memo_is_exact_on_a_guided_replay():
    arities = (3, 2, 1)
    inst = tiny_tree(pi=random_tree_pi(arities, seed=2))
    queried = []  # (S, value) of every set the replay queries, in order

    def f(S):
        v = tree_F_eval(inst, S)
        queried.append((S, v))
        return v

    half = MatroidHalf(CountedOracle(f, inst.ground),
                       UniformMatroid(inst.k, inst.ground),
                       BranchParams.standard(inst.k, inst.eps, 1.0))
    order = sorted(inst.ground)
    random.Random(2).shuffle(order)
    for e in order:
        half.insert(e)
        half.solution()
    for S, v in queried:
        x = {u: c / inst.w for u, c in load_counts(inst, S).items()}
        assert v == min(tree_G_exact(inst, x) + inst.eps * len(S) / inst.k,
                        1.0)
    # one entry per count vector evaluated, fewer than the evaluations
    vectors = {frozenset(load_counts(inst, S).items()) for S, _ in queried}
    assert len(inst.value_memo) == len(vectors) < len(queried)


def test_node_key_is_the_count_vector():
    inst = tiny_tree(pi=random_tree_pi((3, 2, 1), seed=4))
    vector_of: dict = {}  # key -> the count vectors of the sets with it
    for j in range(4):
        for S in itertools.combinations(sorted(inst.ground), j):
            vector_of.setdefault(node_key(inst, S), set()).add(
                frozenset(load_counts(inst, S).items()))
    # one vector per key, and distinct keys for distinct vectors
    assert all(len(v) == 1 for v in vector_of.values())
    assert len(set().union(*vector_of.values())) == len(vector_of)


def test_value_memo_belongs_to_its_instance():
    # one set, one key, two values: w = 3 and w = 6 give other loads
    a = tiny_tree()
    b = ShuffledTreeInstance(k=18, eps=1 / 3, arities=(3, 2, 1))
    S = frozenset({0, 1})  # two elements of node (1,) in both
    assert node_key(a, S) == node_key(b, S)
    va, vb = tree_F_eval(a, S), tree_F_eval(b, S)
    assert va != vb
    assert va == recursive_F(a, S) and vb == recursive_F(b, S)
    assert a.value_memo == {node_key(a, S): va}
    assert b.value_memo == {node_key(b, S): vb}
