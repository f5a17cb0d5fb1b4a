import json
import math
import random
from collections import Counter

import pytest

from dynsub.hard_tree import (ShuffledTreeInstance, asymptotic_arities,
                              random_tree_pi, traverse_leaves, traverse_stream,
                              tree_descriptor, tree_F_eval,
                              tree_from_descriptor, tree_G_exact, tree_sample,
                              verify_tree, weight_sequence)
from dynsub.oracle import InvariantError


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
        touched = sorted({i1.node_of_element(e) for e in S})
        ok = True
        for a in range(len(touched)):
            for b in range(a + 1, len(touched)):
                u, v = touched[a], touched[b]
                if lca_depth(i1.shuffle_node_inv(u), i1.shuffle_node_inv(v)) \
                        != lca_depth(i2.shuffle_node_inv(u),
                                     i2.shuffle_node_inv(v)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        found += 1
        if {i1.shuffle_node_inv(u) for u in touched} != \
                {i2.shuffle_node_inv(u) for u in touched}:
            nontrivial += 1
        assert tree_F_eval(i1, S) == tree_F_eval(i2, S)
    assert nontrivial > 0


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
