import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub.hard_bipartite import (BipartiteInstance, SymGapParams,
                                   bipartite_descriptor, bipartite_eval,
                                   bipartite_eval_bruteforce,
                                   bipartite_from_descriptor, bipartite_stream,
                                   cell_key, fhat, phi, verify_bipartite)
from dynsub.oracle import CountedOracle, InvariantError, brute_force_opt
from dynsub.streams import DELETE, INSERT
from oracles import (analytic_F, analytic_Q, check_submodular_monotone,
                     literal_bipartite, literal_symmetric)


def test_phi_basics():
    p = SymGapParams.test_friendly(w=2, eps=0.5)
    assert phi(0.0, p) == 0.0
    for t in (0.001, 0.005, p.eps1):
        assert phi(t, p) == t
    assert phi(0.9, p) == phi(p.eps2, p)  # constant past eps2
    with pytest.raises(ValueError):
        phi(1.5, p)


def test_phi_slope_vanishes_at_upper_knee():
    # the paper's exact formulas, at the smallest (w, eps) where they stay
    # representable in double precision
    w, eps = 2, 0.9
    gamma = math.exp(-4.0 * w ** 6 / eps) / w
    p = SymGapParams(w=w, eps=eps, gamma=gamma, eps1=w * gamma,
                     eps2=math.exp(-2.0 * w ** 6 / eps),
                     phi_alpha=eps / (2.0 * w ** 6))
    assert p.gamma > 0 and p.eps2 > p.eps1 > 0
    slope = 1.0 - p.phi_alpha * math.log(p.eps2 / p.eps1)
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_fhat_bounds_and_symmetry():
    p = SymGapParams.test_friendly(w=3, eps=0.4)
    assert fhat([0.0, 0.0, 0.0], p) == 0.0
    for c in (0.1, 0.5, 0.9):
        g = 1.0 - (1.0 - c) ** 3
        assert fhat([c, c, c], p) == pytest.approx(g, abs=1e-12)
    rng = random.Random(0)
    for _ in range(200):
        x = [rng.random() for _ in range(3)]
        f = 1.0 - (1 - x[0]) * (1 - x[1]) * (1 - x[2])
        v = fhat(x, p)
        assert f - p.eps - 1e-9 <= v <= f + 1e-12


def test_fhat_collapses_on_balanced_inputs():
    p = SymGapParams.test_friendly(w=3, eps=0.4)
    rng = random.Random(1)
    for _ in range(100):
        base = rng.random() * (1 - p.gamma)
        x = [base + rng.random() * p.gamma for _ in range(3)]
        g = 1.0 - (1.0 - math.fsum(x) / 3) ** 3
        assert fhat(x, p) == pytest.approx(g, abs=1e-9)


def test_factorization_matches_literal_sum():
    rng = random.Random(2)
    for seed in range(5):
        inst = BipartiteInstance(m=5, k=4, w=2, eps=0.33, seed=seed)
        ids = sorted(inst.ground)
        for _ in range(20):
            S = frozenset(rng.sample(ids, rng.randint(0, 14)))
            assert bipartite_eval(inst, S) == pytest.approx(
                bipartite_eval_bruteforce(inst, S), abs=1e-9)


def test_value_structure():
    inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=7)
    assert bipartite_eval(inst, frozenset()) == 0.0
    for i in range(1, 4):
        for j in range(1, 3):
            S = frozenset(inst.ids[("A", inst.pi[i], j)] + inst.ids[("B", i, j)])
            assert bipartite_eval(inst, S) >= 1 - inst.eps - 1e-9
    big = frozenset(sorted(inst.ground)[:math.ceil(inst.k / inst.eps)])
    assert bipartite_eval(inst, big) == 1.0


def test_submodular_monotone_sampler():
    inst = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=3)
    o = CountedOracle(lambda S: bipartite_eval(inst, S), inst.ground)
    assert check_submodular_monotone(o, trials=2000, seed=5, tol=1e-7).ok


def is_balanced(inst, S) -> bool:
    return all(max(v) - min(v) <= inst.gamma
               for side in inst.loads(S) for v in side.values())


def test_balancedness():
    inst = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=4)
    assert is_balanced(inst, frozenset())
    # one full color class of one A-block deviates by 1/(alpha k) > gamma
    S = frozenset(inst.ids[("A", 1, 1)])
    assert not is_balanced(inst, S)
    # equal counts per color stay balanced
    S = frozenset(inst.ids[("A", 1, 1)] + inst.ids[("A", 1, 2)])
    assert is_balanced(inst, S)


def test_analytic_endpoints():
    a, b = 0.56, 0.42
    assert analytic_F(a, b, 1.0) == pytest.approx(
        (1 - b) * (1 - math.exp(-1 / (1 - a))))
    assert analytic_F(a, b, 0.0) == pytest.approx(1 - math.exp(-b / a))


def test_gap_constant():
    q = analytic_Q(0.56, 0.42)
    assert q < 0.5839
    assert analytic_Q(0.5, 0.5) > q


def test_stream_shape():
    inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=5)
    s = bipartite_stream(inst)
    assert len(s) == int((2 - inst.part_alpha) * inst.m * inst.k * inst.w)
    n_A = int(inst.part_alpha * inst.m * inst.k * inst.w)
    assert all(op.kind == INSERT for op in s.ops[:n_A])
    assert sum(op.kind == DELETE for op in s.ops) == \
        int((1 - inst.part_alpha) * inst.m * inst.k * inst.w)


def test_integrality_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(m=2, k=3, w=2, eps=0.33, part_alpha=0.5)
    for k, alpha in ((0, 0.5), (4, 1.0), (4, 0.0)):  # an empty side
        with pytest.raises(ValueError, match="positive integers"):
            BipartiteInstance(m=2, k=k, w=2, eps=0.33, part_alpha=alpha)


def test_refuses_a_non_monotone_or_empty_instance():
    # beta outside (0, 1) gives one B element a negative value
    for beta in (1.5, -0.5, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="beta must be in"):
            BipartiteInstance(m=2, k=4, w=2, eps=0.33, beta=beta)
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            BipartiteInstance(m=m, k=4, w=2, eps=0.33)


def test_verify_and_descriptor_round_trip():
    for seed in range(5):
        inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=seed)
        verify_bipartite(inst)
        desc = json.loads(json.dumps(bipartite_descriptor(inst)))
        back = bipartite_from_descriptor(desc)
        assert back.slot == inst.slot and back.pi == inst.pi
        with pytest.raises(InvariantError, match="its seed produces"):
            bipartite_from_descriptor(dict(desc, seed=seed + 1))


def sample_agreeing_triple(inst, rng):
    ids = sorted(inst.ground)
    while True:
        S = frozenset(rng.sample(ids, rng.randint(1, 3 * inst.k)))
        p1 = list(range(1, inst.m + 1))
        rng.shuffle(p1)
        p2 = list(range(1, inst.m + 1))
        rng.shuffle(p2)
        pi1 = dict(enumerate(p1, start=1))
        pi2 = dict(enumerate(p2, start=1))
        ok = True
        touched_B = {i for e in S if inst.slot[e][0] == "B"
                     for i in [inst.slot[e][1]]}
        touched_A = {i for e in S if inst.slot[e][0] == "A"
                     for i in [inst.slot[e][1]]}
        for i in range(1, inst.m + 1):
            if pi1[i] == pi2[i] or i not in touched_B:
                continue
            if pi1[i] in touched_A or pi2[i] in touched_A:
                ok = False
                break
        if ok:
            return S, pi1, pi2


def test_indistinguishability_bit_identity():
    inst = BipartiteInstance(m=4, k=4, w=2, eps=0.33, seed=9)
    rng = random.Random(13)
    nontrivial = 0
    for _ in range(300):
        S, pi1, pi2 = sample_agreeing_triple(inst, rng)
        if pi1 != pi2:
            nontrivial += 1
        assert (literal_symmetric(inst, S, pi=pi1)
                == literal_symmetric(inst, S, pi=pi2))
    assert nontrivial > 50


def test_golden_layout_and_values():
    # pinned outputs of the construction; a refactor must keep them exact
    inst = BipartiteInstance(m=2, k=2, w=2, eps=0.33, seed=1)
    assert inst.pi == {1: 2, 2: 1}
    assert inst.slot == {0: ("A", 1, 2), 1: ("A", 1, 1), 2: ("A", 2, 1),
                         3: ("A", 2, 2), 4: ("B", 1, 2), 5: ("B", 1, 1),
                         6: ("B", 2, 1), 7: ("B", 2, 2)}
    assert repr(bipartite_eval(inst, {0})) == "0.5281073185321948"
    inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=7)
    got = [repr(bipartite_eval(inst, S))
           for S in ({0}, {0, 13}, {1, 5, 14, 20})]
    assert got == ["0.2663005065609123", "0.555968055614106",
                   "0.9874927696376887"]
    assert repr(analytic_Q(0.56, 0.42)) == "0.5838904502091968"
    assert repr(analytic_Q(0.5, 0.5)) == "0.6321205588285577"


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 5), a_k=st.integers(1, 3), b_k=st.integers(1, 3),
       w=st.integers(2, 4), eps=st.floats(0.11, 0.99),
       beta=st.floats(0.01, 0.99), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_memoised_evaluators_match_the_literal_formula(m, a_k, b_k, w, eps,
                                                       beta, seed, data):
    k = a_k + b_k  # alpha*k = a_k elements per A color class
    inst = BipartiteInstance(m=m, k=k, w=w, eps=eps, part_alpha=a_k / k,
                             beta=beta, seed=seed)
    ids = sorted(inst.ground)
    for _ in range(6):
        S = data.draw(st.sets(st.sampled_from(ids)))
        assert bipartite_eval(inst, S) == literal_bipartite(inst, S)


def test_block_memo_stays_within_its_bound():
    inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33)
    bound = (inst.a_class + 1) ** inst.w + (inst.b_class + 1) ** inst.w
    for S in small_sets(inst, inst.k):
        bipartite_eval(inst, S)
    assert len(inst.block_memo) == bound == 18  # every count vector seen


def test_block_memo_belongs_to_its_instance():
    # same seed, so the same layout and pairing; eps changes every fhat
    lo = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=2)
    hi = BipartiteInstance(m=3, k=4, w=2, eps=0.66, seed=2)
    assert lo.slot == hi.slot and lo.pi == hi.pi
    S = frozenset(lo.ids[("A", 1, 1)])  # unbalanced: f and fhat differ
    a, b = bipartite_eval(lo, S), bipartite_eval(hi, S)
    assert a != b
    assert a == literal_bipartite(lo, S) and b == literal_bipartite(hi, S)
    assert lo.block_memo.keys() == hi.block_memo.keys()
    assert lo.block_memo != hi.block_memo
    assert lo.value_memo == {cell_key(lo, S): a}
    assert hi.value_memo == {cell_key(hi, S): b}


def small_sets(inst, most):
    """Every set of at most `most` ids, by size, then lexicographically:
    isomorphic sets recur, as in a brute-force walk."""
    ids = sorted(inst.ground)
    return [frozenset(c) for j in range(most + 1)
            for c in itertools.combinations(ids, j)]


def count_vector(inst, S):
    return frozenset(Counter(inst.slot[e] for e in S).items())


def test_value_memo_is_exact_in_walk_order():
    inst = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=3)
    sets = small_sets(inst, 4)
    for S in sets:  # a later set hits the entry of an earlier isomorphic one
        assert bipartite_eval(inst, S) == literal_bipartite(inst, S)
    # one entry per count vector evaluated, far fewer than the evaluations
    vectors = {count_vector(inst, S) for S in sets}
    assert len(inst.value_memo) == len(vectors) < len(sets) == 2517


def test_cell_key_is_the_count_vector():
    inst = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=3)
    vector_of: dict = {}  # key -> the count vectors of the sets with it
    for S in small_sets(inst, 4):
        vector_of.setdefault(cell_key(inst, S), set()).add(
            count_vector(inst, S))
    # one vector per key, and distinct keys for distinct vectors
    assert all(len(v) == 1 for v in vector_of.values())
    assert len(set().union(*vector_of.values())) == len(vector_of)


def test_brute_force_tie_goes_to_the_smallest_id_tuple():
    inst = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=5)
    f = lambda S: bipartite_eval(inst, S)
    values = {tuple(sorted(S)): f(S) for S in small_sets(inst, inst.k)}
    opt = max(values.values())
    ties = [ids for ids, v in values.items() if v == opt]
    assert opt == 1.0 and len(ties) == 1236  # the value cap, reached often
    scratch = brute_force_opt(CountedOracle(f, inst.ground), k=inst.k)
    assert tuple(sorted(scratch[0])) == min(ties) and scratch[1] == opt
    order = sorted(inst.ground)
    random.Random(5).shuffle(order)  # a walk order unlike the sorted one
    oracle, res = CountedOracle(f, inst.ground), None
    for t in range(1, len(order) + 1):
        res = brute_force_opt(oracle, ground=order[:t], k=inst.k, prev=res)
    assert res[0] == scratch[0] and repr(res[1]) == repr(scratch[1])


def test_full_color_class_load_is_exactly_one():
    # part_alpha*k = 28.999999999999996 here; dividing by it gave a full
    # A color class the load 1.0000000000000002
    inst = BipartiteInstance(m=1, k=100, w=2, eps=0.33, part_alpha=0.29)
    assert (inst.a_class, inst.b_class) == (29, 71)
    y, z = inst.loads(inst.ground)
    assert y == z == {1: [1.0, 1.0]}
