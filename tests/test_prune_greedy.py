import math
import random

import pytest

from dynsub.matroid_dynamic import (BranchParams, InvariantError,
                                    MatroidHalf, PruneGreedyState,
                                    branch_count, enumerate_branches,
                                    reference_lpass, run_prune_greedy)
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import ModularFunction, random_coverage
from dynsub.oracle import EnumerationBudgetError, brute_force_opt


def random_partition_instance(seed, n_max=20, rank_max=4):
    rng = random.Random(seed)
    n = rng.randint(8, n_max)
    f = random_coverage(n, rng.randint(6, 15), seed)
    n_blocks = rng.randint(2, 4)
    blocks = {e: rng.randrange(n_blocks) for e in range(n)}
    caps = {b: rng.randint(1, 2) for b in range(n_blocks)}
    while sum(min(caps[b], sum(1 for e in blocks.values() if e == b))
              for b in caps) > rank_max:
        hot = max(caps, key=lambda b: caps[b])
        if caps[hot] <= 1:
            break
        caps[hot] -= 1
    M = PartitionMatroid(blocks, caps)
    order = sorted(f.ground)
    rng.shuffle(order)
    return f, M, order


def test_branch_enumeration_counts():
    assert list(enumerate_branches(1, 2)) == [(0,), (1,), (2,)]
    assert set(enumerate_branches(2, 1)) == {(0, 0), (0, 1), (1, 0)}
    assert len(list(enumerate_branches(2, 2))) == 6
    for L in range(1, 5):
        for R in range(0, 9):
            got = list(enumerate_branches(L, R))
            assert len(got) == branch_count(L, R)
            assert len(set(got)) == len(got)
            assert all(sum(a) <= R and len(a) == L for a in got)


def test_branch_enumeration_budget():
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_branches(8, 40))


def test_all_zero_branch_terminates_immediately():
    f = ModularFunction({0: 1.0})
    params = BranchParams(L=2, R=3, delta=2 / 3, opt=1.0, epsilon=0.5)
    st = PruneGreedyState(f.as_oracle(), UniformMatroid(1, {0}), params,
                          (0, 0))
    st.insert(0)
    assert st.terminated and st.solution() == frozenset()


def test_single_level_modular_hand_trace():
    f = ModularFunction({0: 0.4, 1: 2.0, 2: 3.0})
    params = BranchParams(L=1, R=1, delta=4.0, opt=2.0, epsilon=0.5)
    st = PruneGreedyState(f.as_oracle(), UniformMatroid(1, {0, 1, 2}),
                          params, (1,))
    st.insert(0)  # below the level-1 threshold of 2.0
    assert st.solution() == frozenset()
    st.insert(1)  # accepted; budget 4.0 - 2.0 stays positive
    assert st.solution() == {1} and not st.terminated


def test_reference_empty_prefix():
    f = ModularFunction({0: 1.0})
    params = BranchParams(L=2, R=3, delta=2 / 3, opt=1.0, epsilon=0.5)
    res = reference_lpass([], f.as_oracle(), UniformMatroid(1, {0}),
                          params)
    assert res.T == frozenset() and res.a_star == (0, 0)


def test_reference_modular_two_elements():
    f = ModularFunction({0: 3.0, 1: 2.5})
    M = UniformMatroid(2, {0, 1})
    params = BranchParams.standard(2, 0.33, opt=5.5)
    res = reference_lpass([0, 1], f.as_oracle(), M, params)
    # both clear the pass-1 threshold of opt/1... no: threshold is opt itself
    # at level 1 only for marginals >= opt; here neither does, they land in
    # later passes, but total mass bound still holds
    assert sum(res.a_star) * params.delta < 2 * 5.5


def test_pruned_mass_bound():
    for seed in range(20):
        f, M, order = random_partition_instance(seed)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, 0.33, opt)
        res = reference_lpass(order, oracle, M, params)
        assert sum(res.a_star) * params.delta < 2 * opt
        assert sum(res.a_star) <= params.R


def test_parity_with_reference_50_seeds():
    for seed in range(50):
        f, M, order = random_partition_instance(seed)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, 0.33, opt)
        res = reference_lpass(order, oracle, M, params)
        st = run_prune_greedy(order, oracle, M, params, res.a_star)
        assert st.terminated, f"seed {seed}: did not terminate in prefix"
        assert st.solution() == res.T, f"seed {seed}: sets differ"


@pytest.mark.parametrize("eps", [0.2, 0.33, 0.5])
def test_reference_value_is_pruned_greedy_value(eps):
    # LPassResult.value is h(T) summed the way the online cache sums it
    for seed in range(200):
        f, M, order = random_partition_instance(seed + 300)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, eps, opt)
        res = reference_lpass(order, oracle, M, params)
        st = run_prune_greedy(order, oracle, M, params, res.a_star)
        assert st.solution() == res.T, f"seed {seed}: sets differ"
        assert st.h_of_S == res.value, f"seed {seed}: values differ"


def test_budget_semantics_and_feasibility():
    for seed in range(10):
        f, M, order = random_partition_instance(seed + 100)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams(L=2, R=3, delta=2 * opt / 3, opt=opt,
                              epsilon=0.33)
        for a in enumerate_branches(2, 3):
            st = run_prune_greedy(order, oracle, M, params, a)
            st.check_budget_semantics()
            assert M.is_independent(st.solution())


def test_amortized_query_bound():
    for seed in range(10):
        f, M, order = random_partition_instance(seed + 200)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, 0.33, opt)
        res = reference_lpass(order, oracle, M, params)
        before = oracle.count
        st = run_prune_greedy(order, oracle, M, params, res.a_star)
        assert st.charged <= 4 * params.L * len(st.history) + 2
        assert oracle.count - before <= st.charged


def test_guided_never_beats_exhaustive():
    for seed in range(10):
        f, M, order = random_partition_instance(seed, n_max=12)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        # delta = 2*opt/R: the pruned level values sum to < 2*opt, so the
        # certified branch tuple stays inside the tuple space
        params = BranchParams(L=2, R=3, delta=2 * opt / 3, opt=opt,
                              epsilon=0.33)
        guided = MatroidHalf(oracle, M, params, mode="guided")
        exhaustive = MatroidHalf(oracle, M, params, mode="exhaustive")
        for e in order:
            guided.insert(e)
            exhaustive.insert(e)
            vg = oracle.eval(guided.solution())
            ve = oracle.eval(exhaustive.solution())
            assert ve >= vg - 1e-12


def test_single_element_stream_uniform_one():
    f = ModularFunction({0: 4.0})
    M = UniformMatroid(1, {0})
    params = BranchParams.standard(1, 0.33, opt=4.0)
    half = MatroidHalf(f.as_oracle(), M, params, mode="guided")
    half.insert(0)
    assert half.solution() == {0}  # f(e) >= opt/2, so it must be held


@pytest.mark.parametrize("k, eps, opt", [
    (1, 1.0, 1.0), (2, 2.0, 1.0), (0, 0.5, 1.0), (2, 0.0, 1.0),
    (2, math.nan, 1.0), (2, 0.5, 0.0), (2, 0.5, math.inf), (2, 0.5, math.nan)])
def test_standard_params_refuse_out_of_range(k, eps, opt):
    with pytest.raises(ValueError, match="branch parameters need"):
        BranchParams.standard(k, eps, opt)
