import math
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynsub import matroid_dynamic
from dynsub.matroid_dynamic import (BranchParams, InvariantError,
                                    MatroidHalf, PruneGreedyState,
                                    branch_count, enumerate_branches,
                                    reference_lpass, run_prune_greedy)
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import (CoverageFunction, multilinear_exact,
                               multilinear_shifts, plus_direction,
                               random_coverage)
from dynsub.oracle import (CountedOracle, EnumerationBudgetError,
                           brute_force_opt)
from oracles import (ModularFunction, Recorded, counted, every_pass_lpass,
                     small_tree)


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
    history = [0]
    st = PruneGreedyState(counted(f), UniformMatroid(1, {0}), params,
                          (0, 0), history)
    st.feed()
    assert st.terminated and st.solution() == frozenset() and st.fed == 0


def test_single_level_modular_hand_trace():
    f = ModularFunction({0: 0.4, 1: 2.0, 2: 3.0})
    params = BranchParams(L=1, R=1, delta=4.0, opt=2.0, epsilon=0.5)
    history = []
    st = PruneGreedyState(counted(f), UniformMatroid(1, {0, 1, 2}),
                          params, (1,), history)
    history.append(0)
    st.feed()  # below the level-1 threshold of 2.0
    assert st.solution() == frozenset() and st.fed == 1
    history.append(1)
    st.feed()  # accepted; budget 4.0 - 2.0 stays positive
    assert st.solution() == {1} and not st.terminated and st.fed == 2


def test_reference_empty_prefix():
    f = ModularFunction({0: 1.0})
    params = BranchParams(L=2, R=3, delta=2 / 3, opt=1.0, epsilon=0.5)
    res = reference_lpass([], counted(f), UniformMatroid(1, {0}),
                          params)
    assert res.T == frozenset() and res.a_star == (0, 0)


def test_reference_modular_two_elements():
    f = ModularFunction({0: 3.0, 1: 2.5})
    M = UniformMatroid(2, {0, 1})
    params = BranchParams.standard(2, 0.33, opt=5.5)
    res = reference_lpass([0, 1], counted(f), M, params)
    # both clear the pass-1 threshold of opt/1... no: threshold is opt itself
    # at level 1 only for marginals >= opt; here neither does, they land in
    # later passes, but total mass bound still holds
    assert sum(res.a_star) * params.delta < 2 * 5.5


def test_pruned_mass_bound():
    for seed in range(20):
        f, M, order = random_partition_instance(seed)
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, 0.33, opt)
        res = reference_lpass(order, oracle, M, params)
        assert sum(res.a_star) * params.delta < 2 * opt
        assert sum(res.a_star) <= params.R


def test_parity_with_reference_50_seeds():
    for seed in range(50):
        f, M, order = random_partition_instance(seed)
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
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
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
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
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
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
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, 0.33, opt)
        res = reference_lpass(order, oracle, M, params)
        before = oracle.count
        st = run_prune_greedy(order, oracle, M, params, res.a_star)
        st.check_budget_semantics()  # charged <= 4*L*inserts + 2
        assert oracle.count - before <= st.charged


def test_budget_check_refuses_a_branch_over_its_query_ceiling():
    f, M, order = random_partition_instance(200)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams.standard(4, 0.33, opt)
    st = run_prune_greedy(order, counted(f), M, params, (1,) * params.L)
    st.check_budget_semantics()
    ceiling = 4 * params.L * st.fed + 2
    assert 0 < st.charged <= ceiling
    st.charged = ceiling
    st.check_budget_semantics()
    st.charged = ceiling + 1
    with pytest.raises(InvariantError, match=re.escape(
            f"ceiling 4*L*inserts + 2 = {ceiling}")):
        st.check_budget_semantics()


def test_guided_never_beats_exhaustive():
    for seed in range(10):
        f, M, order = random_partition_instance(seed, n_max=12)
        oracle = counted(f)
        _, opt = brute_force_opt(counted(f), matroid=M)
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


def test_branches_and_lpass_hold_the_runner_history():
    # one list of the stream per runner: every branch and the guided
    # L-pass and replay read the runner's own history, not a copy
    f, M, order = random_partition_instance(5, n_max=12)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams(L=2, R=3, delta=2 * opt / 3, opt=opt, epsilon=0.33)
    guided = MatroidHalf(counted(f), M, params, mode="guided")
    exhaustive = MatroidHalf(counted(f), M, params, mode="exhaustive")
    for e in order:
        guided.insert(e)
        exhaustive.insert(e)
        guided.solution()
        assert guided._lpass.history is guided.history
        assert guided._lpass.walked == len(guided.history)
        assert guided._replay.history is guided.history
        assert all(st.history is exhaustive.history
                   for st in exhaustive.states)
    assert guided.history == exhaustive.history == order


def test_exhaustive_branches_hold_their_S_in_growing_sets():
    # one state per branch tuple: S is its growing set's members, with
    # no second set, and a state whose S is empty shares what it holds
    f = random_coverage(12, 8, 1)
    half = MatroidHalf(counted(f), UniformMatroid(3, f.ground),
                       BranchParams.standard(3, 0.5, 6.0), mode="exhaustive")
    for e in sorted(f.ground):
        half.insert(e)
        half.solution()
    assert len(half.states) == 3876
    empty = [st._S for st in half.states if not st.solution()]
    assert 0 < len(empty) < len(half.states)
    assert len({(id(G._hit), id(G._expansion)) for G in empty}) == 1
    for st in half.states:
        assert st.solution() == frozenset(st._S.members)
        assert not any(isinstance(v, set) and v is not st._S.members
                       for v in vars(st).values())


def test_single_element_stream_uniform_one():
    f = ModularFunction({0: 4.0})
    M = UniformMatroid(1, {0})
    params = BranchParams.standard(1, 0.33, opt=4.0)
    half = MatroidHalf(counted(f), M, params, mode="guided")
    half.insert(0)
    assert half.solution() == {0}  # f(e) >= opt/2, so it must be held


@pytest.mark.parametrize("k, eps, opt", [
    (1, 1.0, 1.0), (2, 2.0, 1.0), (0, 0.5, 1.0), (2, 0.0, 1.0),
    (2, math.nan, 1.0), (2, 0.5, 0.0), (2, 0.5, math.inf), (2, 0.5, math.nan)])
def test_standard_params_refuse_out_of_range(k, eps, opt):
    with pytest.raises(ValueError, match="branch parameters need"):
        BranchParams.standard(k, eps, opt)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6),
       k_eps=st.sampled_from([(2, 0.5), (3, 0.33), (4, 0.25)]),
       partition=st.booleans(), data=st.data())
def test_budget_semantics_after_every_insert(n, items, seed, k_eps,
                                             partition, data):
    k, eps = k_eps
    f = random_coverage(n, items, seed, weighted=True)
    ground = sorted(f.ground)
    if partition:
        blocks = {e: data.draw(st.integers(0, 2)) for e in ground}
        M = PartitionMatroid(blocks, {b: data.draw(st.integers(1, 2))
                                      for b in sorted(set(blocks.values()))})
    else:
        M = UniformMatroid(k, ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    assume(opt > 0)
    params = BranchParams.standard(k, eps, opt)
    # L slots of at most R // L each, so the tuple sums to at most R
    a = data.draw(st.lists(st.integers(0, params.R // params.L),
                           min_size=params.L, max_size=params.L))
    history = []
    state = PruneGreedyState(counted(f), M, params, a, history)
    for e in data.draw(st.permutations(ground)):
        history.append(e)
        state.feed()
        state.check_budget_semantics()
        assert M.is_independent(state.solution())


def _replay_view(st):
    return (st.solution(), repr(st.h_of_S), st.terminated, st.ell, st.c,
            st.fed, st.charged)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6),
       k_eps=st.sampled_from([(2, 0.5), (3, 0.33), (4, 0.25)]),
       opt_scale=st.sampled_from([0.2, 0.5, 1.0, 3.0]),
       partition=st.booleans(), data=st.data())
def test_resumed_lpass_and_replay_equal_a_fresh_call(n, items, seed, k_eps,
                                                     opt_scale, partition,
                                                     data):
    k, eps = k_eps
    f = random_coverage(n, items, seed, weighted=True)
    ground = sorted(f.ground)
    if partition:
        blocks = {e: data.draw(st.integers(0, 2)) for e in ground}
        M = PartitionMatroid(blocks, {b: data.draw(st.integers(1, 2))
                                      for b in sorted(set(blocks.values()))})
    else:
        M = UniformMatroid(k, ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    assume(opt > 0)
    params = BranchParams.standard(k, eps, opt_scale * opt)
    order = data.draw(st.permutations(ground))
    oracle = counted(f)
    history = []  # grows in place, so ref and replay resume over it
    ref = replay = None  # the last results that returned
    for e in [None] + order:
        if e is not None:
            history.append(e)
        prefix = list(history)  # a fresh call's own list
        try:
            fresh = reference_lpass(prefix, oracle, M, params)
        except InvariantError as exc:
            with pytest.raises(InvariantError) as got:
                reference_lpass(history, oracle, M, params, prev=ref)
            assert str(got.value) == str(exc)
            continue
        prev, before = ref, oracle.count
        ref = reference_lpass(history, oracle, M, params, prev=prev)
        if prev is not None and ref.a_star == prev.a_star:
            # every pass resumed, so it walked only the new elements
            new = len(history) - prev.walked
            assert oracle.count - before <= params.L * new
        assert ref.history is history and ref.walked == len(history)
        assert prev is None or ref.asked is prev.asked  # shared, not copied
        assert ((ref.a_star, ref.T, repr(ref.value), ref.passes)
                == (fresh.a_star, fresh.T, repr(fresh.value), fresh.passes))
        prev_replay = replay
        replay = run_prune_greedy(history, oracle, M, params, ref.a_star,
                                  prev=replay)
        assert replay.history is history
        assert prev_replay is None or replay.asked is prev_replay.asked
        assert _replay_view(replay) == _replay_view(
            run_prune_greedy(prefix, oracle, M, params, fresh.a_star))
        replay.check_budget_semantics()


class _AskedOracle(CountedOracle):
    """A counted oracle that keeps the set of each query, S + {e} for a
    growing set S."""

    def __init__(self, inner, ground):
        super().__init__(inner, ground)
        self.asked = []

    def eval(self, S, *plus):
        self.asked.append(frozenset(S.members.union(plus)) if plus
                          else frozenset(S))
        return super().eval(S, *plus)


def _fresh_replay(inner, M, params, a, history):
    """PruneGreedyState(a) fed from scratch over a copy of `history`,
    with its own _AskedOracle of `inner` over M's ground."""
    state = PruneGreedyState(_AskedOracle(inner, M.ground), M, params, a,
                             list(history))
    state.feed()
    return state


def _cut_to(R, a):
    """a with each slot cut to what the slots before it leave of R."""
    out = []
    for v in a:
        out.append(min(v, R - sum(out)))
    return out


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6),
       k_eps=st.sampled_from([(2, 0.5), (3, 0.33), (4, 0.25)]),
       opt_scale=st.sampled_from([0.2, 0.5, 1.0, 3.0]),
       partition=st.booleans(),
       kind=st.sampled_from(["coverage", "tree", "plain"]), data=st.data())
def test_rewound_replay_equals_a_fresh_replay(n, items, seed, k_eps,
                                              opt_scale, partition, kind,
                                              data):
    # a state at a rewound from a state at a_old, both any tuples, after
    # every insert: field for field a fresh state at a, asking no more
    # queries and only sets the fresh state asks
    k, eps = k_eps
    f = small_tree(seed) if kind == "tree" else random_coverage(
        n, items, seed, weighted=True)
    ground = sorted(f.ground)
    if partition:
        blocks = {e: data.draw(st.integers(0, 2)) for e in ground}
        M = PartitionMatroid(blocks, {b: data.draw(st.integers(1, 2))
                                      for b in sorted(set(blocks.values()))})
    else:
        M = UniformMatroid(k, ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    assume(opt > 0)
    params = BranchParams.standard(k, eps, opt_scale * opt)
    # any slot up to R, each cut to what the slots before it leave
    tuples = st.lists(st.integers(0, params.R), min_size=params.L,
                      max_size=params.L).map(lambda a: _cut_to(params.R, a))
    a_old, a = data.draw(tuples), data.draw(tuples)
    history, old = [], None
    for e in data.draw(st.permutations(ground)):
        history.append(e)
        old = run_prune_greedy(history, counted(f), M, params, a_old,
                               prev=old)
        inner = Recorded(f) if kind == "plain" else f
        h = _AskedOracle(inner, f.ground)
        old_view = _replay_view(old)
        got = run_prune_greedy(history, h, M, params, a, prev=old)
        fresh_inner = Recorded(f) if kind == "plain" else f
        fresh = _fresh_replay(fresh_inner, M, params, a, history)
        assert _replay_view(got) == _replay_view(fresh)
        got.check_budget_semantics()
        if got is old:  # the same tuple: fed in place
            continue
        assert _replay_view(old) == old_view
        assert h.count <= fresh.h.count
        assert not Counter(h.asked) - Counter(fresh.h.asked)
        if kind == "plain":  # the same frozensets, iterating alike
            assert not (Counter(tuple(S) for S in inner.asked)
                        - Counter(tuple(S) for S in fresh_inner.asked))


@pytest.mark.parametrize("rank", [1, 2])
def test_a_settled_replay_test_is_charged_only_where_M_takes_the_set(rank):
    # level 1 asks h({1}) = 0.1, then takes 0 at h({0}) = 3.0, which
    # spends its budget; level 2 walks again from position 0, and the
    # answer over {} settles 1 over S = {0} with no h query.  That test
    # is charged 2 exactly when M accepts {0, 1}, as a state with no
    # table, which asks h({0, 1}), charges it
    f = ModularFunction({0: 3.0, 1: 0.1})
    params = BranchParams(L=2, R=2, delta=2.0, opt=2.0, epsilon=0.5)
    history, h = [1, 0], counted(f)
    M, M_bare = UniformMatroid(rank, f.ground), UniformMatroid(rank, f.ground)
    got = run_prune_greedy(history, h, M, params, (1, 1))
    bare = PruneGreedyState(counted(f), M_bare, params, (1, 1), history)
    bare.feed()
    assert _replay_view(got) == _replay_view(bare)
    assert (got.solution(), got.ell, got.terminated) == ({0}, 2, False)
    assert got.charged == {1: 4, 2: 6}[rank]  # 2 for each of 1, 0, then 1
    assert M.query_count == M_bare.query_count  # the M test is still made
    assert (h.count, bare.h.count) == (2, {1: 2, 2: 3}[rank])


def test_replay_rewinds_past_a_change_above_level_1():
    # at the fifth insert a* changes first at level 8, so the new replay
    # copies the old one's accepts and asks 1 query where a fresh one
    # asks 7
    f, M, order = random_partition_instance(2)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams.standard(4, 0.33, opt)
    history = order[:4]
    ref = reference_lpass(history, counted(f), M, params)
    old = run_prune_greedy(history, counted(f), M, params, ref.a_star)
    history.append(order[4])
    a = reference_lpass(history, counted(f), M, params, prev=ref).a_star
    assert (old.a, a) == ((0, 0, 13, 0, 0, 0, 0, 6), (0, 0, 13, 0, 0, 0, 0, 9))
    old_view, h = _replay_view(old), _AskedOracle(f, f.ground)
    got = run_prune_greedy(history, h, M, params, a, prev=old)
    fresh = _fresh_replay(f, M, params, a, history)
    assert _replay_view(got) == _replay_view(fresh)
    assert _replay_view(old) == old_view and old.fed == 4
    assert len(old._log) == 9 and got._log[:9] == old._log
    assert (h.count, fresh.h.count) == (1, 7)


def test_resume_over_another_list_gives_the_fresh_result():
    f, M, order = random_partition_instance(3)
    oracle = counted(f)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams.standard(4, 0.33, opt)
    history = order[:5]
    ref = reference_lpass(history, oracle, M, params)
    st = run_prune_greedy(history, oracle, M, params, ref.a_star)
    assert st.fed >= 1  # it took the elements up to the one ending it
    # lists that are not `history`: shorter, shifted, equal, or diverging
    for other in (order[:4], order[1:6], order[:5],
                  order[:4] + order[6:7]):
        got = reference_lpass(other, oracle, M, params, prev=ref)
        fresh = reference_lpass(other, oracle, M, params)
        assert got.history is other and got.walked == len(other)
        assert (got.a_star, got.T, repr(got.value), got.passes) == (
            fresh.a_star, fresh.T, repr(fresh.value), fresh.passes)
        replay = run_prune_greedy(other, oracle, M, params, got.a_star,
                                  prev=st)
        assert replay is not st and replay.history is other
        assert _replay_view(replay) == _replay_view(
            run_prune_greedy(other, oracle, M, params, fresh.a_star))
    assert ref.history is history and ref.walked == 5  # prev is not changed


class _FailsOnce:
    """A set function whose `fail_at`-th evaluation raises InvariantError,
    standing in for a certification that fails at one checkpoint."""

    def __init__(self, f, fail_at):
        self.f, self.left = f, fail_at

    def __call__(self, S):
        self.left -= 1
        if self.left == 0:
            raise InvariantError("injected")
        return self.f(S)


@pytest.mark.parametrize("seed", range(4))
def test_guided_solution_resumes_after_an_invariant_error(seed):
    f, M, order = random_partition_instance(seed)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams.standard(4, 0.33, opt)
    want = []
    for t in range(1, len(order) + 1):
        ref = reference_lpass(order[:t], counted(f), M, params)
        want.append(run_prune_greedy(order[:t], counted(f), M, params,
                                     ref.a_star).solution())
    clean = counted(f)
    half = MatroidHalf(clean, M, params)
    for e in order:
        half.insert(e)
        half.solution()
    # every query of an every-round run fails once, in its turn
    for fail_at in range(1, clean.count + 1):
        flaky = _FailsOnce(f, fail_at + 1)  # +1: the oracle's probe of {}
        half = MatroidHalf(CountedOracle(flaky, f.ground), M, params)
        raised = 0
        for e, S in zip(order, want):
            half.insert(e)
            try:
                got = half.solution()
            except InvariantError:
                raised += 1
                continue
            assert got == S, f"query {fail_at} failed"
        assert raised == 1


def test_guided_every_round_queries_are_pinned():
    # a solution every round: the resumed L-pass and rewound replay, each
    # keeping its answers across calls, make 56 queries where rerunning
    # both over each prefix, each keeping its answers within a call,
    # makes 891
    f = random_coverage(30, 40, 5, weighted=True)
    order = sorted(f.ground)
    M = UniformMatroid(3, order)
    _, opt = brute_force_opt(counted(f), k=3)
    params = BranchParams.standard(3, 0.33, opt)
    half_oracle, rerun_oracle = counted(f), counted(f)
    half = MatroidHalf(half_oracle, M, params)
    for t, e in enumerate(order, start=1):
        half.insert(e)
        ref = reference_lpass(order[:t], rerun_oracle, M, params)
        rerun = run_prune_greedy(order[:t], rerun_oracle, M, params,
                                 ref.a_star)
        assert half.solution() == rerun.solution()
    assert half_oracle.count == 56
    assert rerun_oracle.count == 891


@pytest.mark.parametrize("partition", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_lpass_asks_each_set_once_per_call(monkeypatch, seed, partition):
    f, M, order = random_partition_instance(seed)
    if not partition:
        M = UniformMatroid(3, f.ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    params = BranchParams.standard(3, 0.33, opt)
    asked = {"h": [], "M": []}  # the sets the current call asked

    def inner(S):
        asked["h"].append(frozenset(S))
        return f(S)

    oracle = CountedOracle(inner, f.ground)
    independent = M.is_independent
    monkeypatch.setattr(M, "is_independent", lambda S: asked["M"].append(
        frozenset(S)) or independent(S))

    def call(history, prev=None):
        for sets in asked.values():
            sets.clear()
        ref = reference_lpass(history, oracle, M, params, prev=prev)
        for sets in asked.values():
            assert len(set(sets)) == len(sets)
        return ref, len(asked["h"]), len(asked["M"])

    _, fresh_h, fresh_M = call(order)
    assert fresh_h > 0 and fresh_M > 0
    history, ref = [], None
    for e in order:  # resumed every round over one growing list
        history.append(e)
        ref, _, _ = call(history, prev=ref)
    assert ref.walked == len(order)


@pytest.mark.parametrize("partition", [False, True])
@pytest.mark.parametrize("kind", ["coverage", "tree"])
@pytest.mark.parametrize("seed", range(4))
def test_lpass_and_replay_ask_each_set_once_per_run(monkeypatch, seed, kind,
                                                    partition):
    # a guided run with a solution every round: over all its calls the
    # L-pass asks h, and M, about each set at most once, and so does the
    # chain of replay states ask h, as each walk keeps its answers
    if kind == "tree":
        f = small_tree(seed)
        order = sorted(f.ground)
        random.Random(seed).shuffle(order)
    else:
        f = random_coverage(20, 15, seed, weighted=True)
        order = sorted(f.ground)
    if partition:
        rng = random.Random(seed)
        M = PartitionMatroid({e: rng.randrange(3) for e in order},
                             {b: rng.randint(1, 2) for b in range(3)})
    else:
        M = UniformMatroid(3, order)
    _, opt = brute_force_opt(counted(f), matroid=M)
    asked = {"lpass": [], "lpass M": [], "replay": [], "replay M": []}
    phase = []

    def inner(S):
        if phase:  # not the oracle's probe of {} as it is built
            asked[phase[-1]].append(frozenset(S))
        return f(S)

    independent = M.is_independent
    monkeypatch.setattr(M, "is_independent", lambda S: asked[
        phase[-1] + " M"].append(frozenset(S)) or independent(S))
    for name, walk in (("lpass", reference_lpass),
                       ("replay", run_prune_greedy)):
        def tagged(*args, _name=name, _walk=walk, **kwargs):
            phase.append(_name)
            try:
                return _walk(*args, **kwargs)
            finally:
                phase.pop()
        monkeypatch.setattr(matroid_dynamic, walk.__name__, tagged)
    half = MatroidHalf(CountedOracle(inner, f.ground), M,
                       BranchParams.standard(3, 0.33, opt))
    for e in order:
        half.insert(e)
        half.solution()
    assert asked["lpass"] and asked["replay"]
    for sets in (asked["lpass"], asked["lpass M"], asked["replay"]):
        assert len(set(sets)) == len(sets)


def _lpass_view(res):
    return res.a_star, res.T, repr(res.value), repr(res.passes), res.walked


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6),
       k_eps=st.sampled_from([(2, 0.5), (3, 0.33), (4, 0.25)]),
       opt_scale=st.sampled_from([0.2, 0.5, 1.0, 3.0]),
       partition=st.booleans(),
       kind=st.sampled_from(["coverage", "stage", "plain", "tree"]),
       data=st.data())
def test_lpass_equals_the_every_pass_lpass(n, items, seed, k_eps, opt_scale,
                                           partition, kind, data):
    # the L-pass that asks through growing sets and settles what an
    # answer over a smaller base bounds returns what every_pass_lpass
    # returns and asks h and M at most as often, after every call, fresh
    # and resumed; a mis-scaled opt raises the same InvariantError
    k, eps = k_eps
    if kind == "tree":  # a hard family, through its own evaluator
        f = small_tree(seed)
    else:
        f = random_coverage(n, items, seed, weighted=True)
    ground = sorted(f.ground)
    if partition:
        blocks = {e: data.draw(st.integers(0, 2)) for e in ground}
        caps = {b: data.draw(st.integers(1, 2))
                for b in sorted(set(blocks.values()))}
        Ms = [PartitionMatroid(blocks, caps) for _ in range(2)]
    else:
        Ms = [UniformMatroid(k, ground) for _ in range(2)]
    _, opt = brute_force_opt(counted(f), matroid=Ms[0])
    assume(opt > 0)
    if kind == "stage":  # a stage gain of the amplifier
        coord = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
        x = data.draw(st.dictionaries(st.sampled_from(ground), coord))
        step = 1.0 / data.draw(st.integers(1, 4))
        inners = [multilinear_shifts(f, x, step),
                  lambda S: multilinear_exact(f, plus_direction(x, S, step))]
    elif kind == "plain":
        inners = [Recorded(f), Recorded(f)]
    else:
        inners = [f, f]
    hs = [CountedOracle(inner, f.ground) for inner in inners]
    params = BranchParams.standard(k, eps, opt_scale * opt)
    order = data.draw(st.permutations(ground))
    lpasses = (reference_lpass, every_pass_lpass)

    def calls(history, prevs):
        """Each side's result, or InvariantError message, and the h and
        M queries it made."""
        out = []
        for lpass, h, M, prev in zip(lpasses, hs, Ms, prevs):
            counts = h.count, M.query_count
            try:
                got = lpass(history, h, M, params, prev=prev)
            except InvariantError as exc:
                got = str(exc)
            out.append((got, h.count - counts[0], M.query_count - counts[1]))
        return out

    history, prevs = [], [None, None]
    for e in [None] + order:
        if e is not None:
            history.append(e)
        for resumed in (False, True):
            out = calls(history if resumed else list(history),
                        prevs if resumed else [None, None])
            (new, new_h, new_M), (ref, ref_h, ref_M) = out
            assert new_h <= ref_h and new_M <= ref_M
            if isinstance(ref, str):
                assert new == ref
                continue
            assert _lpass_view(new) == _lpass_view(ref)
            if resumed:
                prevs = [new, ref]
    if kind == "plain":  # some of the same frozensets, iterating in the
        # same order; a set one pass settles a later pass may ask from
        # another base, after sets the reference asks after it
        assert not Counter((type(S), tuple(S)) for S in inners[0].asked) \
            - Counter((frozenset, tuple(S)) for S in inners[1].asked)


TWO_PASSES = BranchParams(L=2, R=10, delta=0.25, opt=1.0, epsilon=0.5)


def _two_pass_lpasses(w, v):
    """reference_lpass and every_pass_lpass over the history [0, 1] at
    TWO_PASSES, with h({0}) = w, h({1}) = 1 and h({0, 1}) = v, each with
    the sets its h was asked and its M test count.  Pass 1 asks h({0}),
    below its threshold 1, and takes 1; pass 2 starts from T_1 = {1},
    so h({0}) bounds what 0 gains there."""
    values = {frozenset(): 0.0, frozenset({0}): w, frozenset({1}): 1.0,
              frozenset({0, 1}): v}
    out = []
    for lpass in (reference_lpass, every_pass_lpass):
        h = Recorded(values.__getitem__)
        M = UniformMatroid(2, [0, 1])
        res = lpass([0, 1], CountedOracle(h, {0, 1}), M, TWO_PASSES)
        out.append((_lpass_view(res), h.asked, M.query_count))
    return out


@pytest.mark.parametrize("ulps", [1, 2, 3, 8])
def test_lpass_asks_an_element_its_bound_misses_by_ulps(ulps):
    # h({0}) is `ulps` floats below pass 2's threshold, and h({0, 1}) - 1
    # clears it after rounding: that bound must not settle 0, which
    # pass 2 then takes
    thresh = TWO_PASSES.threshold(2)
    w = thresh
    for _ in range(ulps):
        w = math.nextafter(w, 0.0)
    v = 1.0 + thresh
    while v - 1.0 < thresh:
        v = math.nextafter(v, math.inf)
    (new, new_asked, new_M), (ref, ref_asked, ref_M) = _two_pass_lpasses(w, v)
    assert frozenset({0, 1}) in new_asked
    assert ref[0] == (4, 2) and new == ref
    assert (new_asked, new_M) == (ref_asked, ref_M)


def test_lpass_settles_an_element_well_below_its_bound():
    # h({0}) at half of pass 2's threshold settles 0 there with no h
    # query and no M test, where every_pass_lpass asks both
    thresh = TWO_PASSES.threshold(2)
    (new, new_asked, new_M), (ref, ref_asked, ref_M) = _two_pass_lpasses(
        thresh / 2, 1.0 + thresh / 2)
    assert new == ref and ref[0] == (4, 0)
    assert frozenset({0, 1}) in ref_asked
    assert frozenset({0, 1}) not in new_asked
    assert (len(new_asked), new_M) == (len(ref_asked) - 1, ref_M - 1)


def test_lpass_bounds_e_only_by_an_answer_over_a_subset_of_its_base():
    # delta 1.75 cuts T_1 to {0} of S_1 = [0, 2], so pass 2's base {0, 1}
    # does not hold {0, 2}, over which 3 gained 0.5 in pass 1: over
    # {0, 1} it gains 1.0, and pass 2 (threshold 1/1.1) takes it
    f = CoverageFunction(
        [("a", 2.0), ("p", 0.5), ("q", 0.4375), ("r", 0.5), ("s", 0.5)],
        {0: {"a"}, 1: {"p", "q"}, 2: {"p", "r"}, 3: {"r", "s"}})
    params = BranchParams(L=2, R=10, delta=1.75, opt=1.0, epsilon=0.1)
    got = [_lpass_view(lpass([0, 1, 2, 3], counted(f),
                             UniformMatroid(4, f.ground), params))
           for lpass in (reference_lpass, every_pass_lpass)]
    assert got[0] == got[1]
    assert got[0][:2] == ((1, 1), {0, 1, 3})
