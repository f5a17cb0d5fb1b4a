import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub.cardinality import (CardinalityState, GuessLadder,
                                default_window_length)
from dynsub.objectives import ModularFunction, random_coverage
from dynsub.oracle import CountedOracle, InvariantError, brute_force_opt


def test_modular_all_above_threshold():
    f = ModularFunction({e: 10.0 for e in range(6)})
    o = f.as_oracle()
    st = CardinalityState(o, k=3, epsilon=0.25, opt_guess=30.0)
    for e in range(6):
        st.insert(e)
    assert st.solution() == {0, 1, 2}
    # the overflow elements keep marginal 10 = opt/k, so once S is full
    # they are filed in the top bucket awaiting a (never-coming) revoke
    assert st.buckets[-1] == {3, 4, 5}
    assert all(not b for b in st.buckets[:-1])


def test_worthless_element_lands_in_bottom_bucket():
    f = ModularFunction({0: 0.0, 1: 5.0})
    o = f.as_oracle()
    st = CardinalityState(o, k=1, epsilon=0.5, opt_guess=5.0)
    st.insert(0)
    assert st.solution() == frozenset()
    assert 0 in st.buckets[0]


def test_duplicate_insert_rejected():
    o = ModularFunction({0: 1.0}).as_oracle()
    st = CardinalityState(o, k=1, epsilon=0.5, opt_guess=1.0)
    st.insert(0)
    with pytest.raises(ValueError):
        st.insert(0)


def test_non_monotone_oracle_flagged():
    o = CountedOracle(lambda S: -float(len(S)), {0, 1})
    st = CardinalityState(o, k=1, epsilon=0.5, opt_guess=1.0)
    with pytest.raises(InvariantError):
        st.insert(0)


def test_monotone_chain_and_bucket_soundness():
    f = random_coverage(20, 15, seed=3)
    o = f.as_oracle()
    probe = f.as_oracle()
    _, opt = brute_force_opt(probe, k=3)
    st = CardinalityState(o, k=3, epsilon=0.25, opt_guess=opt)
    prev = frozenset()
    for e in sorted(f.ground):
        st.insert(e)
        cur = st.solution()
        assert prev <= cur  # solution only grows
        prev = cur
        base = probe.eval(cur)
        for ell, bucket in enumerate(st.buckets):
            for x in bucket:
                cur_marg = probe.eval(cur | {x}) - base
                # current marginal cannot exceed the filing-time ceiling
                assert cur_marg < (ell + 1) * st.delta + 1e-9


def test_query_budget_exact_constant():
    for seed in range(5):
        f = random_coverage(18, 12, seed=seed)
        o = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), k=3)
        st = CardinalityState(o, k=3, epsilon=0.25, opt_guess=opt)
        for e in sorted(f.ground):
            st.insert(e)
        assert st.charged <= st.charged_budget()
        assert o.count <= st.charged  # raw never exceeds charged


def test_approximation_at_threshold_crossing():
    bound = 1 - 1 / math.e - 0.25
    for seed in range(8):
        f = random_coverage(14, 12, seed=seed)
        probe = f.as_oracle()
        _, opt = brute_force_opt(probe, k=3)
        st = CardinalityState(f.as_oracle(), k=3, epsilon=0.25, opt_guess=opt)
        elems = sorted(f.ground)
        crossed = False
        for t, e in enumerate(elems, 1):
            st.insert(e)
            if not crossed:
                _, opt_t = brute_force_opt(probe, ground=elems[:t], k=3)
                if opt_t >= opt - 1e-12:
                    crossed = True
                    assert probe.eval(st.solution()) >= bound * opt - 1e-9
        assert crossed


def test_ladder_window_index():
    f = ModularFunction({0: 1.0, 1: 0.5})
    lad = GuessLadder(f.as_oracle(), k=2, epsilon=0.25)
    lad.insert(0)
    assert lad.i_t == 0  # log_{1+eps} 1 = 0
    i_before = lad.i_t
    lad.insert(1)  # smaller singleton, window must not move
    assert lad.i_t == i_before


def test_ladder_ignores_worthless_prefix():
    f = ModularFunction({0: 0.0, 1: 2.0})
    lad = GuessLadder(f.as_oracle(), k=1, epsilon=0.5)
    lad.insert(0)
    assert lad.solution() == frozenset()
    lad.insert(1)
    assert lad.solution() == {1}


def test_window_length_override():
    assert default_window_length(3, 0.25) == math.ceil(math.log(12) / 0.25) + 1


def test_ladder_per_round_ratio():
    target = 1 - 1 / math.e - 2 * 0.25
    for seed in range(5):
        f = random_coverage(12, 10, seed=seed)
        probe = f.as_oracle()
        lad = GuessLadder(f.as_oracle(), k=3, epsilon=0.25)
        elems = sorted(f.ground)
        for t, e in enumerate(elems, 1):
            lad.insert(e)
            _, opt_t = brute_force_opt(probe, ground=elems[:t], k=3)
            if opt_t > 0:
                assert probe.eval(lad.solution()) >= target * opt_t - 1e-9


@pytest.mark.parametrize("opt_guess", [0.0, -1.0, math.inf, math.nan])
def test_opt_guess_must_be_positive_and_finite(opt_guess):
    o = ModularFunction({0: 1.0}).as_oracle()
    with pytest.raises(ValueError, match="opt_guess"):
        CardinalityState(o, k=1, epsilon=0.5, opt_guess=opt_guess)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6), k=st.integers(1, 4),
       epsilon=st.floats(0.05, 0.95), opt_guess=st.floats(0.1, 12.0),
       data=st.data())
def test_bucket_soundness_and_charged_ceiling(n, items, seed, k, epsilon,
                                              opt_guess, data):
    f = random_coverage(n, items, seed=seed, weighted=True)
    order = data.draw(st.permutations(sorted(f.ground)))
    probe = f.as_oracle()
    eng = CardinalityState(f.as_oracle(), k, epsilon, opt_guess)
    top = eng.n_buckets - 1
    for e in order:
        eng.insert(e)
        assert eng.charged <= eng.charged_budget()
        S = eng.solution()
        base = probe.eval(S)
        for ell, bucket in enumerate(eng.buckets):
            # a full S is final, and an insert into it files any marginal
            # at or above the top level's ceiling there
            if len(S) == k and ell == top:
                continue
            for x in bucket:
                assert probe.eval(S | {x}) - base < (ell + 1) * eng.delta + 1e-9
