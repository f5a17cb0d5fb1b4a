import math
import signal
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub import harness
from dynsub.cardinality import (CardinalityState, GuessLadder,
                                default_window_length)
from dynsub.harness import RunConfig, run_stream
from dynsub.objectives import (CoverageFunction, CoverageGrowingSet,
                               random_coverage)
from dynsub.oracle import (CountedOracle, DomainError, GrowingSet,
                           InvariantError, brute_force_opt)
from dynsub.streams import Stream
from oracles import (AskTheSetEngine, FeedEveryEngine, ModularFunction,
                     Recorded, check_extraction, counted, small_tree,
                     spread_coverage)


def test_modular_all_above_threshold():
    f = ModularFunction({e: 10.0 for e in range(6)})
    o = counted(f)
    st = CardinalityState(o, k=3, epsilon=0.25, opt_guess=30.0)
    for e in range(6):
        st.insert(e)
    assert st.solution() == {0, 1, 2}
    # a full S is final: the overflow elements cost no query and are
    # filed nowhere, though each insert is still counted
    assert o.count == 3
    assert st.inserts == 6
    assert all(not b for b in st.buckets)


def test_worthless_element_lands_in_bottom_bucket():
    f = ModularFunction({0: 0.0, 1: 5.0})
    o = counted(f)
    st = CardinalityState(o, k=1, epsilon=0.5, opt_guess=5.0)
    st.insert(0)
    assert st.solution() == frozenset()
    assert 0 in st.buckets[0]


def test_failed_retest_from_bucket_zero_is_dropped():
    # f({1}) is 1e-10 above f({0, 1}): the retest of 0 from bucket 0 after
    # S takes 1 has marginal -1e-10, below the threshold of -5e-11.  With
    # no bucket below 0 the engine drops 0; refiling it in bucket 0
    # retested it forever.
    values = {(): 0.0, (0,): 0.0, (1,): 0.5 + 1e-10, (0, 1): 0.5}
    o = CountedOracle(lambda S: values[tuple(sorted(S))], {0, 1})
    eng = CardinalityState(o, k=2, epsilon=0.5, opt_guess=1.0)
    eng.insert(0)
    assert eng.buckets[0] == {0}

    def hung(signum, frame):
        raise TimeoutError("insert did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(3)
    try:
        eng.insert(1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert eng.solution() == {1}
    assert all(not b for b in eng.buckets)
    assert o.count == 3  # f({0}), f({1}), then f({0, 1}) once
    assert eng.charged == 6 <= eng.charged_budget()


def test_non_monotone_oracle_flagged():
    o = CountedOracle(lambda S: -float(len(S)), {0, 1})
    st = CardinalityState(o, k=1, epsilon=0.5, opt_guess=1.0)
    with pytest.raises(InvariantError):
        st.insert(0)


def test_monotone_chain_and_bucket_soundness():
    f = random_coverage(20, 15, seed=3)
    o = counted(f)
    probe = counted(f)
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
        o = counted(f)
        _, opt = brute_force_opt(counted(f), k=3)
        st = CardinalityState(o, k=3, epsilon=0.25, opt_guess=opt)
        for e in sorted(f.ground):
            st.insert(e)
        assert st.charged <= st.charged_budget()
        assert o.count <= st.charged  # raw never exceeds charged


def test_approximation_at_threshold_crossing():
    bound = 1 - 1 / math.e - 0.25
    for seed in range(8):
        f = random_coverage(14, 12, seed=seed)
        probe = counted(f)
        _, opt = brute_force_opt(probe, k=3)
        st = CardinalityState(counted(f), k=3, epsilon=0.25, opt_guess=opt)
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
    lad = GuessLadder(counted(f), k=2, epsilon=0.25)
    lad.insert(0)
    assert lad.i_t == 0  # log_{1+eps} 1 = 0
    i_before = lad.i_t
    lad.insert(1)  # smaller singleton, window must not move
    assert lad.i_t == i_before


def test_ladder_ignores_worthless_prefix():
    f = ModularFunction({0: 0.0, 1: 2.0})
    lad = GuessLadder(counted(f), k=1, epsilon=0.5)
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
        probe = counted(f)
        lad = GuessLadder(counted(f), k=3, epsilon=0.25)
        elems = sorted(f.ground)
        for t, e in enumerate(elems, 1):
            lad.insert(e)
            _, opt_t = brute_force_opt(probe, ground=elems[:t], k=3)
            if opt_t > 0:
                assert probe.eval(lad.solution()) >= target * opt_t - 1e-9


@pytest.mark.parametrize("opt_guess", [0.0, -1.0, math.inf, math.nan])
def test_opt_guess_must_be_positive_and_finite(opt_guess):
    o = counted(ModularFunction({0: 1.0}))
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
    probe = counted(f)
    eng = CardinalityState(counted(f), k, epsilon, opt_guess)
    for e in order:
        full = len(eng.solution()) == k
        before = (eng.oracle.count, eng.f_of_S, [set(b) for b in eng.buckets])
        eng.insert(e)
        if full:  # a full S is final: no query, no value or bucket change
            assert (eng.oracle.count, eng.f_of_S, eng.buckets) == before
        assert eng.charged <= eng.charged_budget()
        S = eng.solution()
        base = probe.eval(S)
        for ell, bucket in enumerate(eng.buckets):
            for x in bucket:
                assert probe.eval(S | {x}) - base < (ell + 1) * eng.delta + 1e-9


class QueryEveryInsert(AskTheSetEngine):
    """Test oracle: the engine as it was before a full S became final,
    querying and filing every insert, each marginal asked from scratch."""

    def insert(self, e) -> None:
        self.inserts += 1
        m = self._marginal(e)
        if m >= self._threshold() and len(self._in_S) < self.k:
            self._accept(e, m)
            self._revoke()
        else:
            self._file(e, m, self.n_buckets - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 15), items=st.integers(1, 12),
       seed=st.integers(0, 10 ** 6), k=st.integers(1, 5),
       epsilon=st.floats(0.1, 0.9), opt_guess=st.floats(0.1, 15.0),
       data=st.data())
def test_full_engine_skip_keeps_every_solution(n, items, seed, k, epsilon,
                                               opt_guess, data):
    f = random_coverage(n, items, seed=seed, weighted=True)
    order = data.draw(st.permutations(sorted(f.ground)))
    eng = CardinalityState(counted(f), k, epsilon, opt_guess)
    ref = QueryEveryInsert(counted(f), k, epsilon, opt_guess)
    lad = GuessLadder(counted(f), k, epsilon)
    ref_lad = FeedEveryEngine(counted(f), k, epsilon,
                              engine=QueryEveryInsert, retire=True)
    for e in order:
        eng.insert(e)
        ref.insert(e)
        assert eng.solution() == ref.solution()
        assert eng.f_of_S == ref.f_of_S
        lad.insert(e)
        ref_lad.insert(e)
        assert lad.solution() == ref_lad.solution()
    assert all(type(t) is QueryEveryInsert for t in ref_lad.threads.values())
    assert eng.oracle.count <= ref.oracle.count


def test_ladder_query_count_pinned():
    # engines that query every insert (QueryEveryInsert) make 15,701;
    # engines that ask every marginal, and an extraction that asks every
    # engine's set, make 5,296; feeding every engine that is not full
    # makes 2,128 update queries, feeding only those not retired 1,523
    # when each engine asks its own marginals.  Extraction asks 22
    # distinct sets of 25 engines
    f = random_coverage(500, 2000, 1, weighted=True)
    o = counted(f)
    lad = GuessLadder(o, 50, 0.2)
    for e in sorted(f.ground):
        lad.insert(e)
    assert o.count == 1255
    S = lad.solution()
    assert o.count == 1255 + 22
    assert repr(f(S)) == "278.95988989897"


# a left-to-right sum of 1e16 and two 1.0s stays at 1e16, the exact sum
# rounds to 1e16 + 2
assert sum([1e16, 1.0, 1.0]) != math.fsum([1e16, 1.0, 1.0])


def assert_marginals_match(f, order, data):
    o, ref = counted(f), counted(f)
    grow = o.growing()
    assert type(grow) is CoverageGrowingSet
    for e in order:
        for x in sorted(f.ground):
            before = o.count
            kept = grow._hit, grow._expansion
            v = o.eval(grow, x)
            assert o.count == before + 1
            # nothing of the query is kept
            assert all(a is b for a, b in zip(kept, (grow._hit,
                                                     grow._expansion)))
            assert repr(v) == repr(ref.eval(grow.members | {x}))
        if data.draw(st.booleans()):
            grow.add(e)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_incremental_marginal_is_eval_bit_for_bit(n, items, seed, data):
    f = random_coverage(n, items, seed=seed, weighted=True)
    assert_marginals_match(f, data.draw(st.permutations(sorted(f.ground))),
                           data)


@settings(max_examples=60, deadline=None)
@given(f=spread_coverage(), data=st.data())
def test_incremental_marginal_is_eval_bit_for_bit_at_spread_weights(f, data):
    assert_marginals_match(f, data.draw(st.permutations(sorted(f.ground))),
                           data)


def opaque(f) -> CountedOracle:
    """f behind a lambda: the engine takes the plain growing set."""
    return CountedOracle(lambda S: f(S), f.ground)


def engine_view(eng):
    return (eng.solution(), repr(eng.f_of_S), eng.buckets, eng.oracle.count,
            eng.charged)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 15), items=st.integers(1, 12),
       seed=st.integers(0, 10 ** 6), k=st.integers(1, 5),
       epsilon=st.floats(0.1, 0.9), opt_guess=st.floats(0.1, 15.0),
       data=st.data())
def test_coverage_and_plain_growing_sets_agree(n, items, seed, k, epsilon,
                                               opt_guess, data):
    f = random_coverage(n, items, seed=seed, weighted=True)
    order = data.draw(st.permutations(sorted(f.ground)))
    assert type(opaque(f).growing()) is GrowingSet
    eng = CardinalityState(counted(f), k, epsilon, opt_guess)
    plain = CardinalityState(opaque(f), k, epsilon, opt_guess)
    lad, plain_lad = GuessLadder(counted(f), k, epsilon), GuessLadder(
        opaque(f), k, epsilon)
    for e in order:
        eng.insert(e)
        plain.insert(e)
        assert engine_view(eng) == engine_view(plain)
        lad.insert(e)
        plain_lad.insert(e)
        assert lad.threads.keys() == plain_lad.threads.keys()
        for i, t in lad.threads.items():
            assert engine_view(t) == engine_view(plain_lad.threads[i])
        assert lad.oracle.count == plain_lad.oracle.count
        assert lad.solution() == plain_lad.solution()
        assert lad.oracle.count == plain_lad.oracle.count


@st.composite
def weighted_coverage(draw):
    return random_coverage(draw(st.integers(1, 15)), draw(st.integers(1, 12)),
                           seed=draw(st.integers(0, 10 ** 6)), weighted=True)


def live_view(eng):
    return (eng.solution(), repr(eng.f_of_S), eng.buckets, eng.charged)


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(weighted_coverage(), spread_coverage()),
       k=st.integers(1, 5), epsilon=st.floats(0.1, 0.9), plain=st.booleans(),
       data=st.data())
def test_ladder_of_live_engines_matches_feeding_every_engine(
        f, k, epsilon, plain, data):
    # the reference feeds every engine it has not retired, asks each
    # marginal as the set S | {e} and asks every engine's set at
    # extraction; the ladder may ask less, and on the plain path only
    # sets the reference asks.  A reference that retires nothing asks
    # at least as many queries.
    order = data.draw(st.permutations(sorted(f.ground)))
    inner, ref_inner = (Recorded(f), Recorded(f)) if plain else (f, f)
    lad = GuessLadder(CountedOracle(inner, f.ground), k, epsilon)
    ref = FeedEveryEngine(CountedOracle(ref_inner, f.ground), k, epsilon,
                          engine=AskTheSetEngine, retire=True)
    every = FeedEveryEngine(counted(f), k, epsilon, engine=AskTheSetEngine)
    assert type(lad.oracle.growing()) is (GrowingSet if plain
                                          else CoverageGrowingSet)
    for e in order:
        lad.insert(e)
        ref.insert(e)
        every.insert(e)
        assert lad.threads.keys() == ref.threads.keys()
        for i, t in lad.threads.items():
            assert live_view(t) == live_view(ref.threads[i])
            # a full engine is not fed, so its budget stops growing
            assert t.charged <= t.charged_budget()
            assert t.inserts <= ref.threads[i].inserts
        assert lad.solution() == ref.solution()
        every.solution()
        assert lad.oracle.count <= ref.oracle.count <= every.oracle.count
    if plain:
        assert all(type(S) is frozenset for S in inner.asked)
        assert not Counter(inner.asked) - Counter(ref_inner.asked)


def two_elements(A, w):
    """Element 0 covers an item of weight A, element 1 one of weight w."""
    return CoverageFunction([("a", A), ("b", w)], {0: {"a"}, 1: {"b"}})


def fed_f_of_e(f, k, epsilon, opt_guess):
    """An engine fed v = f({e}) and one that asks every marginal, after
    the same inserts of 0 and then 1."""
    eng = CardinalityState(counted(f), k, epsilon, opt_guess)
    ref = AskTheSetEngine(counted(f), k, epsilon, opt_guess)
    for e in (0, 1):
        eng.insert(e, counted(f).eval({e}))
        ref.insert(e)
        assert live_view(eng) == live_view(ref)
    return eng, ref


def test_f_of_e_below_a_bound_by_an_ulp_is_asked():
    # k=2, eps=0.25, opt=4: delta is 0.5, and S = {0} with f(S) = 1.5
    # leaves a threshold of 0.75.  v one ulp below delta still rounds to
    # m = fl(1.5 + v) - 1.5 = 0.5, which is bucket 1, not 0.
    eng, ref = fed_f_of_e(two_elements(1.5, math.nextafter(0.5, 0)),
                          2, 0.25, 4.0)
    assert ref.solution() == {0} and ref.buckets[1] == {1}
    assert eng.oracle.count == 1  # f({0}) came with the insert
    # with f(S) = 2.5 the threshold is 0.25, below delta: v one ulp
    # below it rounds to m = 0.25, and S takes it
    eng, ref = fed_f_of_e(two_elements(2.5, math.nextafter(0.25, 0)),
                          2, 0.25, 4.0)
    assert ref.solution() == {0, 1}
    # far below both bounds, f({1}) settles bucket 0 with no query
    eng, ref = fed_f_of_e(two_elements(2.5, 0.2), 2, 0.25, 4.0)
    assert ref.buckets[0] == {1}
    assert eng.oracle.count == 0 and eng.charged == ref.charged == 4


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 6), epsilon=st.floats(0.05, 0.45),
       opt_guess=st.floats(0.5, 1e3), above=st.floats(0.0, 1.0),
       at_delta=st.booleans(), ulps=st.integers(-6, 6))
def test_f_of_e_within_ulps_of_a_bound_matches_asking(k, epsilon, opt_guess,
                                                      above, at_delta, ulps):
    delta = epsilon * opt_guess / k  # as the engine computes it
    # element 0 is accepted into an empty S: A is at least opt/k - delta
    A = (opt_guess / k - delta) * (1.0 + above)
    w = delta if at_delta else (opt_guess - A) / k - delta
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.copysign(math.inf, ulps))
    if w < 0:
        return
    fed_f_of_e(two_elements(A, w), k, epsilon, opt_guess)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(weighted_coverage(), spread_coverage()),
       k=st.integers(1, 5), epsilon=st.floats(0.1, 0.9), data=st.data())
def test_extraction_asks_each_changed_engine_set_once(f, k, epsilon, data):
    # engines that hold one set share one query, and an engine whose S
    # has not grown since the last call asks nothing
    inner = Recorded(f)
    lad = GuessLadder(CountedOracle(inner, f.ground), k, epsilon)
    last = {}  # target index -> S when solution() last ran
    for e in data.draw(st.permutations(sorted(f.ground))):
        lad.insert(e)
        if data.draw(st.booleans()):
            last = check_extraction(
                lad, inner, counted(f),
                {i: lad.threads[i].solution() for i in sorted(lad.threads)},
                last)


@pytest.mark.parametrize("seed, k, epsilon", [(0, 3, 0.25), (1, 5, 0.2),
                                              (2, 2, 0.5), (3, 4, 0.1)])
def test_ladder_queries_stay_under_the_ladder_ceiling(seed, k, epsilon,
                                                      monkeypatch):
    # per insert: f({e}) once, and at most floor(1/eps)+2 queries for each
    # of at most window_length+1 engine inserts
    made = []
    monkeypatch.setitem(
        harness._ALGORITHMS, "card-ladder",
        lambda cfg, o, M: made.append(GuessLadder(o, cfg.k, cfg.epsilon))
        or made[-1])
    f = random_coverage(60, 40, seed, weighted=True)
    cfg = RunConfig(algo="card-ladder", k=k, epsilon=epsilon,
                    opt_mode="greedy-bound", checkpoint="every-round")
    records, _ = run_stream(cfg, f, Stream.inserts(sorted(f.ground)))
    lad, = made
    n = len(records)
    engine_inserts = sum(t.inserts for t in lad.threads.values())
    assert 0 < engine_inserts <= (lad.window_length + 1) * n
    extract = sum(r.q_extract for r in records)
    update = records[-1].q_total - extract
    assert extract > 0
    assert update <= n + (int(1.0 / epsilon) + 2) * engine_inserts


def test_unknown_element_through_growing_set_names_it_like_eval():
    f = random_coverage(6, 5, seed=2, weighted=True)
    o = counted(f)
    grow = o.growing()
    grow.add(1)
    grow.add(3)
    with pytest.raises(DomainError) as plain:
        o.eval(grow.members | {99})
    with pytest.raises(DomainError) as incremental:
        o.eval(grow, 99)
    assert str(incremental.value) == str(plain.value) == (
        "unknown elements: [99]")
    eng = CardinalityState(o, k=3, epsilon=0.25, opt_guess=5.0)
    with pytest.raises(DomainError, match=r"^unknown elements: \[99\]$"):
        eng.insert(99)
    assert o.count == 0


def test_full_engine_makes_no_query_and_drops_its_growing_set():
    f = random_coverage(10, 8, seed=4, weighted=True)
    eng = CardinalityState(counted(f), k=2, epsilon=0.25, opt_guess=1e-3)
    assert type(eng._S) is CoverageGrowingSet
    eng.insert(0)
    eng.insert(1)  # every marginal clears the tiny target's threshold
    assert eng.solution() == {0, 1}
    assert eng._S is None
    count = eng.oracle.count
    for e in range(2, 10):
        eng.insert(e)
    assert eng.oracle.count == count
    assert eng._S is None and eng.solution() == {0, 1}


def tau_star(opt, epsilon) -> int:
    """The index of the largest target (1+eps)^i at or below opt > 0."""
    i = math.floor(math.log(opt) / math.log1p(epsilon))
    while (1.0 + epsilon) ** (i + 1) <= opt:
        i += 1
    while (1.0 + epsilon) ** i > opt:
        i -= 1
    return i


@settings(max_examples=60, deadline=None)
@given(f=weighted_coverage(), k=st.integers(1, 4),
       epsilon=st.floats(0.05, 0.5), data=st.data())
def test_ladder_never_retires_the_engine_that_carries_the_guarantee(
        f, k, epsilon, data):
    # after every insert, the engine with the largest target at or below
    # the brute-forced OPT_t is at or above the lowest index still fed,
    # and the answer keeps the (1-1/e-2eps) bound of criterion 3
    order = data.draw(st.permutations(sorted(f.ground)))
    lad = GuessLadder(counted(f), k, epsilon)
    for t, e in enumerate(order, start=1):
        lad.insert(e)
        _, opt = brute_force_opt(counted(f), ground=order[:t], k=k)
        if opt <= 0:
            continue
        # LB is within one ulp of an f(S) <= OPT_t, so no target lies
        # strictly between OPT_t and LB: the strict cut needs no margin
        assert lad.lb <= math.nextafter(opt, math.inf)
        assert tau_star(opt, epsilon) >= lad.lowest
        assert f(lad.solution()) >= (1 - 1 / math.e - 2 * epsilon) * opt - 1e-9


def test_an_lb_one_ulp_above_opt_on_the_next_target_retires_nothing():
    # S takes 0, 1 and 2 in turn; the accumulated f(S) rounds one ulp
    # above f({0, 1, 2}) = OPT, onto the target 1.5^3 just above it.  The
    # engine of target 1.5^2 carries the guarantee, and a cut at
    # "next target <= LB" would retire it.
    f = CoverageFunction([(0, 0.338), (1, 0.841),
                          (2, math.nextafter(2.196, 0))],
                         {e: {e} for e in range(3)})
    lad = GuessLadder(counted(f), 3, 0.5)
    ref = FeedEveryEngine(counted(f), 3, 0.5, retire=True)
    for e in range(3):
        lad.insert(e)
        ref.insert(e)
    _, opt = brute_force_opt(counted(f), k=3)
    assert repr(opt) == "3.3749999999999996"
    assert lad.lb == 1.5 ** 3 == math.nextafter(opt, math.inf)
    assert tau_star(opt, 0.5) == lad.lowest == 2
    assert lad.threads.keys() == ref.threads.keys()
    assert lad.solution() == ref.solution() == {0, 1, 2}


def test_retiring_ladder_may_pick_a_smaller_set_of_the_same_value():
    # element 2 adds nothing to {0, 1}.  The ladder has retired its two
    # lowest engines by then, so they keep {0, 1}; a ladder feeding every
    # engine lets them take 2.  The pick is the lowest engine of the best
    # value, so the answers differ, both worth OPT.
    f = random_coverage(3, 2, seed=2, weighted=True)
    lad = GuessLadder(counted(f), 3, 0.5)
    every = FeedEveryEngine(counted(f), 3, 0.5)
    for e in (0, 1, 2):
        lad.insert(e)
        every.insert(e)
    S, ref_S = lad.solution(), every.solution()
    assert (S, ref_S) == ({0, 1}, {0, 1, 2})
    _, opt = brute_force_opt(counted(f), k=3)
    assert repr(f(S)) == repr(f(ref_S)) == repr(opt) == "3.8557926384228978"


def test_a_run_whose_buckets_exceed_the_cap_is_refused_before_any_is_built():
    # the ladder's (window_length+1)*(floor(1/eps)+1) buckets and the
    # engine's floor(1/eps)+1, each just over MAX_BUCKETS
    f = random_coverage(20, 12, 0, weighted=True)
    assert (default_window_length(3, 0.0026) + 1) * 385 == 1_044_890
    with pytest.raises(ValueError, match="1,044,890 bucket sets"):
        GuessLadder(counted(f), 3, 0.0026)
    with pytest.raises(ValueError, match="1,000,001 bucket sets"):
        CardinalityState(counted(f), 3, 1e-6, 5.0)
    # just under the cap, a ladder is made; it builds no engine until
    # its first insert
    assert (default_window_length(3, 0.0027) + 1) * 371 == 964_600
    assert not GuessLadder(counted(f), 3, 0.0027).threads
    for algo, epsilon in (("card-ladder", 0.0026), ("card", 1e-6)):
        cfg = RunConfig(algo=algo, k=3, epsilon=epsilon, opt_value=5.0,
                        opt_mode="known")
        with pytest.raises(ValueError, match="bucket sets, over the cap"):
            cfg.check_inputs(Stream.inserts(sorted(f.ground)))


@pytest.mark.parametrize("k, epsilon, message", [
    (0, 0.25, "k must be >= 1"), (-1, 0.25, "k must be >= 1"),
    (3, 0.0, r"epsilon must be in \(0, 1\)"),
    (3, 1.0, r"epsilon must be in \(0, 1\)"),
    (3, 1.5, r"epsilon must be in \(0, 1\)"),
    (3, math.nan, r"epsilon must be in \(0, 1\)")])
def test_ladder_refuses_a_bad_k_or_epsilon_as_the_engine_does(k, epsilon,
                                                              message):
    f = random_coverage(6, 5, seed=0, weighted=True)
    for make in (lambda: GuessLadder(counted(f), k, epsilon),
                 lambda: CardinalityState(counted(f), k, epsilon, 5.0)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


def asked_once_per_insert(lad, ref, order):
    """Feeds `order` to the ladder and to `ref`, a FeedEveryEngine whose
    engines each ask their own marginals, both over a Recorded f, and
    checks after every insert that they agree engine by engine and on
    the pick, and that the ladder asked no set twice within the insert.
    Returns the sets each asked in the last insert."""
    inner, ref_inner = lad.oracle._inner, ref.oracle._inner
    for e in order:
        start, ref_start = len(inner.asked), len(ref_inner.asked)
        lad.insert(e)
        ref.insert(e)
        asked = inner.asked[start:]
        ref_asked = ref_inner.asked[ref_start:]
        assert len(set(asked)) == len(asked)
        assert lad.threads.keys() == ref.threads.keys()
        for i, t in lad.threads.items():
            assert live_view(t) == live_view(ref.threads[i])
        assert lad.solution() == ref.solution()
    return asked, ref_asked


def recorded_pair(f, k, epsilon):
    """A ladder and a FeedEveryEngine that retires, each over its own
    Recorded f, which takes the plain growing set: it asks the set
    S | {e} itself."""
    return (GuessLadder(CountedOracle(Recorded(f), f.ground), k, epsilon),
            FeedEveryEngine(CountedOracle(Recorded(f), f.ground), k, epsilon,
                            retire=True))


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(weighted_coverage(), spread_coverage(),
                   st.integers(0, 10 ** 6).map(small_tree)),
       k=st.integers(1, 5), epsilon=st.floats(0.1, 0.9), data=st.data())
def test_engines_with_equal_sets_share_one_answer_per_insert(f, k, epsilon,
                                                             data):
    # the ladder's answer table changes no engine's S, f(S), buckets or
    # charge, nor the pick, against engines that each ask for themselves
    lad, ref = recorded_pair(f, k, epsilon)
    asked_once_per_insert(lad, ref, data.draw(st.permutations(
        sorted(f.ground))))
    assert lad.oracle.count <= ref.oracle.count


def test_engines_that_reach_one_set_in_two_orders_share_its_answer():
    # k=3, eps=0.5.  Insert 0 (worth 0.5): the engine of target 1.5^2 =
    # 2.25 takes it, while that of 1.5^3 = 3.375, whose threshold is
    # 0.5625, files it in bucket 0.  Insert 1 (2.0): the first takes 1,
    # asking f({0, 1}); the second takes 1 on f({1}) and its retest
    # takes 0, asking f({0, 1}) again, which the table answers.  Insert
    # 2 (1.5): both hold {0, 1}, taken in two orders, and f({0, 1, 2})
    # is asked once for the two.
    f = CoverageFunction([(0, 0.5), (1, 2.0), (2, 1.5)],
                         {e: {e} for e in range(3)})
    lad, ref = recorded_pair(f, 3, 0.5)
    asked_once_per_insert(lad, ref, [0])
    first, second = lad.threads[2], lad.threads[3]
    assert (first.opt_guess, second.opt_guess) == (2.25, 3.375)
    assert first.solution() == {0} and second.solution() == set()
    assert second.buckets[0] == {0}
    asked, ref_asked = asked_once_per_insert(lad, ref, [1])
    assert first.solution() == second.solution() == {0, 1}
    assert asked == [{1}, {0, 1}] and ref_asked.count({0, 1}) == 3
    asked, ref_asked = asked_once_per_insert(lad, ref, [2])
    assert first.solution() == second.solution() == {0, 1, 2}
    assert asked == [{2}, {0, 1, 2}, {1, 2}]
    assert ref_asked.count({0, 1, 2}) == 2
