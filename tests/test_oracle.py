import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsub.hard_bipartite import BipartiteInstance, bipartite_eval
from dynsub.oracle import (CountedOracle, DomainError, EnumerationBudgetError,
                           InvariantError, brute_force_opt)
from dynsub.objectives import CoverageFunction, random_coverage
from dynsub.matroids import PartitionMatroid, UniformMatroid
from oracles import (ModularFunction, check_submodular_monotone, counted,
                     plain_cardinality_opt, small_tree)


def recording(f, ground):
    """A counted oracle over `ground`, and the list of the sets it is
    asked to evaluate, in order."""
    asked = []

    def inner(S):
        asked.append(S)
        return f(S)

    oracle = CountedOracle(inner, ground)
    asked.clear()  # the uncounted probe of the empty set
    return oracle, asked


def independent_sets(M, ground) -> set:
    """Every independent subset of `ground`, the empty one included: the
    sets a walk that evaluates every independent set evaluates."""
    ground = sorted(ground)
    return {frozenset(tup) for r in range(len(ground) + 1)
            for tup in itertools.combinations(ground, r)
            if M.is_independent(tup)}


def small_coverage():
    return CoverageFunction([("a", 1), ("b", 1), ("c", 1)],
                            {1: {"a", "b"}, 2: {"b", "c"}})


def test_eval_normalization_and_count():
    f = small_coverage()
    o = counted(f)
    assert o.eval(frozenset()) == 0.0
    assert o.eval(f.ground) == 3.0
    assert o.eval({1, 2}) == 3.0
    assert o.count == 3


def test_eval_domain_error():
    o = counted(small_coverage())
    with pytest.raises(DomainError):
        o.eval({99})


def test_offset_normalization():
    o = CountedOracle(lambda S: len(S) + 7.0, {0, 1, 2})
    assert o.eval(frozenset()) == 0.0
    assert o.eval({0, 1}) == 2.0


def test_property_checker_clean_oracles():
    cov = counted(random_coverage(8, 10, seed=0))
    assert check_submodular_monotone(cov, trials=1000, seed=1).ok
    mod = counted(ModularFunction({e: e + 1 for e in range(6)}))
    assert check_submodular_monotone(mod, trials=1000, seed=2).ok


def test_property_checker_flags_supermodular():
    o = CountedOracle(lambda S: float(len(S)) ** 2, set(range(6)))
    rep = check_submodular_monotone(o, trials=500, seed=3)
    assert any(kind == "submodularity" for kind, *_ in rep.violations)


def test_brute_force_cardinality():
    mod = counted(ModularFunction({0: 3.0, 1: 1.0, 2: 2.0}))
    S, v = brute_force_opt(mod, k=0)
    assert S == frozenset() and v == 0.0
    S, v = brute_force_opt(mod, k=2)
    assert v == 5.0 and S == {0, 2}
    cov = counted(small_coverage())
    _, v = brute_force_opt(cov, k=1)
    assert v == 2.0


def test_brute_force_budget_guard():
    cov = counted(random_coverage(25, 10, seed=4))
    with pytest.raises(EnumerationBudgetError):
        brute_force_opt(cov, k=10, budget=100)


def test_brute_force_matroid_matches_filtered_enumeration():
    f = random_coverage(8, 8, seed=5)
    M = PartitionMatroid({e: e % 2 for e in range(8)}, {0: 1, 1: 2})
    S, v = brute_force_opt(counted(f), matroid=M)
    assert M.is_independent(S)
    # cross-check against cardinality enumeration filtered by independence
    best = 0.0
    for r in range(4):
        for tup in itertools.combinations(range(8), r):
            if M.is_independent(tup):
                best = max(best, f(tup))
    assert v == best


def test_brute_force_returns_the_exact_maximum():
    # {1} is 2**-52 above {0}; a tie rule with 1e-15 of slack kept {0}
    f = ModularFunction({0: 0.5, 1: 0.5 + 2 ** -52})
    S, v = brute_force_opt(counted(f), k=1)
    assert S == {1} and v == 0.5 + 2 ** -52


def test_brute_force_ties_go_to_the_smallest_sorted_tuple():
    f = ModularFunction({0: 1.0, 1: 1.0, 2: 1.0})
    o = counted(f)
    assert tuple(brute_force_opt(o, k=2)) == (frozenset({0, 1}), 2.0)
    # the same winner when the tied sets are walked across a resume
    prev = brute_force_opt(o, ground={1, 2}, k=2)
    assert prev[0] == {1, 2}
    assert brute_force_opt(o, k=2, prev=prev)[0] == {0, 1}


def _cardinality_objective(objective, rng, seed):
    if objective == "bipartite":
        inst = BipartiteInstance(m=rng.randint(1, 2), k=4, w=2, eps=0.33,
                                 seed=seed)
        f = lambda S, inst=inst: bipartite_eval(inst, S)  # noqa: E731
        f.ground = inst.ground
        return f
    if objective == "tree":
        return small_tree(seed)
    if objective == "weighted":
        return random_coverage(rng.randint(1, 10), rng.randint(1, 12), seed,
                               weighted=True)
    # few items of weight 1: the optimum often covers all, the cap
    return random_coverage(rng.randint(1, 10), rng.randint(1, 3), seed)


@settings(max_examples=200, deadline=None)
@given(objective=st.sampled_from(["weighted", "small-universe", "bipartite",
                                  "tree"]),
       k=st.integers(0, 4), shuffled=st.booleans(),
       seed=st.integers(0, 10 ** 6),
       cuts=st.sets(st.integers(0, 16), max_size=3))
# resumed chains where a group whose pool is not sorted ends too early
@example(objective="bipartite", k=4, shuffled=True, seed=7, cuts={2, 7})
@example(objective="small-universe", k=2, shuffled=True, seed=93,
         cuts={1, 2})
@example(objective="tree", k=2, shuffled=True, seed=1, cuts={3})
def test_capped_walk_matches_a_plain_enumeration(objective, k, shuffled, seed,
                                                 cuts):
    rng = random.Random(seed)
    f = _cardinality_objective(objective, rng, seed)
    order = sorted(f.ground)
    if shuffled:
        rng.shuffle(order)
    S, v = plain_cardinality_opt(counted(f).eval, order, k)
    n_feasible = sum(math.comb(len(order), j)
                     for j in range(min(k, len(order)) + 1))
    cuts = sorted({min(t, len(order)) for t in cuts} | {len(order)})
    for chain in ([len(order)], cuts):  # fresh, then resumed
        o, asked = recording(f, order)
        prev, caps = None, []
        for t in chain:
            if t > (len(prev.ground) if prev else 0) and t > k:
                caps.append(frozenset(order[:t]))
            prev = brute_force_opt(o, ground=order[:t], k=k, prev=prev)
        assert (sorted(prev[0]), repr(prev[1])) == (sorted(S), repr(v))
        assert prev.count == n_feasible
        # each set of size <= k at most once; above k only the caps
        walked = [T for T in asked if len(T) <= k]
        assert len(walked) == len(set(walked)) <= n_feasible
        assert [T for T in asked if len(T) > k] == caps


def test_capped_walk_refuses_an_objective_above_its_cap():
    # {3} is worth 1.1 and the ground 0.5
    o = CountedOracle(lambda S: 0.1 * len(S) + (S == {3}), range(5))
    with pytest.raises(InvariantError,
                       match=r"not monotone: f\(\[3\]\) is 1\.1"):
        brute_force_opt(o, k=2)


def _partition_9():
    return PartitionMatroid({e: e % 3 for e in range(9)}, {0: 1, 1: 2, 2: 1})


@pytest.mark.parametrize("matroid", [False, True])
def test_brute_force_resume_matches_a_full_walk(matroid):
    f = random_coverage(9, 12, seed=6, weighted=True)
    constraint = dict(matroid=_partition_9()) if matroid else dict(k=3)
    full = brute_force_opt(counted(f), **constraint)
    o, asked = recording(f, f.ground)
    prev = None
    for t in (2, 3, 7, 9):
        prev = brute_force_opt(o, ground=range(t), prev=prev, **constraint)
    assert tuple(prev) == tuple(full)
    assert prev.ground == full.ground
    # no set was evaluated twice
    assert len(asked) == len(set(asked)) == o.count
    if matroid:
        # the branch and bound evaluates a part of the independent sets,
        # and count is the evaluations made
        assert o.count == prev.count
        assert set(asked) <= independent_sets(_partition_9(), range(9))
    else:
        # count is every feasible set, the empty one included; the walk
        # evaluates a part of them, plus the cap f(ground) of each call
        # whose ground outgrows k
        feasible = {frozenset(c) for r in range(4)
                    for c in itertools.combinations(range(9), r)}
        assert prev.count == full.count == len(feasible)
        assert [S for S in asked if len(S) > 3] == [frozenset(range(7)),
                                                    frozenset(range(9))]
        assert {S for S in asked if len(S) <= 3} <= feasible


@pytest.mark.parametrize("matroid", [False, True])
def test_brute_force_resume_budget_counts_the_whole_ground(matroid):
    f = random_coverage(9, 12, seed=7)
    constraint = dict(matroid=_partition_9()) if matroid else dict(k=3)
    o = counted(f)
    prev = brute_force_opt(o, ground=range(5), **constraint)
    n_sets = brute_force_opt(counted(f), prev=prev, **constraint).count
    if not matroid:  # C(9, <= 3), however the ground was walked
        assert n_sets == brute_force_opt(counted(f), **constraint).count
    # a budget of the sets walked now alone would let this call through
    assert n_sets - prev.count < n_sets - 1
    with pytest.raises(EnumerationBudgetError):
        brute_force_opt(o, budget=n_sets - 1, prev=prev, **constraint)
    assert brute_force_opt(o, budget=n_sets, prev=prev, **constraint).count \
        == n_sets


def test_brute_force_resume_needs_a_subset():
    o = counted(random_coverage(6, 6, seed=8))
    prev = brute_force_opt(o, ground={0, 5}, k=2)
    with pytest.raises(ValueError, match="subset"):
        brute_force_opt(o, ground={0, 1, 2}, k=2, prev=prev)


def test_brute_force_dominates_greedy_spotcheck():
    from dynsub.harness import offline_greedy
    for seed in range(5):
        f = random_coverage(10, 10, seed=seed)
        _, gv = offline_greedy(counted(f), f.ground, k=3)
        _, bv = brute_force_opt(counted(f), k=3)
        assert bv >= gv - 1e-12


# blocks whose ids interleave, one of them with cap 0
_BLOCKS = {0: "a", 1: "b", 2: "z", 3: "a", 4: "b", 5: "a", 6: "z", 7: "b",
           8: "a"}
WALK_MATROIDS = {
    "uniform-0": lambda: UniformMatroid(0, range(9)),
    "uniform-2": lambda: UniformMatroid(2, range(9)),
    "uniform-9": lambda: UniformMatroid(9, range(9)),
    "partition": lambda: PartitionMatroid(_BLOCKS, {"a": 2, "b": 1, "z": 0}),
    "partition-all-0": lambda: PartitionMatroid(_BLOCKS,
                                                {"a": 0, "b": 0, "z": 0}),
}
# (old, new): the walked ground is old + new, as brute_force_opt splits it
WALK_SPLITS = [([], list(range(9))), ([0, 2, 5], [1, 3, 4, 6, 7, 8]),
               ([1, 3, 4, 6, 7, 8], [0, 2, 5]), (list(range(8)), [8]),
               (list(range(9)), [])]


@pytest.mark.parametrize("name", sorted(WALK_MATROIDS))
@pytest.mark.parametrize("old, new", WALK_SPLITS)
def test_matroid_walk_yields_each_independent_set_through_new_once(
        name, old, new):
    # a constant objective bounds no subtree below the incumbent, so the
    # branch and bound walks every independent set
    M = WALK_MATROIDS[name]()
    o, asked = recording(lambda S: 0.0, range(9))
    prev = brute_force_opt(o, ground=old, matroid=M)
    assert sorted(map(sorted, asked)) == sorted(
        map(sorted, independent_sets(M, old)))
    asked.clear()
    out = brute_force_opt(o, ground=old + new, matroid=M, prev=prev)
    walked = [tuple(sorted(S)) for S in asked]
    expected = {tup for r in range(1, 10)
                for tup in itertools.combinations(sorted(old + new), r)
                if set(tup) & set(new) and M.is_independent(tup)}
    assert len(walked) == len(set(walked))
    assert set(walked) == expected
    assert out.count == prev.count + len(walked)
    assert tuple(out) == (frozenset(), 0.0)


@pytest.mark.parametrize("name", sorted(WALK_MATROIDS))
def test_matroid_resume_matches_a_walk_from_scratch(name):
    f = random_coverage(9, 10, seed=11, weighted=True)
    full = brute_force_opt(counted(f), matroid=WALK_MATROIDS[name]())
    n_independent = len(independent_sets(WALK_MATROIDS[name](), range(9)))
    for cuts in ((9,), (4, 9), (1, 5, 8, 9), (0, 9)):
        prev = None
        M = WALK_MATROIDS[name]()
        o, asked = recording(f, f.ground)
        for t in cuts:
            prev = brute_force_opt(o, ground=range(t), matroid=M, prev=prev)
        assert (prev[0], repr(prev[1])) == (full[0], repr(full[1]))
        # each set once, counted, and no more than every independent set
        assert len(set(asked)) == len(asked) == o.count == prev.count
        assert prev.count <= n_independent


def test_matroid_walk_stops_at_the_rank():
    # 40 elements in 3 blocks of cap 1: 2,940 independent sets.  A walk
    # that evaluates each of them makes 6,424 independence queries, and
    # 20,580 if it tries to grow the sets of size 3 too.  The branch and
    # bound evaluates 106 of them.
    f = random_coverage(40, 300, seed=1000, weighted=True)
    M = PartitionMatroid({e: e * 3 // 40 for e in range(40)},
                         {0: 1, 1: 1, 2: 1})
    o = counted(f)
    opt = brute_force_opt(o, matroid=M)
    assert (sorted(opt[0]), repr(opt[1])) == ([3, 15, 29], "16.43383455927607")
    assert (opt.count, o.count) == (106, 106)
    assert M.query_count == 351


def _best_by_enumeration(f, M, ground):
    """The exact maximum over the independent subsets of `ground`, and
    the smallest sorted id tuple of that value, by a filtered
    itertools.combinations walk."""
    o = counted(f)
    return min(((-o.eval(S), sorted(S)) for S in independent_sets(M, ground)))


@settings(max_examples=80, deadline=None)
@given(objective=st.sampled_from(["coverage", "modular", "tree"]),
       matroid=st.sampled_from(["uniform", "partition", "all-0"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_pruned_walk_matches_a_filtered_enumeration(objective, matroid, seed,
                                                    data):
    rng = random.Random(seed)
    if objective == "tree":
        f = small_tree(seed)
    elif objective == "coverage":
        f = random_coverage(rng.randint(1, 10), rng.randint(1, 12), seed,
                            weighted=True)
    else:  # few distinct dyadic weights: many exact ties
        f = ModularFunction({e: rng.choice([0.0, 0.5, 1.0, 1.5])
                             for e in range(rng.randint(1, 10))})
    ground = sorted(f.ground)
    if matroid == "uniform":
        M = UniformMatroid(rng.randint(0, len(ground)), ground)
    else:
        caps = {b: 0 if matroid == "all-0" else rng.randint(0, 2)
                for b in range(3)}
        M = PartitionMatroid({e: rng.randrange(3) for e in ground}, caps)
    cuts = sorted(data.draw(st.sets(st.integers(0, len(ground)), max_size=3))
                  | {len(ground)})
    o, asked = recording(f, ground)
    prev = None
    for t in cuts:
        prev = brute_force_opt(o, ground=ground[:t], matroid=M, prev=prev)
    neg, ids = _best_by_enumeration(f, M, ground)
    assert (sorted(prev[0]), repr(prev[1])) == (ids, repr(-neg))
    assert len(set(asked)) == len(asked) == prev.count


def test_walk_refuses_a_supermodular_objective():
    # the gain of a second element, 3, is above the gain of the first, 1
    o = CountedOracle(lambda S: float(len(S)) ** 2, range(5))
    with pytest.raises(InvariantError, match="not submodular"):
        brute_force_opt(o, matroid=UniformMatroid(3, range(5)))


def test_walk_refuses_an_objective_that_falls():
    # f = 3, 4, 3 on sets of size 1, 2, 3: submodular, not monotone
    o = CountedOracle(lambda S: float(len(S) * (4 - len(S))), range(5))
    with pytest.raises(InvariantError, match="not monotone"):
        brute_force_opt(o, matroid=UniformMatroid(3, range(5)))


def test_walk_reaches_the_n300_amplify_shape():
    # 300 elements in 3 blocks of cap 1: 101**3 = 1,030,301 independent
    # sets, which a walk that evaluates each of them refuses at the 10^6
    # budget.  The optimum below is that walk's, run once with a budget
    # of 2*10^6.
    f = random_coverage(300, 2000, 1000, weighted=True)
    M = PartitionMatroid({e: e * 3 // 300 for e in range(300)},
                         {0: 1, 1: 1, 2: 1})
    o = counted(f)
    opt = brute_force_opt(o, matroid=M)
    assert (sorted(opt[0]), repr(opt[1])) == ([69, 123, 250],
                                              "19.473698120976582")
    assert opt.count == o.count < 5000
