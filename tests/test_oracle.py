import pytest

from dynsub.oracle import (CountedOracle, DomainError, EnumerationBudgetError,
                           brute_force_opt, check_submodular_monotone)
from dynsub.objectives import CoverageFunction, ModularFunction, random_coverage
from dynsub.matroids import PartitionMatroid


def small_coverage():
    return CoverageFunction([("a", 1), ("b", 1), ("c", 1)],
                            {1: {"a", "b"}, 2: {"b", "c"}})


def test_eval_normalization_and_count():
    f = small_coverage()
    o = f.as_oracle()
    assert o.eval(frozenset()) == 0.0
    assert o.eval(f.ground) == 3.0
    assert o.eval({1, 2}) == 3.0
    assert o.count == 3


def test_eval_domain_error():
    o = small_coverage().as_oracle()
    with pytest.raises(DomainError):
        o.eval({99})


def test_offset_normalization():
    o = CountedOracle(lambda S: len(S) + 7.0, {0, 1, 2})
    assert o.eval(frozenset()) == 0.0
    assert o.eval({0, 1}) == 2.0


def test_property_checker_clean_oracles():
    cov = random_coverage(8, 10, seed=0).as_oracle()
    assert check_submodular_monotone(cov, trials=1000, seed=1).ok
    mod = ModularFunction({e: e + 1 for e in range(6)}).as_oracle()
    assert check_submodular_monotone(mod, trials=1000, seed=2).ok


def test_property_checker_flags_supermodular():
    o = CountedOracle(lambda S: float(len(S)) ** 2, set(range(6)))
    rep = check_submodular_monotone(o, trials=500, seed=3)
    assert any(kind == "submodularity" for kind, *_ in rep.violations)


def test_brute_force_cardinality():
    mod = ModularFunction({0: 3.0, 1: 1.0, 2: 2.0}).as_oracle()
    S, v = brute_force_opt(mod, k=0)
    assert S == frozenset() and v == 0.0
    S, v = brute_force_opt(mod, k=2)
    assert v == 5.0 and S == {0, 2}
    cov = small_coverage().as_oracle()
    _, v = brute_force_opt(cov, k=1)
    assert v == 2.0


def test_brute_force_budget_guard():
    cov = random_coverage(25, 10, seed=4).as_oracle()
    with pytest.raises(EnumerationBudgetError):
        brute_force_opt(cov, k=10, budget=100)


def test_brute_force_matroid_matches_filtered_enumeration():
    f = random_coverage(8, 8, seed=5)
    M = PartitionMatroid({e: e % 2 for e in range(8)}, {0: 1, 1: 2})
    S, v = brute_force_opt(f.as_oracle(), matroid=M)
    assert M.is_independent(S)
    # cross-check against cardinality enumeration filtered by independence
    import itertools
    best = 0.0
    for r in range(4):
        for tup in itertools.combinations(range(8), r):
            if M.is_independent(tup):
                best = max(best, f(tup))
    assert abs(v - best) < 1e-12


def test_brute_force_dominates_greedy_spotcheck():
    from dynsub.harness import offline_greedy
    for seed in range(5):
        f = random_coverage(10, 10, seed=seed)
        _, gv = offline_greedy(f.as_oracle(), f.ground, k=3)
        _, bv = brute_force_opt(f.as_oracle(), k=3)
        assert bv >= gv - 1e-12
