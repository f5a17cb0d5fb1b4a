import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub.objectives import (CoverageFunction, multilinear_exact,
                               plus_direction, random_coverage)
from dynsub.oracle import EnumerationBudgetError


def test_coverage_eval_example():
    f = CoverageFunction([("a", 1), ("b", 1), ("c", 1)],
                         {1: {"a", "b"}, 2: {"b", "c"}})
    assert f({1, 2}) == 3.0
    assert f(set()) == 0.0


def test_coverage_file_round_trip(tmp_path):
    f = random_coverage(6, 7, seed=1, weighted=True)
    p = tmp_path / "cov.txt"
    f.dump(p)
    g = CoverageFunction.load(p)
    assert g.covers == f.covers
    for item, w in f.universe:
        assert g.weights[item] == w
    rng = random.Random(0)
    for _ in range(20):
        S = frozenset(rng.sample(sorted(f.ground), rng.randint(0, 6)))
        assert f(S) == g(S)


@pytest.mark.parametrize("line", ["e 0", "e 0 a", "w a", "w a 1 2", "x"])
def test_coverage_load_rejects_malformed_line(tmp_path, line):
    p = tmp_path / "cov.txt"
    p.write_text(f"coverage 1 1\nw a 1.0\n{line}\n")
    with pytest.raises(ValueError, match="bad"):
        CoverageFunction.load(p)


def _reference_value(f, S):
    """f(S) as a scan of the whole universe, in universe order."""
    hit = set()
    for e in S:
        hit |= f.covers[e]
    return sum(w for item, w in f.universe if item in hit)


def _reference_multilinear(f, x):
    """Closed-form F(x) scanning sorted(f.covers) for every item."""
    total = 0.0
    for item, w in f.universe:
        miss = 1.0
        for e in sorted(f.covers):
            if item in f.covers[e]:
                miss *= 1.0 - x.get(e, 0.0)
        total += w * (1.0 - miss)
    return total


@st.composite
def _coverage_cases(draw):
    n_items = draw(st.integers(1, 8))
    weights = draw(st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=n_items, max_size=n_items))
    items = [f"u{j}" for j in draw(st.permutations(range(n_items)))]
    n_el = draw(st.integers(1, 12))
    covers = {e: draw(st.sets(st.sampled_from(items), max_size=8))
              for e in draw(st.permutations(range(n_el)))}
    f = CoverageFunction(list(zip(items, weights)), covers)
    ids = sorted(f.ground)
    sets = draw(st.lists(st.sets(st.sampled_from(ids)), max_size=6))
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    points = draw(st.lists(st.dictionaries(st.sampled_from(ids), coord),
                           max_size=6))
    return f, [set()] + sets, [{}] + points


def _same(a, b):
    return a == b and repr(a) == repr(b)


@settings(max_examples=200, deadline=None)
@given(_coverage_cases())
def test_indexed_coverage_bit_identical_to_universe_scan(case):
    f, sets, points = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cov.txt")
        f.dump(path)
        g = CoverageFunction.load(path)
    for h in (f, g):
        for S in sets:
            assert _same(h(frozenset(S)), _reference_value(f, S))
        for x in points:
            assert _same(multilinear_exact(h, x), _reference_multilinear(f, x))


def test_multilinear_factor_order_is_ascending_id():
    # this float product depends on the order of its factors
    f = CoverageFunction([("b", 2.0), ("a", 1.0)],
                         {2: {"a"}, 0: {"a", "b"}, 1: {"a"}})
    x = {1: 0.18, 2: 0.1, 0: 0.12}
    assert _same(multilinear_exact(f, x), _reference_multilinear(f, x))


def test_unknown_cover_item_rejected():
    with pytest.raises(ValueError, match="element 1 covers unknown items"):
        CoverageFunction([("a", 1.0), ("b", 2.0)], {0: {"a"}, 1: {"b", "z"}})


def test_multilinear_exact_examples():
    f = CoverageFunction([("a", 1)], {0: {"a"}, 1: {"a"}})
    assert multilinear_exact(f, {}) == 0.0
    assert multilinear_exact(f, {0: 0.5, 1: 0.5}) == pytest.approx(0.75)
    assert multilinear_exact(f, {0: 1.0}) == f({0})


def test_multilinear_vertex_agreement():
    rng = random.Random(2)
    for seed in range(20):
        f = random_coverage(8, 9, seed=seed, weighted=True)
        S = frozenset(rng.sample(sorted(f.ground), rng.randint(0, 8)))
        x = {e: 1.0 for e in S}
        assert multilinear_exact(f, x) == pytest.approx(f(S), abs=1e-9)


def test_closed_form_matches_brute_force():
    rng = random.Random(3)
    for seed in range(10):
        f = random_coverage(10, 8, seed=seed, weighted=True)
        support = rng.sample(sorted(f.ground), rng.randint(1, 10))
        x = {e: rng.random() for e in support}
        closed = multilinear_exact(f, x)
        brute = multilinear_exact(lambda S: f(S), x)
        assert closed == pytest.approx(brute, abs=1e-9)


def test_multilinear_monotone():
    rng = random.Random(4)
    f = random_coverage(8, 10, seed=9, weighted=True)
    for _ in range(50):
        x = {e: rng.random() for e in range(8)}
        y = {e: min(1.0, v + rng.random() * (1 - v)) for e, v in x.items()}
        assert multilinear_exact(f, x) <= multilinear_exact(f, y) + 1e-9


def test_brute_force_support_cutoff():
    with pytest.raises(EnumerationBudgetError):
        multilinear_exact(lambda S: float(len(S)),
                          {e: 0.5 for e in range(25)})


def test_plus_direction():
    assert plus_direction({}, {1}, 1.0) == {1: 1.0}
    assert plus_direction({1: 0.8}, {1}, 0.5) == {1: 1.0}
    x = {1: 0.3}
    assert plus_direction(x, set(), 0.5) == x
    with pytest.raises(ValueError):
        plus_direction(x, {1}, 0.0)
