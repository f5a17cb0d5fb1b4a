import math
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsub.objectives import (CoverageFunction, ShiftGrowingSet,
                               multilinear_exact, multilinear_shifts,
                               plus_direction, random_coverage)
from dynsub.oracle import CountedOracle, DomainError, EnumerationBudgetError
from oracles import dump_coverage, spread_coverage


def test_coverage_eval_example():
    f = CoverageFunction([("a", 1), ("b", 1), ("c", 1)],
                         {1: {"a", "b"}, 2: {"b", "c"}})
    assert f({1, 2}) == 3.0
    assert f(set()) == 0.0


def test_coverage_file_round_trip(tmp_path):
    f = random_coverage(6, 7, seed=1, weighted=True)
    p = tmp_path / "cov.txt"
    dump_coverage(f, p)
    g = CoverageFunction.load(p)
    assert g.covers == f.covers
    for item, w in f.universe:
        assert g.weights[item] == w
    rng = random.Random(0)
    for _ in range(20):
        S = frozenset(rng.sample(sorted(f.ground), rng.randint(0, 6)))
        assert f(S) == g(S)


@pytest.mark.parametrize("line", [
    "e 0", "e 0 a", "w a", "w a 1 2", "x",
    "w a inf", "w a nan", "w a -1", "e x : a", "w a heavy",
    "e 0 : a\ne 0 : a",  # a second line for element 0
    "e 0 : a\ne 1 : a",  # two elements under a header that counts one
    "w a 5\ne 0 : a",  # a second weight line for item a
])
def test_coverage_load_rejects_malformed_line(tmp_path, line):
    p = tmp_path / "cov.txt"
    p.write_text(f"coverage 1 1\nw a 1.0\n{line}\n")
    with pytest.raises(ValueError, match="bad"):
        CoverageFunction.load(p)


def test_coverage_load_weighs_an_item_after_its_element_line(tmp_path):
    # the 1.0 an `e` line gives an item is a default, not a weight line
    p = tmp_path / "cov.txt"
    p.write_text("coverage 1 1\ne 0 : a\nw a 5\n")
    assert CoverageFunction.load(p).weights == {"a": 5.0}


@pytest.mark.parametrize("weight", [math.inf, math.nan, -1.0])
def test_coverage_refuses_a_negative_or_non_finite_weight(weight):
    with pytest.raises(ValueError, match="finite and >= 0"):
        CoverageFunction([("a", 1.0), ("b", weight)], {0: {"a", "b"}})


@pytest.mark.parametrize("weights", [
    # left to right this total rounds back to the float maximum, but the
    # exact total is past it
    [1.7976931348623157e308, 0.9e292, 0.9e292],
    [math.inf, -math.inf],
])
def test_coverage_refuses_a_total_past_the_float_range(weights):
    universe = [(f"u{j}", w) for j, w in enumerate(weights)]
    with pytest.raises(ValueError, match="finite total, got total inf"):
        CoverageFunction(universe, {0: {"u0"}})


@pytest.mark.parametrize("n_elements, n_items, needle", [
    (0, 5, "n_elements must be >= 1"),
    (-1, 5, "n_elements must be >= 1"),
    (4, 0, "n_items must be >= 1"),
])
def test_random_coverage_refuses_an_empty_size(n_elements, n_items, needle):
    with pytest.raises(ValueError, match=needle):
        random_coverage(n_elements, n_items, seed=0)


def _reference_value(f, S):
    """f(S) as a scan of the whole universe: the exact sum of the covered
    weights, rounded once."""
    hit = set()
    for e in S:
        hit |= f.covers[e]
    return float(sum(Fraction(w) for item, w in f.universe if item in hit))


def _reference_multilinear(f, x):
    """Closed-form F(x) scanning sorted(f.covers) for every item, the
    terms summed with one rounding."""
    terms = []
    for item, w in f.universe:
        miss = 1.0
        for e in sorted(f.covers):
            if item in f.covers[e]:
                miss *= 1.0 - x.get(e, 0.0)
        terms.append(w * (1.0 - miss))
    return math.fsum(terms)


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


def test_coverage_value_does_not_depend_on_the_universe_order():
    rng = random.Random(5)
    f = random_coverage(30, 40, seed=5, weighted=True)
    for _ in range(5):
        universe = rng.sample(f.universe, len(f.universe))
        g = CoverageFunction(universe, f.covers)
        for _ in range(20):
            S = rng.sample(sorted(f.ground), rng.randint(0, 30))
            assert _same(g(S), f(S))
            assert _same(f(S), _reference_value(f, S))


@settings(max_examples=200, deadline=None)
@given(_coverage_cases())
def test_indexed_coverage_bit_identical_to_universe_scan(case):
    f, sets, points = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cov.txt")
        dump_coverage(f, path)
        g = CoverageFunction.load(path)
    for h in (f, g):
        for S in sets:
            assert _same(h(frozenset(S)), _reference_value(f, S))
        for x in points:
            assert _same(multilinear_exact(h, x), _reference_multilinear(f, x))


@st.composite
def _shift_cases(draw):
    f = random_coverage(draw(st.integers(1, 16)), draw(st.integers(1, 12)),
                        seed=draw(st.integers(0, 10 ** 6)),
                        weighted=draw(st.booleans()))
    ids = sorted(f.ground)
    # decimals such as 0.18 make a product of three factors order-sensitive
    coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                      st.integers(1, 999).map(lambda i: i / 1000))
    x = draw(st.dictionaries(st.sampled_from(ids), coord))
    # S may be empty and may hold elements x already puts at 1
    sets = draw(st.lists(st.frozensets(st.sampled_from(ids)), min_size=1,
                         max_size=6))
    return f, x, sets, 1.0 / draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(_shift_cases())
def test_multilinear_shifts_bit_identical_to_the_full_formula(case):
    f, x, sets, step = case
    shifted = multilinear_shifts(f, x, step)
    for S in sets:
        assert _same(shifted(S), multilinear_exact(f, plus_direction(x, S, step)))


@settings(max_examples=200, deadline=None)
@given(_shift_cases(), st.data())
def test_multilinear_shifts_are_monotone_without_slack(case, data):
    """Every term and the one rounding of their sum are monotone, so a
    superset never shifts lower and a stage gain is never negative."""
    f, x, sets, step = case
    shifted = multilinear_shifts(f, x, step)
    base = shifted(set())
    assert _same(base, multilinear_exact(f, x))
    for S in sets:
        T = S | data.draw(st.frozensets(st.sampled_from(sorted(f.ground))))
        assert base <= shifted(S) <= shifted(T)


def test_multilinear_shifts_near_the_float_maximum():
    f = CoverageFunction([("a", 8.9e307), ("b", 8.9e307)],
                         {0: {"a"}, 1: {"a", "b"}, 2: {"b"}})
    for x in ({}, {0: 0.5}, {0: 0.3, 1: 0.9, 2: 1.0}):
        for step in (1.0, 0.5, 1.0 / 3):
            shifted = multilinear_shifts(f, x, step)
            for S in (set(), {0}, {1}, {0, 2}, {0, 1, 2}):
                value = shifted(S)
                assert math.isfinite(value)
                assert _same(value,
                             multilinear_exact(f, plus_direction(x, S, step)))


def test_multilinear_shifts_copies_x_and_checks_its_inputs():
    f = random_coverage(4, 6, seed=0, weighted=True)
    x = {0: 0.5}
    shifted = multilinear_shifts(f, x, 0.5)
    x[0] = 1.0  # a later change to x does not reach the shifts
    assert _same(shifted({0}), multilinear_exact(f, {0: 1.0}))
    assert _same(shifted(set()), multilinear_exact(f, {0: 0.5}))
    with pytest.raises(ValueError, match="step"):
        multilinear_shifts(f, {}, 0.0)
    with pytest.raises(ValueError, match="outside"):
        multilinear_shifts(f, {0: 1.5}, 0.5)


def test_multilinear_shifts_of_a_plain_set_function():
    f = random_coverage(5, 6, seed=1, weighted=True)
    x = {0: 0.3, 2: 1.0, 4: 0.7}
    plain = lambda T: f(T)  # not a CoverageFunction: the subset formula
    shifted = multilinear_shifts(plain, x, 0.25)
    for S in ({0}, {1, 2}, {0, 3, 4}):
        y = plus_direction(x, S, 0.25)
        assert _same(shifted(S), multilinear_exact(plain, y))
        # the closed form rounds differently, but only in the last digits
        assert math.isclose(multilinear_exact(f, y), shifted(S),
                            rel_tol=1e-12)


@st.composite
def _stage_cases(draw):
    """A coverage f, random or with spread weights, a point x with
    coordinates at 0, at the clamp 1 and in between, and a step."""
    if draw(st.booleans()):
        f = random_coverage(draw(st.integers(1, 12)), draw(st.integers(1, 10)),
                            seed=draw(st.integers(0, 10 ** 6)), weighted=True)
    else:
        f = draw(spread_coverage())
    coord = st.one_of(st.sampled_from([0.0, 1.0, 0.9]), st.floats(0.0, 1.0),
                      st.integers(1, 999).map(lambda i: i / 1000))
    x = draw(st.dictionaries(st.sampled_from(sorted(f.ground)), coord))
    return f, x, 1.0 / draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(_stage_cases(), st.data())
def test_stage_gain_growing_set_is_the_shifted_value_bit_for_bit(case, data):
    f, x, step = case
    shift = multilinear_shifts(f, x, step)
    o = CountedOracle(shift, f.ground)
    exact = CountedOracle(
        lambda S: multilinear_exact(f, plus_direction(x, S, step)), f.ground)
    grow = o.growing()
    assert type(grow) is ShiftGrowingSet and not grow.members
    assert grow._expansion is shift.expansion  # an empty S shares them
    for e in data.draw(st.permutations(sorted(f.ground))):
        # every element, those already in S too
        for y in sorted(f.ground):
            kept = (grow._terms, grow._expansion)
            before = o.count
            v = o.eval(grow, y)
            assert o.count == before + 1
            assert all(a is b for a, b in zip(kept, (grow._terms,
                                                     grow._expansion)))
            T = grow.members | {y}
            assert repr(v) == repr(exact.eval(T))
            assert repr(grow.f_plus(y)) == repr(shift(T)) == repr(
                multilinear_exact(f, plus_direction(x, T, step)))
        if data.draw(st.booleans()):
            grow.add(e)
            # a growing set made at S itself answers the same
            made = o.growing(set(grow.members))
            assert [repr(made.f_plus(y)) for y in sorted(f.ground)] == [
                repr(grow.f_plus(y)) for y in sorted(f.ground)]
    count = o.count
    with pytest.raises(DomainError, match=r"^unknown elements: \[99\]$"):
        o.eval(grow, 99)
    assert o.count == count


def test_multilinear_factor_order_is_ascending_id():
    # this float product depends on the order of its factors
    f = CoverageFunction([("b", 2.0), ("a", 1.0)],
                         {2: {"a"}, 0: {"a", "b"}, 1: {"a"}})
    x = {1: 0.18, 2: 0.1, 0: 0.12}
    assert _same(multilinear_exact(f, x), _reference_multilinear(f, x))
    # and so do the patched terms of a shifted point
    for S in ({0}, {1}, {2}, {0, 1}):
        for m in range(1, 6):
            y = plus_direction(x, S, 1.0 / m)
            assert _same(multilinear_shifts(f, x, 1.0 / m)(S),
                         _reference_multilinear(f, y))


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
        # one float rule: at a vertex both are the fsum of the same weights
        assert _same(multilinear_exact(f, x), f(S))


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
