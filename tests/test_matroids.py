import math
import statistics

import pytest

from dynsub.matroids import (ConvexCombo, PartitionMatroid, UniformMatroid,
                             swap_round)
from dynsub.objectives import multilinear_exact, random_coverage
from oracles import ModularFunction, dump_partition


def test_uniform_independence():
    M = UniformMatroid(2, range(5))
    assert M.is_independent(set())
    assert M.is_independent({0, 1})
    assert not M.is_independent({0, 1, 2})
    assert M.query_count == 3


def test_partition_independence():
    M = PartitionMatroid({0: "x", 1: "x", 2: "y"}, {"x": 1, "y": 1})
    assert M.is_independent({0, 2})
    assert not M.is_independent({0, 1})


def test_partition_file_round_trip(tmp_path):
    M = PartitionMatroid({0: "x", 1: "x", 2: "y"}, {"x": 1, "y": 2})
    p = tmp_path / "m.txt"
    dump_partition(M, p)
    M2 = PartitionMatroid.load(p)
    assert M2.blocks == M.blocks and M2.caps == M.caps


def test_convex_combo_validation():
    with pytest.raises(ValueError):
        ConvexCombo([(0.5, {0})])  # weights must sum to 1
    with pytest.raises(ValueError):
        ConvexCombo([(0.5, {0}), (-0.2, {1}), (0.7, {2})])
    c = ConvexCombo([(0.5, {0}), (0.5, {1})])
    assert c.point() == {0: 0.5, 1: 0.5}


def test_swap_round_trivial_cases():
    M = UniformMatroid(2, range(4))
    assert swap_round(M, ConvexCombo([(1.0, {0, 1})]), seed=0) == {0, 1}
    out = swap_round(M, ConvexCombo([(0.5, {2, 3}), (0.5, {2, 3})]), seed=1)
    assert out == {2, 3}


def test_swap_round_rejects_dependent_part():
    M = UniformMatroid(1, range(3))
    with pytest.raises(ValueError):
        swap_round(M, ConvexCombo([(1.0, {0, 1})]), seed=0)


def test_swap_round_symmetry_frequency():
    M = UniformMatroid(1, range(2))
    combo = ConvexCombo([(0.5, {0}), (0.5, {1})])
    hits = sum(swap_round(M, combo, seed=s) == {0} for s in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_swap_round_always_independent():
    M = PartitionMatroid({e: e % 3 for e in range(9)}, {0: 1, 1: 1, 2: 2})
    combo = ConvexCombo([(0.25, {0, 1, 2, 5}), (0.25, {3, 4}),
                         (0.25, {6, 7}), (0.25, frozenset())])
    for s in range(500):
        assert M.is_independent(swap_round(M, combo, seed=s))


def test_swap_round_lossless_on_modular():
    f = ModularFunction({e: (e * 7 % 5) + 1.0 for e in range(6)})
    M = UniformMatroid(3, range(6))
    combo = ConvexCombo([(0.5, {0, 1, 2}), (0.25, {3, 4}), (0.25, {0, 5})])
    Fx = sum(p * f.weights[e] for e, p in combo.point().items())
    vals = [f(swap_round(M, combo, seed=s)) for s in range(2000)]
    mean = statistics.mean(vals)
    se = statistics.stdev(vals) / math.sqrt(len(vals))
    assert abs(mean - Fx) <= 3 * se + 1e-12


def test_swap_round_no_expected_loss_on_coverage():
    f = random_coverage(6, 8, seed=11)
    M = UniformMatroid(3, range(6))
    combo = ConvexCombo([(0.5, {0, 1, 2}), (0.5, {3, 4, 5})])
    Fx = multilinear_exact(f, combo.point())
    vals = [f(swap_round(M, combo, seed=s)) for s in range(2000)]
    mean = statistics.mean(vals)
    se = statistics.stdev(vals) / math.sqrt(len(vals))
    assert mean >= Fx - 3 * se - 1e-12
