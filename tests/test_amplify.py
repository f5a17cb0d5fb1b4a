import math
import statistics

import pytest

from dynsub.matroid_dynamic import AmplifierConfig, amplified_run
from dynsub.matroids import ConvexCombo, PartitionMatroid, UniformMatroid, swap_round
from dynsub.objectives import multilinear_exact, random_coverage
from dynsub.oracle import brute_force_opt
from oracles import counted


def desk_instance(seed, n=10):
    f = random_coverage(n, 8, seed)
    blocks = {e: e % 3 for e in range(n)}
    M = PartitionMatroid(blocks, {0: 1, 1: 1, 2: 2})
    return f, M


def test_single_stage_reduces_to_one_run():
    f, M = desk_instance(0)
    cfg = AmplifierConfig(m=1, epsilon=0.25)
    res = amplified_run(sorted(f.ground), M, f, cfg, k=4, seed=0)
    assert len(res.stage_sets) == 1
    S = res.stage_sets[0]
    # with m=1 the fractional point is the indicator of the stage set
    assert res.value == pytest.approx(f(S), abs=1e-9)
    assert res.rounded == S


def test_zero_optimum_short_circuits():
    f = random_coverage(4, 4, seed=1)
    M = UniformMatroid(2, f.ground)
    res = amplified_run([], M, f, AmplifierConfig(m=2, epsilon=0.25),
                        k=2, seed=0)
    assert res.value == 0.0 and res.rounded == frozenset()


def test_guarantee_and_rounding():
    target = 1 - 1 / math.e - 2 * 0.25
    for seed in range(4):
        f, M = desk_instance(seed)
        _, opt = brute_force_opt(counted(f), matroid=M)
        cfg = AmplifierConfig(m=4, epsilon=0.25)
        res = amplified_run(sorted(f.ground), M, f, cfg, k=4, seed=seed)
        assert res.value >= target * opt - 1e-9
        combo = ConvexCombo([(0.25, S) for S in res.stage_sets])
        vals = []
        for s in range(400):
            out = swap_round(M, combo, seed=s)
            assert M.is_independent(out)
            vals.append(f(out))
        mean = statistics.mean(vals)
        spread = statistics.stdev(vals) if len(set(vals)) > 1 else 0.0
        se = spread / math.sqrt(len(vals))
        assert mean >= res.value - 3 * se - 1e-9


def test_stage_guesses_on_grid():
    f, M = desk_instance(2)
    _, opt = brute_force_opt(counted(f), matroid=M)
    cfg = AmplifierConfig(m=3, epsilon=0.25)
    res = amplified_run(sorted(f.ground), M, f, cfg, k=4, seed=0)
    for d in res.stage_guesses:
        if d == 0.0:
            continue
        j = math.log(opt / d) / math.log1p(0.25)
        assert abs(j - round(j)) < 1e-6
        assert round(j) <= cfg.guess_depth()


# outputs recorded when every stage gain ran the full F(x) formula and
# the brute force grew sets past the rank; the kernels that skip that
# work must give them bit for bit; `value` is F(x) correctly rounded
PINNED = {
    (1, 4): dict(
        x={2: 1.0, 4: 1.0, 5: 1.0, 9: 0.75},
        stage_sets=[{2, 4, 5, 9}, {2, 4, 5, 9}, {2, 4, 5, 9}, {2, 4, 5}],
        stage_guesses=[2.2937600000000002, 1.835008, 1.17440512,
                       0.7516192768000001],
        rounded={2, 4, 5, 9}, value="7.0"),
    (3, 3): dict(
        x={1: 1.0, 3: 0.3333333333333333, 5: 0.6666666666666666, 8: 1.0,
           9: 0.6666666666666666},
        stage_sets=[{1, 3, 5, 8}, {1, 5, 8, 9}, {1, 8, 9}],
        stage_guesses=[3.2768, 1.6777216, 1.073741824],
        rounded={1, 3, 5, 8}, value="7.666666666666667"),
}


@pytest.mark.parametrize("seed, m", sorted(PINNED))
def test_amplifier_output_is_pinned(seed, m):
    f, M = desk_instance(seed)
    res = amplified_run(sorted(f.ground), M, f,
                        AmplifierConfig(m=m, epsilon=0.25), k=4, seed=seed)
    pin = PINNED[seed, m]
    assert res.x == pin["x"]
    assert res.stage_sets == pin["stage_sets"]
    assert res.stage_guesses == pin["stage_guesses"]
    assert res.rounded == pin["rounded"]
    assert repr(res.value) == pin["value"]


def test_amplifier_runs_at_the_n300_shape():
    # 300 elements in 3 blocks of cap 1: 1,030,301 independent sets, over
    # the 10^6 budget of a walk that evaluates each of them.  The optimum
    # is the one tests/test_oracle.py pins for this instance.
    f = random_coverage(300, 2000, 1000, weighted=True)
    M = PartitionMatroid({e: e * 3 // 300 for e in range(300)},
                         {0: 1, 1: 1, 2: 1})
    opt = 19.473698120976582
    res = amplified_run(sorted(f.ground), M, f,
                        AmplifierConfig(m=4, epsilon=0.25), k=3, seed=1000)
    assert M.is_independent(res.rounded) and f(res.rounded) <= opt
    assert res.value >= (1 - 1 / math.e - 2 * 0.25) * opt
    # each stage guess sits on the geometric grid below that optimum
    for d in res.stage_guesses:
        j = math.log(opt / d) / math.log1p(0.25)
        assert abs(j - round(j)) < 1e-6
