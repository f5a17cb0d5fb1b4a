"""End-to-end acceptance checks.

Each test prints one pass/fail line; run with `pytest -rA` (or `-s`) to
see every line, not just the failing ones.
"""

import math
import random
import time

import numpy as np

from dynsub.cardinality import CardinalityState, GuessLadder
from dynsub.hard_bipartite import (BipartiteInstance, SymGapParams,
                                   analytic_Q, bipartite_eval,
                                   bipartite_eval_bruteforce, symmetric_eval)
from dynsub.hard_tree import (ShuffledTreeInstance, random_tree_pi,
                              traverse_leaves, traverse_stream, tree_F_eval,
                              tree_G_exact, tree_sample, weight_sequence)
from dynsub.matroid_dynamic import (AmplifierConfig, BranchParams,
                                    MatroidHalf, amplified_run,
                                    reference_lpass, run_prune_greedy)
from dynsub.matroids import ConvexCombo, PartitionMatroid, swap_round
from dynsub.objectives import random_coverage
from dynsub.oracle import CountedOracle, brute_force_opt, \
    check_submodular_monotone


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def cardinality_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 20)
    f = random_coverage(n, rng.randint(6, 14), seed)
    k = rng.randint(2, 4)
    order = sorted(f.ground)
    rng.shuffle(order)
    return f, k, order


def _crossing_round(f, k, order, opt):
    """First prefix length whose offline optimum reaches opt."""

    def reaches(t):
        _, v = brute_force_opt(f.as_oracle(), ground=order[:t], k=k)
        return v >= opt - 1e-12

    lo, hi = 1, len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _fixed_opt_runs():
    eps = 0.25
    out = []
    for seed in range(30):
        f, k, order = cardinality_instance(seed)
        _, opt = brute_force_opt(f.as_oracle(), k=k)
        oracle = CountedOracle(f, f.ground)
        st = CardinalityState(oracle, k, eps, opt)
        values = []
        for e in order:
            st.insert(e)
            values.append(f(st.solution()))
        out.append((f, k, order, opt, values, oracle.count))
    return out


def test_criterion_1_and_2_fixed_opt():
    eps = 0.25
    t0 = time.monotonic()
    runs = _fixed_opt_runs()
    worst = math.inf
    for f, k, order, opt, values, _ in runs:
        if opt <= 0:
            continue
        t_star = _crossing_round(f, k, order, opt)
        worst = min(worst, values[t_star - 1] / opt)
    elapsed = time.monotonic() - t0
    bound = 1 - 1 / math.e - eps
    ok = worst >= bound - 1e-9 and elapsed < 10.0
    _report(1, ok, f"worst crossing-round ratio {worst:.4f} >= "
                   f"{bound:.4f}, {elapsed:.1f}s")
    budgets = [(count, 2 * (int(1 / eps) + 2) * len(order))
               for f, k, order, opt, values, count in runs]
    ok2 = all(c <= b for c, b in budgets)
    frac = max(c / b for c, b in budgets)
    _report(2, ok2, f"max query usage {frac:.2f} of the 2(floor(1/eps)+2)n cap")


def test_criterion_3_ladder_without_opt():
    eps = 0.25
    worst = math.inf
    for seed in range(30):
        f, k, order = cardinality_instance(seed)
        oracle = CountedOracle(f, f.ground)
        ladder = GuessLadder(oracle, k, eps)
        for t, e in enumerate(order, start=1):
            ladder.insert(e)
            _, opt_t = brute_force_opt(f.as_oracle(), ground=order[:t], k=k)
            if opt_t <= 0:
                continue
            worst = min(worst, f(ladder.solution()) / opt_t)
    bound = 1 - 1 / math.e - 2 * eps
    _report(3, worst >= bound - 1e-9,
            f"worst per-round ratio {worst:.4f} >= {bound:.4f}")


def partition_instance(seed, n_max=20, rank_max=4):
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


def test_criterion_4_exact_parity():
    mismatches = 0
    checked = 0
    for seed in range(50):
        f, M, order = partition_instance(seed)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        checked += 1
        params = BranchParams.standard(4, 0.33, opt)
        ref = reference_lpass(order, oracle, M, params)
        st = run_prune_greedy(order, oracle, M, params, ref.a_star)
        if not st.terminated or st.solution() != ref.T:
            mismatches += 1
    _report(4, checked > 0 and mismatches == 0,
            f"{checked} instances replayed, {mismatches} mismatches")


def half_values(order, M, oracle, params, mode):
    """f of the matroid-half solution after each insert."""
    half = MatroidHalf(oracle, M, params, mode=mode)
    values = []
    for e in order:
        half.insert(e)
        values.append(oracle.eval(half.solution()))
    return values


def test_criterion_5_half_guarantee():
    eps = 0.33
    worst = math.inf
    dominated = True
    for seed in range(50):
        f, M, order = partition_instance(seed)
        oracle = f.as_oracle()
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        params = BranchParams.standard(4, eps, opt)
        guided = half_values(order, M, oracle, params, "guided")
        worst = min(worst, guided[-1] / opt)
        if seed < 10:
            # delta = 2*opt/R keeps the certified tuple inside the space
            small = BranchParams(L=2, R=3, delta=2 * opt / 3, opt=opt,
                                 epsilon=eps)
            g = half_values(order, M, oracle, small, "guided")
            x = half_values(order, M, oracle, small, "exhaustive")
            dominated &= all(ve >= vg - 1e-12 for vg, ve in zip(g, x))
    bound = 0.5 - 12 * eps  # negative at this eps, stated for the record
    _report(5, worst >= bound - 1e-9 and dominated,
            f"worst guided ratio {worst:.4f} >= {bound:.4f}, exhaustive "
            f"dominates guided: {dominated}")


def test_criterion_6_amplification():
    eps = 0.25
    target = 1 - 1 / math.e - 2 * eps
    ok = True
    details = []
    for seed in range(10):
        f = random_coverage(10, 8, seed)
        blocks = {e: e % 3 for e in range(10)}
        M = PartitionMatroid(blocks, {0: 1, 1: 1, 2: 2})
        _, opt = brute_force_opt(f.as_oracle(), matroid=M)
        if opt <= 0:
            continue
        cfg = AmplifierConfig(m=4, epsilon=eps)
        res = amplified_run(sorted(f.ground), M, f, cfg, k=4, seed=seed)
        if res.value < target * opt - 1e-9:
            ok = False
            details.append(f"seed {seed}: value below target")
            continue
        combo = ConvexCombo([(0.25, S) for S in res.stage_sets])
        vals = []
        for s in range(2000):
            out = swap_round(M, combo, seed=s)
            if not M.is_independent(out):
                ok = False
                details.append(f"seed {seed}: dependent rounding at trial {s}")
                break
            vals.append(f(out))
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = math.sqrt(var / len(vals))
        if mean < res.value - 3 * se - 1e-9:
            ok = False
            details.append(f"seed {seed}: rounded mean too low")
    _report(6, ok, details[0] if details else
            "10 instances: F(x) above target, 2000 independent roundings "
            "each, means within 3 SE")


def test_criterion_7_bipartite_construction():
    rng = random.Random(0)
    ok = True
    notes = []
    inst = BipartiteInstance(m=5, k=4, w=2, eps=0.33, seed=11)
    ids = sorted(inst.ground)
    for _ in range(20):
        S = frozenset(rng.sample(ids, rng.randint(0, 14)))
        if abs(bipartite_eval(inst, S)
               - bipartite_eval_bruteforce(inst, S)) > 1e-9:
            ok = False
            notes.append("factorization mismatch")
            break
    for seed in range(20):
        inst = BipartiteInstance(m=3, k=4, w=2, eps=0.33, seed=seed)
        if bipartite_eval(inst, frozenset()) != 0.0:
            ok = False
            notes.append(f"seed {seed}: nonzero at empty set")
        for i in range(1, inst.m + 1):
            for j in range(1, inst.w + 1):
                S = frozenset(inst.ids[("A", inst.pi[i], j)]
                              + inst.ids[("B", i, j)])
                if bipartite_eval(inst, S) < 1 - inst.eps - 1e-9:
                    ok = False
                    notes.append(f"seed {seed}: pair {i},{j} undervalued")
        big = frozenset(sorted(inst.ground)[:math.ceil(inst.k / inst.eps)])
        if bipartite_eval(inst, big) != 1.0:
            ok = False
            notes.append(f"seed {seed}: no saturation at k/eps elements")
    small = BipartiteInstance(m=2, k=4, w=2, eps=0.33, seed=3)
    o = CountedOracle(lambda S: bipartite_eval(small, S), small.ground)
    rep = check_submodular_monotone(o, trials=10 ** 4, seed=5, tol=1e-7)
    if not rep.ok:
        ok = False
        notes.append("sampler found violations")
    _report(7, ok, notes[0] if notes else
            "factorization to 1e-9, structure on 20 seeds, 10^4-triple "
            "sampler clean")


def test_criterion_8_gap_constant():
    q = analytic_Q(0.56, 0.42)
    q_naive = analytic_Q(0.5, 0.5)
    _report(8, q < 0.5839 and q_naive > q,
            f"Q(0.56,0.42)={q:.8f} < 0.5839 and below the naive split "
            f"Q(0.5,0.5)={q_naive:.8f}")


def _tiny_tree(pi=None):
    return ShuffledTreeInstance(k=9, eps=1 / 3, arities=(3, 2, 1), pi=pi)


def test_criterion_9_tree_construction():
    ok = True
    notes = []
    for L in range(1, 11):
        tab = weight_sequence(L)
        for j in range(1, L + 1):
            prod = tab["a"][j]
            for i in range(1, j):
                prod *= 1.0 - tab["a"][i] / tab["A_geq"][i]
            if abs(prod - 1.0) > 1e-9:
                ok = False
                notes.append(f"weight identity off at L={L}, j={j}")
    t2 = weight_sequence(2)
    if abs(t2["w"][1] - 0.381966) > 1e-6 or abs(t2["w"][2] - 0.618034) > 1e-6:
        ok = False
        notes.append("L=2 weights off")

    inst = _tiny_tree()
    nodes = sorted({leaf[:d] for leaf in inst.leaves for d in range(1, 4)})
    idx = {u: i for i, u in enumerate(nodes)}
    n_samples = 10 ** 5
    member = np.zeros((n_samples, len(nodes)), dtype=bool)
    for s in range(n_samples):
        for u in tree_sample(inst, s):
            member[s, idx[u]] = True
    rng = random.Random(9)
    for _ in range(20):
        x = {u: rng.random() for u in rng.sample(nodes, 5)}
        exact = tree_G_exact(inst, x)
        keep = np.ones(n_samples)
        for u, v in x.items():
            keep *= np.where(member[:, idx[u]], 1.0 - v, 1.0)
        mc = 1.0 - keep.mean()
        if abs(exact - mc) > 0.01:
            ok = False
            notes.append(f"MC deviation {abs(exact - mc):.4f}")

    presets = [(0.5, 2, (2, 1)), (0.5, 4, (4, 1)), (1 / 3, 3, (2, 2, 1)),
               (1 / 3, 6, (4, 3, 1)), (1 / 3, 9, (3, 2, 1))]
    for eps, k, arities in presets:
        for seed in range(3):
            pi = random_tree_pi(arities, seed)
            t = ShuffledTreeInstance(k=k, eps=eps, arities=arities, pi=pi)
            for leaf in t.leaves:
                S = [e for v in t.shuffled_path_sets(leaf)
                     for e in t.elements_of(v)]
                if len(set(S)) != t.k or tree_F_eval(t, S) != 1.0:
                    ok = False
                    notes.append(f"leaf {leaf} of {arities} not optimal")

    d = 2
    s = traverse_stream(inst, d)
    want = sum(d ** ell * inst.arities[ell] * 2 * inst.w
               for ell in range(inst.L - 1)) + d ** (inst.L - 1) * 2 * inst.w
    if len(s) != want:
        ok = False
        notes.append("traverse length mismatch")
    live = set()
    visits = iter(traverse_leaves(inst, d))
    expect = next(visits, None)
    for op in s:
        (live.add if op.kind == "I" else live.discard)(op.element)
        if expect is not None and live == {
                e for v in inst.sibling_sets(expect)
                for e in inst.elements_of(v)}:
            expect = next(visits, None)
    if expect is not None:
        ok = False
        notes.append(f"leaf {expect} missed its live set")
    _report(9, ok, notes[0] if notes else
            "identities L<=10, L=2 weights, MC within 0.01, leaf optima "
            "exact, traverse checks out")


def _agreeing_triple(inst, rng):
    ids = sorted(inst.ground)
    while True:
        S = frozenset(rng.sample(ids, rng.randint(1, 3 * inst.k)))
        p1 = list(range(1, inst.m + 1))
        rng.shuffle(p1)
        p2 = list(range(1, inst.m + 1))
        rng.shuffle(p2)
        pi1 = dict(enumerate(p1, start=1))
        pi2 = dict(enumerate(p2, start=1))
        touched_B = {inst.slot[e][1] for e in S if inst.slot[e][0] == "B"}
        touched_A = {inst.slot[e][1] for e in S if inst.slot[e][0] == "A"}
        ok = True
        for i in range(1, inst.m + 1):
            if pi1[i] == pi2[i] or i not in touched_B:
                continue
            if pi1[i] in touched_A or pi2[i] in touched_A:
                ok = False
                break
        if ok:
            return S, pi1, pi2


def test_criterion_10_indistinguishability():
    inst = BipartiteInstance(m=4, k=4, w=2, eps=0.33, seed=9)
    rng = random.Random(13)
    mismatches = 0
    nontrivial = 0
    for _ in range(1000):
        S, pi1, pi2 = _agreeing_triple(inst, rng)
        if pi1 != pi2:
            nontrivial += 1
        if symmetric_eval(inst, S, pi=pi1) != symmetric_eval(inst, S, pi=pi2):
            mismatches += 1
    _report(10, mismatches == 0 and nontrivial > 100,
            f"1000 agreeing triples ({nontrivial} with distinct shuffles), "
            f"{mismatches} value differences")
