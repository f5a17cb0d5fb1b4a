"""The benchmark's four workloads.

Each workload builds its inputs from a seed, runs them through one
public dynsub entry point, and checks the outputs.  W1-W3 replay an
insertion stream through `harness.run_stream`, the function behind
`dynsub run`; W4 calls `matroid_dynamic.amplified_run`.  Why each one
is here is in its `why` line and in README.md.

Set functions of the hard families are closures owned by this file.
They look the evaluator up on its module at call time, so the traced
run can time it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from dynsub import hard_bipartite, hard_tree, harness, matroid_dynamic
from dynsub.harness import RunConfig
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import multilinear_exact, random_coverage
from dynsub.oracle import CountedOracle, brute_force_opt
from dynsub.streams import Stream

import tracer as T

# Never used while the benchmark or a change was tuned: a claim made
# against this benchmark must also hold with --seed 7919.
HELD_OUT_SEED = 7919


@dataclass
class Instance:
    """Inputs of one call, built from one sub-seed."""
    cfg: object  # RunConfig, or AmplifierConfig for amplify-coverage
    inner: object  # the set function
    ground: frozenset
    stream: Stream | None = None
    matroid: object = None
    bound: float | None = None  # certified OPT bound; None = brute-force probe
    seed: int = 0


@dataclass
class Verdict:
    """What the output checks found for one call."""
    updates: int
    checkpoints: int
    failures: list
    queries: int = 0
    final_value: float = 0.0
    min_ratio: float = 0.0


def _budget_failures(tr: T.Tracer) -> list[str]:
    """Budget invariants of every engine the traced call observed."""
    out = [f"engine at target {st.opt_guess}: charged {st.charged} > "
           f"budget {st.charged_budget()}"
           for st in tr.engines.values() if st.charged > st.charged_budget()]
    for st in tr.prune_states:
        try:
            st.check_budget_semantics()
        except matroid_dynamic.InvariantError as exc:
            out.append(f"pruned greedy branch {st.a}: {exc}")
    return out


def _tree_pi(arities, rng: random.Random) -> dict:
    """A uniformly random child bijection under every internal node."""
    pi: dict = {}
    frontier = [()]
    for m in arities:
        for u in frontier:
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            pi[u] = {i + 1: perm[i] for i in range(m)}
        frontier = [u + (i,) for u in frontier for i in range(1, m + 1)]
    return pi


class Workload:
    """A stream replayed through `harness.run_stream`; a subclass builds
    the inputs and names the layers it must and must not reach."""
    name = ""
    why = ""
    # per size: build parameters plus `instances`, the sub-instances one
    # pass runs; more of them make a run's figures depend less on one draw
    sizes: dict = {}
    nonzero: tuple = ()  # layer counts that must be positive when traced
    zero: tuple = ()  # layer counts that must stay 0 when traced

    def build(self, seed: int, p: dict) -> Instance:
        raise NotImplementedError

    def call(self, inst: Instance):
        return harness.run_stream(inst.cfg, inst.inner, inst.stream,
                                  matroid=inst.matroid)[0]

    def check(self, inst: Instance, records, tr: T.Tracer) -> Verdict:
        """Output checks of a stream replay, from the traced call."""
        cfg, last = inst.cfg, records[-1]
        bad: dict[int, list] = {}  # checkpoint index -> what failed there
        sols = tr.solutions
        if len(sols) != len(records):
            bad[len(records) - 1] = [
                f"{len(sols)} solutions extracted for {len(records)} checkpoints"]
        ratios = []
        for i, (rec, S) in enumerate(zip(records, sols)):
            value = CountedOracle(inst.inner, inst.ground).eval(S)
            bound = rec.opt if inst.bound is None else inst.bound
            feasible = (len(S) <= cfg.k if inst.matroid is None
                        else inst.matroid.is_independent(S))
            found = [msg for ok, msg in (
                (value == rec.value, f"f(S) recomputes to {value!r}, "
                                     f"record {rec.value!r}"),
                (rec.opt == bound, f"record opt {rec.opt!r} is not the "
                                   f"certified bound {bound!r}"),
                (feasible, f"solution {sorted(S)} is infeasible"),
                (value <= bound, f"value {value!r} above certified OPT "
                                 f"{bound!r}"),
            ) if not ok]
            if found:
                bad[i] = [f"t={rec.t}: {msg}" for msg in found]
            ratios.append(value / bound)
        at_end = _budget_failures(tr)
        evals = tr.algorithm_evals()
        if evals != last.q_total:
            at_end.append(f"traced run counts {evals} algorithm evaluations, "
                          f"the replay reports q_total={last.q_total}")
        if inst.bound is None:
            # the probe's optimum, re-derived independently at the end
            _, opt = brute_force_opt(CountedOracle(inst.inner, inst.ground),
                                     ground=inst.ground, k=cfg.k,
                                     budget=cfg.brute_budget)
            if opt != last.opt:
                at_end.append(f"brute force gives OPT {opt!r}, "
                              f"probe {last.opt!r}")
        if at_end:
            bad.setdefault(len(records) - 1, []).extend(at_end)
        return Verdict(updates=len(inst.stream), checkpoints=len(records),
                       failures=["; ".join(v) for v in bad.values()],
                       queries=last.q_total, final_value=last.value,
                       min_ratio=min(ratios, default=0.0))


class LadderCoverage(Workload):
    name = "ladder-coverage"
    why = ("guess ladder on weighted coverage: O(|U|) coverage evals are most "
           "of the time, so it shows eval cost and engine bookkeeping")
    sizes = {
        "full": dict(n=500, items=2000, k=50, eps=0.2, every=125, instances=4),
        "smoke": dict(n=120, items=300, k=10, eps=0.2, every=30, instances=1),
    }
    nonzero = ("oracle.evals", "objectives.coverage_calls",
               "cardinality.engine_inserts", "cardinality.retests",
               "cardinality.extract_queries")
    zero = ("oracle.brute_force_calls", "objectives.multilinear_calls",
            "matroid_dynamic.lpass_calls", "matroids.indep_queries",
            "hard_bipartite.eval_calls", "hard_tree.eval_calls")

    def build(self, seed, p):
        f = random_coverage(p["n"], p["items"], seed, weighted=True)
        f_all = f(f.ground)  # f(V) bounds OPT at every checkpoint
        cfg = RunConfig(algo="card-ladder", k=p["k"], epsilon=p["eps"],
                        opt_mode="known", opt_value=f_all,
                        checkpoint=f"every-n:{p['every']}", seed=seed)
        return Instance(cfg=cfg, inner=f, ground=f.ground,
                        stream=Stream.inserts(sorted(f.ground)), bound=f_all)


class ProbeBipartite(Workload):
    name = "probe-bipartite"
    why = ("ladder on the bipartite hard objective with a brute-force OPT probe "
           "every 2 rounds: probe cost dominates, coverage is never called")
    sizes = {
        "full": dict(m=3, k=4, w=2, eps=0.33, ladder_eps=0.25, every=2,
                     instances=4),
        "smoke": dict(m=2, k=4, w=2, eps=0.33, ladder_eps=0.25, every=2,
                      instances=1),
    }
    nonzero = ("oracle.evals", "oracle.brute_force_calls",
               "oracle.brute_force_sets", "hard_bipartite.eval_calls",
               "cardinality.engine_inserts", "cardinality.extract_queries",
               "harness.probe_evals")
    zero = ("objectives.coverage_calls", "objectives.multilinear_calls",
            "matroid_dynamic.lpass_calls", "matroids.indep_queries",
            "hard_tree.eval_calls")

    def build(self, seed, p):
        inst = hard_bipartite.BipartiteInstance(m=p["m"], k=p["k"], w=p["w"],
                                                eps=p["eps"], seed=seed)
        cfg = RunConfig(algo="card-ladder", k=p["k"], epsilon=p["ladder_eps"],
                        opt_mode="brute-force",
                        checkpoint=f"every-n:{p['every']}", seed=seed)
        return Instance(cfg=cfg,
                        inner=lambda S: hard_bipartite.bipartite_eval(inst, S),
                        ground=inst.ground,
                        stream=Stream.inserts(sorted(inst.ground)))


class MatroidTree(Workload):
    name = "matroid-tree"
    why = ("guided matroid-half on the shuffled-tree objective: the reference "
           "L-pass certification is most of the time, the ladder is idle")
    sizes = {
        "full": dict(k=9, L=3, arities=(6, 4, 1), instances=1),
        "smoke": dict(k=9, L=3, arities=(2, 2, 1), instances=1),
    }
    nonzero = ("oracle.evals", "matroid_dynamic.lpass_calls",
               "matroid_dynamic.lpass_queries",
               "matroid_dynamic.prune_greedy_queries",
               "matroids.indep_queries", "hard_tree.eval_calls")
    zero = ("cardinality.engine_inserts", "objectives.coverage_calls",
            "objectives.multilinear_calls", "oracle.brute_force_calls",
            "hard_bipartite.eval_calls")

    def build(self, seed, p):
        eps = 1.0 / p["L"]
        inst = hard_tree.ShuffledTreeInstance(
            k=p["k"], eps=eps, arities=p["arities"],
            pi=_tree_pi(p["arities"], random.Random(seed)))
        cfg = RunConfig(algo="matroid-half", k=p["k"], epsilon=eps,
                        opt_mode="known", opt_value=1.0,
                        checkpoint="every-round", mode="guided", seed=seed)
        # F is capped at 1, which the shuffled root paths reach
        return Instance(cfg=cfg, inner=lambda S: hard_tree.tree_F_eval(inst, S),
                        ground=inst.ground,
                        stream=Stream.inserts(sorted(inst.ground)),
                        matroid=UniformMatroid(p["k"], inst.ground), bound=1.0)


class AmplifyCoverage(Workload):
    name = "amplify-coverage"
    why = ("amplifier with swap rounding on weighted coverage under a partition "
           "matroid: exact multilinear evaluation is most of the time")
    sizes = {
        "full": dict(n=40, items=300, blocks=3, m=4, eps=0.25, instances=4),
        "smoke": dict(n=12, items=40, blocks=3, m=2, eps=0.25, instances=1),
    }
    nonzero = ("oracle.evals", "oracle.brute_force_calls",
               "objectives.coverage_calls", "objectives.multilinear_calls",
               "matroid_dynamic.lpass_calls",
               "matroid_dynamic.prune_greedy_queries",
               "matroids.indep_queries", "matroids.swap_round_s")
    zero = ("cardinality.engine_inserts", "hard_bipartite.eval_calls",
            "hard_tree.eval_calls", "harness.probe_evals")

    def build(self, seed, p):
        n, b = p["n"], p["blocks"]
        f = random_coverage(n, p["items"], seed, weighted=True)
        M = PartitionMatroid({e: str(e * b // n) for e in range(n)},
                             {str(j): 1 for j in range(b)})
        cfg = matroid_dynamic.AmplifierConfig(m=p["m"], epsilon=p["eps"])
        return Instance(cfg=cfg, inner=f, ground=f.ground, matroid=M, seed=seed)

    def call(self, inst):
        M = inst.matroid
        return matroid_dynamic.amplified_run(
            sorted(inst.ground), M, inst.inner, inst.cfg,
            k=sum(M.caps.values()), seed=inst.seed)

    def check(self, inst, result, tr):
        f, M, eps = inst.inner, inst.matroid, inst.cfg.epsilon
        bad = _budget_failures(tr)
        _, opt = brute_force_opt(CountedOracle(f, inst.ground),
                                 ground=inst.ground, matroid=M)
        value = CountedOracle(f, inst.ground).eval(result.rounded)
        if not M.is_independent(result.rounded):
            bad.append(f"rounded set {sorted(result.rounded)} is dependent")
        if multilinear_exact(f, result.x) != result.value:
            bad.append(f"F(x) recomputes differently from {result.value!r}")
        if not value <= opt:
            bad.append(f"f(rounded) {value!r} above brute-force OPT {opt!r}")
        if result.value < (1.0 - 1.0 / math.e - 2.0 * eps) * opt:
            bad.append(f"F(x) {result.value!r} below (1-1/e-2eps) OPT {opt!r}")
        return Verdict(updates=len(inst.ground), checkpoints=1,
                       failures=["; ".join(bad)] if bad else [],
                       queries=tr.algorithm_evals(), final_value=value,
                       min_ratio=value / opt)


WORKLOADS = {w.name: w for w in (LadderCoverage(), ProbeBipartite(),
                                 MatroidTree(), AmplifyCoverage())}
