"""Span tracer for the benchmark's traced run.

A Tracer wraps, from outside the package, the dynsub functions and
methods behind each per-layer metric, records one span per call, and
puts the originals back on exit.  Untraced calls run the package
unmodified.

A span's self time is its duration minus the time its child spans
cover.  Every span also counts the CountedOracle evaluations made
beneath it.  Spans opened directly under `harness.run_stream` are
attributed to one part of a replay round: the update, the solution
extraction, or the harness probes (f(S_t) and the optimum).
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

from dynsub import (cardinality, hard_bipartite, hard_tree, harness,
                    matroid_dynamic, matroids, objectives, oracle)

EVAL = "oracle.eval"
RUN_STREAM = "harness.run_stream"
AMPLIFY = "matroid_dynamic.amplified_run"
LADDER_INSERT = "cardinality.GuessLadder.insert"
ENGINE_INSERT = "cardinality.CardinalityState.insert"
LADDER_SOLUTION = "cardinality.GuessLadder.solution"
LPASS = "matroid_dynamic.reference_lpass"
PRUNE = "matroid_dynamic.run_prune_greedy"
BRUTE = "oracle.brute_force_opt"
COVERAGE = "objectives.coverage"
MULTILINEAR = "objectives.multilinear"
INDEP = "matroids.is_independent"
SWAP = "matroids.swap_round"
BIPARTITE = "hard_bipartite.eval"
TREE = "hard_tree.eval"

# the part of a replay round a direct child of run_stream belongs to
PHASE = {
    LADDER_INSERT: "update",
    ENGINE_INSERT: "update",
    LADDER_SOLUTION: "extract",
    LPASS: "extract",
    PRUNE: "extract",
    BRUTE: "probe",
    EVAL: "probe",
}


def _observe_coverage(tr, parent, args, result):
    tr.coverage_set_size += len(args[1])


def _observe_engine(tr, parent, args, result):
    tr.engines[id(args[0])] = args[0]


def _observe_ladder_solution(tr, parent, args, result):
    if parent is not None and parent.name == RUN_STREAM:
        tr.solutions.append(result)


def _observe_prune(tr, parent, args, result):
    tr.prune_states.append(result)
    if parent is not None and parent.name == RUN_STREAM:
        tr.solutions.append(result.solution())


# (owner, attribute, span name, observer).  Names imported into another
# module are wrapped where they are looked up at call time.
BINDINGS = [
    (oracle.CountedOracle, "eval", EVAL, None),
    (harness, "brute_force_opt", BRUTE, None),
    (matroid_dynamic, "brute_force_opt", BRUTE, None),
    (objectives.CoverageFunction, "__call__", COVERAGE, _observe_coverage),
    (matroid_dynamic, "multilinear_exact", MULTILINEAR, None),
    (cardinality.GuessLadder, "insert", LADDER_INSERT, None),
    (cardinality.GuessLadder, "solution", LADDER_SOLUTION,
     _observe_ladder_solution),
    (cardinality.CardinalityState, "insert", ENGINE_INSERT, _observe_engine),
    (harness, "reference_lpass", LPASS, None),
    (matroid_dynamic, "reference_lpass", LPASS, None),
    (harness, "run_prune_greedy", PRUNE, _observe_prune),
    (matroid_dynamic, "run_prune_greedy", PRUNE, _observe_prune),
    (matroid_dynamic, "amplified_run", AMPLIFY, None),
    (matroids._BaseMatroid, "is_independent", INDEP, None),
    (matroid_dynamic, "swap_round", SWAP, None),
    (hard_bipartite, "bipartite_eval", BIPARTITE, None),
    (hard_tree, "tree_F_eval", TREE, None),
    (harness, "run_stream", RUN_STREAM, None),
]


class _Frame:
    __slots__ = ("name", "child_s", "evals", "direct_evals")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.evals = 0
        self.direct_evals = 0


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "evals", "direct_evals")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.evals = 0
        self.direct_evals = 0


class Tracer:
    """Traces one call: use as a context manager around it."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.phase_s = {"update": 0.0, "extract": 0.0, "probe": 0.0}
        self.phase_evals = {"update": 0, "extract": 0, "probe": 0}
        self.update_durations: list[float] = []
        self.coverage_set_size = 0
        self.engines: dict = {}
        self.prune_states: list = []
        self.solutions: list = []
        self.indep_queries = 0  # set by the caller from matroid query_count
        self._stack: list[_Frame] = []
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name, observe in BINDINGS:
            original = getattr(owner, attr, None)
            if original is None:
                self.__exit__()
                raise RuntimeError(f"cannot trace {name}: {owner.__name__} "
                                   f"has no attribute {attr!r} any more")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def stat(self, name) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def _wrap(self, name, fn, observe):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer._close(frame, parent, dur)
            if observe is not None:
                observe(tracer, parent, args, result)
            return result

        return traced

    def _close(self, frame, parent, dur):
        if frame.name == EVAL:
            frame.evals += 1
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = SpanStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame.child_s
        st.evals += frame.evals
        st.direct_evals += frame.direct_evals
        if parent is None:
            return
        parent.child_s += dur
        parent.evals += frame.evals
        if frame.name == EVAL:
            parent.direct_evals += 1
        if parent.name == RUN_STREAM and frame.name in PHASE:
            phase = PHASE[frame.name]
            self.phase_s[phase] += dur
            self.phase_evals[phase] += frame.evals
            if phase == "update":
                self.update_durations.append(dur)

    def algorithm_evals(self) -> int:
        """Evaluations the algorithm made: everything under the replay
        except the probes, or everything under the amplifier."""
        if self.stat(RUN_STREAM).calls:
            return self.phase_evals["update"] + self.phase_evals["extract"]
        return self.stat(AMPLIFY).evals


def layer_metrics(calls: list[Tracer]) -> dict:
    """Per-layer metrics of one pass: counts and times are totals over
    the traced calls, ratios and percentiles are taken over all of them."""

    def total(name, field):
        return sum(getattr(tr.stat(name), field) for tr in calls)

    durations = [d for tr in calls for d in tr.update_durations]
    engines = [st for tr in calls for st in tr.engines.values()]
    coverage_calls = total(COVERAGE, "calls")
    coverage_s = total(COVERAGE, "total_s")
    phase_s = {p: sum(tr.phase_s[p] for tr in calls) for p in calls[0].phase_s}
    return {
        "oracle.evals": total(EVAL, "calls"),
        "oracle.eval_self_s": total(EVAL, "self_s"),
        "oracle.brute_force_calls": total(BRUTE, "calls"),
        "oracle.brute_force_sets": total(BRUTE, "evals"),
        "oracle.brute_force_s": total(BRUTE, "total_s"),
        "objectives.coverage_calls": coverage_calls,
        "objectives.coverage_s": coverage_s,
        "objectives.coverage_us_per_call":
            1e6 * coverage_s / coverage_calls if coverage_calls else 0.0,
        "objectives.coverage_mean_set_size":
            sum(tr.coverage_set_size for tr in calls) / coverage_calls
            if coverage_calls else 0.0,
        "objectives.multilinear_calls": total(MULTILINEAR, "calls"),
        "objectives.multilinear_s": total(MULTILINEAR, "total_s"),
        "cardinality.insert_self_s":
            total(LADDER_INSERT, "self_s") + total(ENGINE_INSERT, "self_s"),
        "cardinality.insert_p50_us":
            1e6 * statistics.median(durations) if durations else 0.0,
        "cardinality.insert_p99_us":
            1e6 * statistics.quantiles(durations, n=100)[98]
            if len(durations) > 1 else 0.0,
        "cardinality.engine_inserts": total(ENGINE_INSERT, "calls"),
        "cardinality.retests":
            total(ENGINE_INSERT, "direct_evals") - total(ENGINE_INSERT, "calls"),
        "cardinality.live_engines": len(engines),
        "cardinality.charged_max_frac":
            max((st.charged / st.charged_budget() for st in engines), default=0.0),
        "cardinality.extract_queries": total(LADDER_SOLUTION, "evals"),
        "cardinality.extract_s": total(LADDER_SOLUTION, "total_s"),
        "matroid_dynamic.lpass_calls": total(LPASS, "calls"),
        "matroid_dynamic.lpass_queries": total(LPASS, "evals"),
        "matroid_dynamic.lpass_s": total(LPASS, "total_s"),
        "matroid_dynamic.prune_greedy_queries": total(PRUNE, "evals"),
        "matroid_dynamic.prune_greedy_s": total(PRUNE, "total_s"),
        "matroids.indep_queries": sum(tr.indep_queries for tr in calls),
        "matroids.indep_s": total(INDEP, "total_s"),
        "matroids.swap_round_s": total(SWAP, "total_s"),
        "hard_bipartite.eval_calls": total(BIPARTITE, "calls"),
        "hard_bipartite.eval_s": total(BIPARTITE, "total_s"),
        "hard_tree.eval_calls": total(TREE, "calls"),
        "hard_tree.eval_s": total(TREE, "total_s"),
        "harness.update_s": phase_s["update"],
        "harness.extract_s": phase_s["extract"],
        "harness.probe_s": phase_s["probe"],
        "harness.probe_evals": sum(tr.phase_evals["probe"] for tr in calls),
        "harness.self_s": total(RUN_STREAM, "total_s") - sum(phase_s.values()),
    }


# Deterministic counts of a pass; they must repeat exactly between passes.
COUNT_METRICS = (
    "oracle.evals", "oracle.brute_force_calls", "oracle.brute_force_sets",
    "objectives.coverage_calls", "objectives.multilinear_calls",
    "cardinality.engine_inserts", "cardinality.retests",
    "cardinality.live_engines", "cardinality.extract_queries",
    "matroid_dynamic.lpass_calls", "matroid_dynamic.lpass_queries",
    "matroid_dynamic.prune_greedy_queries", "matroids.indep_queries",
    "hard_bipartite.eval_calls", "hard_tree.eval_calls", "harness.probe_evals",
)


def binding_errors(metrics: dict, nonzero, zero) -> list[str]:
    """The binding guard: a layer named heavy for the workload that
    recorded nothing means a wrapper no longer sits where the package
    looks the function up; a layer named idle that recorded work means
    the workload no longer isolates what it was chosen for."""
    errors = [f"{m} is 0 but the workload exercises that layer"
              for m in nonzero if not metrics[m]]
    errors += [f"{m} is {metrics[m]} but the workload should not reach it"
               for m in zero if metrics[m]]
    return errors
