"""Stream replay, per-round metrics, algorithm registry, reports.

Metric probes (f(S_t), OPT_t) run through a separate counted oracle so
algorithm query accounting stays clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import ClassVar

from dynsub.cardinality import (CardinalityState, GuessLadder,
                                check_bucket_count, default_window_length)
from dynsub.matroid_dynamic import (MODES, BranchParams, MatroidHalf,
                                    enumerate_branches)
# unused here, but perfbench/tracer.py wraps these names on this module
from dynsub.matroid_dynamic import reference_lpass, run_prune_greedy  # noqa: F401
from dynsub.oracle import CountedOracle, EnumerationBudgetError, brute_force_opt
from dynsub.streams import Stream


class UnsupportedOpError(ValueError):
    pass


@dataclass
class RoundRecord:
    t: int
    op: str
    ground: int
    value: float
    opt: float
    ratio: float
    q_round: int
    q_total: int
    q_extract: int  # of q_round, the queries solution() made

    COLUMNS = ("t", "op", "ground", "value", "opt", "ratio",
               "q_round", "q_total", "q_extract")


OPT_MODES = ("brute-force", "greedy-bound", "known")


@dataclass
class RunConfig:
    algo: str
    k: int
    epsilon: float
    opt_mode: str = "brute-force"  # one of OPT_MODES
    opt_value: float | None = None
    checkpoint: str = "every-round"  # every-round | every-n:<n> | at-end
    mode: str = "guided"  # one of MODES; only matroid-half has exhaustive
    seed: int = 0

    brute_budget: ClassVar[int] = 10 ** 6  # most sets a brute-force probe walks

    def __post_init__(self):
        if self.algo not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be > 0 and < 1, got {self.epsilon}")
        if self.opt_value is not None and not 0.0 <= self.opt_value < math.inf:
            raise ValueError(f"opt_value must be finite and >= 0, "
                             f"got {self.opt_value}")
        if self.opt_mode not in OPT_MODES:
            raise ValueError(f"bad opt_mode {self.opt_mode!r}")
        if self.opt_mode == "known" and self.opt_value is None:
            raise ValueError("opt_mode known needs opt_value")
        if self.mode not in MODES:
            raise ValueError(f"bad mode {self.mode!r}: one of {MODES}")

    def check_inputs(self, stream: Stream, matroid=None) -> None:
        """Refuses, before any query, a run its inputs show cannot be made.
        The OPT probe takes any matroid given, so must the algorithm."""
        self.checkpoint_rounds(0)  # refuses a malformed policy
        if not stream.insertion_only:
            raise UnsupportedOpError(f"algorithm {self.algo} is "
                                     f"insertion-only; the stream has deletions")
        if self.algo != "matroid-half" and self.mode != "guided":
            raise ValueError(f"algo {self.algo} has no mode {self.mode}; "
                             f"only matroid-half has one")
        if (self.algo == "card-ladder" and self.opt_value is not None
                and self.opt_mode != "known"):
            raise ValueError(f"algo card-ladder ignores opt_value unless "
                             f"opt_mode is known, got {self.opt_mode}")
        if self.algo == "matroid-half" and matroid is None:
            raise ValueError("algo matroid-half needs a matroid")
        if self.algo != "matroid-half" and matroid is not None:
            raise ValueError(f"algo {self.algo} takes no matroid, only k")
        # __post_init__ refused an opt_value below 0 or not finite
        if self.algo != "card-ladder" and not self.opt_value:
            raise ValueError(f"algo {self.algo} needs a fixed opt_value with "
                             f"0 < opt < inf, got {self.opt_value}")
        if self.algo == "card":
            check_bucket_count(1, self.epsilon)
        if self.algo == "card-ladder":
            check_bucket_count(
                default_window_length(self.k, self.epsilon) + 1, self.epsilon)
        if self.algo == "matroid-half":
            params = BranchParams.standard(self.k, self.epsilon, self.opt_value)
            if self.mode == "exhaustive":
                enumerate_branches(params.L, params.R)  # checks the budget

    def checkpoint_rounds(self, n_ops: int):
        if self.checkpoint == "every-round":
            return set(range(1, n_ops + 1))
        if self.checkpoint == "at-end":
            return {n_ops} if n_ops else set()
        if self.checkpoint.startswith("every-n:"):
            try:
                step = int(self.checkpoint.split(":", 1)[1])
            except ValueError:
                step = 0
            if step < 1:
                raise ValueError(f"bad checkpoint policy {self.checkpoint!r}: "
                                 f"every-n:<n> needs an integer n >= 1")
            pts = set(range(step, n_ops + 1, step))
            pts.add(n_ops)
            return pts
        raise ValueError(f"bad checkpoint policy {self.checkpoint!r}")


def parse_config(path) -> dict:
    """Flat `key = value` file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            out[k] = v
    return out


def offline_greedy(oracle: CountedOracle, ground, k: int | None = None,
                   matroid=None) -> tuple[frozenset, float]:
    """Plain offline greedy; used as the OPT-bound proxy."""
    ground = sorted(ground)
    S: set = set()
    val = 0.0
    limit = k if k is not None else len(ground)
    while len(S) < limit:
        best_e, best_m = None, 0.0
        for e in ground:
            if e in S:
                continue
            if matroid is not None and not matroid.is_independent(S | {e}):
                continue
            m = oracle.eval(S | {e}) - val
            # ascending id scan, so ties keep the smallest element
            if m > best_m + 1e-15:
                best_e, best_m = e, m
        if best_e is None or best_m <= 0:
            break
        S.add(best_e)
        val += best_m
    return frozenset(S), val


_REFUSED = object()  # brute_force_opt refused; no later checkpoint walks


def _opt_estimate(cfg: RunConfig, oracle: CountedOracle, ground, matroid,
                  prev):
    """(OPT estimate, whether it is only an upper bound, `prev` for the
    next checkpoint).  `prev` is the brute-force result of the previous
    checkpoint (None at the first), which the walk resumes from, or
    _REFUSED once a walk was over budget.

    A resumed walk counts the sets of every call in its chain, which
    under a matroid can exceed what a fresh walk over the same ground
    counts, so a refused resume is retried once from scratch.  Only
    when that refuses too is the checkpoint refused.  From then on every
    checkpoint takes the greedy bound, which is certified and reported
    as a bound, though under a matroid a walk over a larger ground need
    not refuse: the branch and bound's count depends on the values, not
    only on the number of independent sets."""
    if not ground:
        return 0.0, False, prev
    if cfg.opt_mode == "known":
        return cfg.opt_value, False, prev
    if cfg.opt_mode == "brute-force" and prev is not _REFUSED:
        for start in ((None,) if prev is None else (prev, None)):
            try:
                prev = brute_force_opt(oracle, ground=ground, matroid=matroid,
                                       k=cfg.k if matroid is None else None,
                                       budget=cfg.brute_budget, prev=start)
                return prev[1], False, prev
            except EnumerationBudgetError:
                pass
        prev = _REFUSED  # fall through to the greedy bound
    # greedy is within 1-1/e of OPT under a cardinality constraint and
    # within 1/2 under a matroid (Fisher, Nemhauser and Wolsey 1978)
    if matroid is not None:
        _, g = offline_greedy(oracle, ground, matroid=matroid)
        return 2.0 * g, True, prev
    _, g = offline_greedy(oracle, ground, k=cfg.k)
    return g / (1.0 - 1.0 / math.e), True, prev


# name -> builder(cfg, algorithm oracle, matroid) of a run that
# check_inputs passed; every algorithm is insertion-only and has
# insert(e) and solution()
_ALGORITHMS = {
    "card": lambda cfg, oracle, M: CardinalityState(
        oracle, cfg.k, cfg.epsilon, cfg.opt_value),
    "card-ladder": lambda cfg, oracle, M: GuessLadder(
        oracle, cfg.k, cfg.epsilon),
    "matroid-half": lambda cfg, oracle, M: MatroidHalf(
        oracle, M, BranchParams.standard(cfg.k, cfg.epsilon, cfg.opt_value),
        mode=cfg.mode),
}


def run_stream(cfg: RunConfig, inner, stream: Stream, matroid=None):
    """Replay the stream through the configured algorithm.

    `inner` is the raw set function; two counted oracles are built from
    it, one for the algorithm and one for harness metric probes.
    Returns (records, meta) with meta carrying the echoed config.
    """
    cfg.check_inputs(stream, matroid)
    ground_all = stream.elements()
    algo_oracle = CountedOracle(inner, ground_all)
    probe_oracle = CountedOracle(inner, ground_all)
    algo = _ALGORITHMS[cfg.algo](cfg, algo_oracle, matroid)
    checkpoints = cfg.checkpoint_rounds(len(stream))
    records: list[RoundRecord] = []
    live: set = set()
    q_prev = 0
    any_bound = False
    # the stream is insertion-only, so each probe's feasible sets stay
    # feasible at the next checkpoint and the walk resumes from them
    prev_opt = None
    for t, op in enumerate(stream, start=1):
        live.add(op.element)
        algo.insert(op.element)
        if t not in checkpoints:
            continue
        q_before = algo_oracle.count
        S = algo.solution()
        q_total = algo_oracle.count
        value = probe_oracle.eval(S)
        opt, is_bound, prev_opt = _opt_estimate(cfg, probe_oracle, live,
                                                matroid, prev_opt)
        any_bound = any_bound or is_bound
        ratio = value / opt if opt > 0 else (1.0 if value <= 0 else math.inf)
        records.append(RoundRecord(
            t=t, op=op.kind, ground=len(live), value=value, opt=opt,
            ratio=ratio, q_round=q_total - q_prev, q_total=q_total,
            q_extract=q_total - q_before))
        q_prev = q_total
    meta = asdict(cfg)
    meta["opt_is_bound"] = any_bound
    return records, meta


def emit_report(records, fmt: str, path, meta: dict | None = None) -> None:
    if fmt == "csv":
        with open(path, "w") as fh:
            for k in sorted(meta or {}):
                fh.write(f"# {k} = {meta[k]}\n")
            fh.write(",".join(RoundRecord.COLUMNS) + "\n")
            for r in records:
                d = asdict(r)
                fh.write(",".join(repr(d[c]) if isinstance(d[c], float)
                                  else str(d[c])
                                  for c in RoundRecord.COLUMNS) + "\n")
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([asdict(r) for r in records], fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
