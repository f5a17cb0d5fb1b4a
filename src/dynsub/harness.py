"""Stream replay, per-round metrics, algorithm registry, reports.

Metric probes (f(S_t), OPT_t) run through a separate counted oracle so
algorithm query accounting stays clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import ClassVar

from dynsub.cardinality import CardinalityState, GuessLadder
from dynsub.matroid_dynamic import BranchParams, MatroidHalf
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

    COLUMNS = ("t", "op", "ground", "value", "opt", "ratio",
               "q_round", "q_total")


OPT_MODES = ("brute-force", "greedy-bound", "known")


@dataclass
class RunConfig:
    algo: str
    k: int
    epsilon: float
    opt_mode: str = "brute-force"  # one of OPT_MODES
    opt_value: float | None = None
    checkpoint: str = "every-round"  # every-round | every-n:<n> | at-end
    mode: str = "guided"  # matroid-half: guided | exhaustive
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


def _opt_estimate(cfg: RunConfig, oracle: CountedOracle, ground, matroid):
    if not ground:
        return 0.0, False
    if cfg.opt_mode == "known":
        return cfg.opt_value, False
    if cfg.opt_mode == "brute-force":
        try:
            if matroid is not None:
                _, v = brute_force_opt(oracle, ground=ground, matroid=matroid,
                                       budget=cfg.brute_budget)
            else:
                _, v = brute_force_opt(oracle, ground=ground, k=cfg.k,
                                       budget=cfg.brute_budget)
            return v, False
        except EnumerationBudgetError:
            pass  # fall through to the greedy bound
    # greedy is within 1-1/e of OPT under a cardinality constraint and
    # within 1/2 under a matroid (Fisher, Nemhauser and Wolsey 1978)
    if matroid is not None:
        _, g = offline_greedy(oracle, ground, matroid=matroid)
        return 2.0 * g, True
    _, g = offline_greedy(oracle, ground, k=cfg.k)
    return g / (1.0 - 1.0 / math.e), True


def _card(cfg: RunConfig, oracle: CountedOracle, matroid):
    if cfg.opt_value is None:
        raise ValueError("algo card needs a fixed opt_value")
    return CardinalityState(oracle, cfg.k, cfg.epsilon, cfg.opt_value)


def _card_ladder(cfg: RunConfig, oracle: CountedOracle, matroid):
    return GuessLadder(oracle, cfg.k, cfg.epsilon)


def _matroid_half(cfg: RunConfig, oracle: CountedOracle, matroid):
    if matroid is None:
        raise ValueError("algo matroid-half needs a matroid")
    if cfg.opt_value is None:
        raise ValueError("algo matroid-half needs a fixed opt_value")
    params = BranchParams.standard(cfg.k, cfg.epsilon, cfg.opt_value)
    return MatroidHalf(oracle, matroid, params, mode=cfg.mode)


# name -> builder(cfg, algorithm oracle, matroid); every algorithm
# here is insertion-only and has insert(e) and solution()
_ALGORITHMS = {
    "card": _card,
    "card-ladder": _card_ladder,
    "matroid-half": _matroid_half,
}


def run_stream(cfg: RunConfig, inner, stream: Stream, matroid=None):
    """Replay the stream through the configured algorithm.

    `inner` is the raw set function; two counted oracles are built from
    it, one for the algorithm and one for harness metric probes.
    Returns (records, meta) with meta carrying the echoed config.
    """
    if not stream.insertion_only:
        raise UnsupportedOpError(
            f"algorithm {cfg.algo} is insertion-only; the stream has deletions")
    ground_all = stream.elements()
    algo_oracle = CountedOracle(inner, ground_all)
    probe_oracle = CountedOracle(inner, ground_all)
    algo = _ALGORITHMS[cfg.algo](cfg, algo_oracle, matroid)
    checkpoints = cfg.checkpoint_rounds(len(stream))
    records: list[RoundRecord] = []
    live: set = set()
    q_prev = 0
    any_bound = False
    for t, op in enumerate(stream, start=1):
        live.add(op.element)
        algo.insert(op.element)
        if t not in checkpoints:
            continue
        S = algo.solution()
        q_total = algo_oracle.count
        value = probe_oracle.eval(S)
        opt, is_bound = _opt_estimate(cfg, probe_oracle, live, matroid)
        any_bound = any_bound or is_bound
        ratio = value / opt if opt > 0 else (1.0 if value <= 0 else math.inf)
        records.append(RoundRecord(
            t=t, op=op.kind, ground=len(live), value=value, opt=opt,
            ratio=ratio, q_round=q_total - q_prev, q_total=q_total))
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


def load_report_json(path) -> list[RoundRecord]:
    with open(path) as fh:
        return [RoundRecord(**d) for d in json.load(fh)]
