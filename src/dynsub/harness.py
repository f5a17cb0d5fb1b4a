"""Stream replay, per-round metrics, algorithm registry, reports.

Metric probes (f(S_t), OPT_t) run through a separate counted oracle so
algorithm query accounting stays clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field

from dynsub.cardinality import CardinalityState, GuessLadder
from dynsub.matroid_dynamic import (BranchParams, PruneGreedyState,
                                    enumerate_branches, reference_lpass,
                                    run_prune_greedy)
from dynsub.oracle import CountedOracle, EnumerationBudgetError, brute_force_opt
from dynsub.streams import INSERT, Stream


class UnsupportedOpError(RuntimeError):
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


@dataclass
class RunConfig:
    algo: str
    k: int
    epsilon: float
    opt_mode: str = "brute-force"  # brute-force | greedy-bound | known
    opt_value: float | None = None
    brute_budget: int = 10 ** 6
    checkpoint: str = "every-round"  # every-round | every-n:<n> | at-end
    mode: str = "guided"  # matroid-half: guided | exhaustive
    m_stages: int = 4
    window: int | None = None
    seed: int = 0
    extras: dict = field(default_factory=dict)

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

    def as_flat(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if k != "extras"}
        d.update(self.extras)
        return d


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
        if cfg.opt_value is None:
            raise ValueError("opt_mode known requires opt_value")
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
    if cfg.opt_mode not in ("brute-force", "greedy-bound"):
        raise ValueError(f"bad opt_mode {cfg.opt_mode!r}")
    _, g = offline_greedy(oracle, ground,
                          k=None if matroid is not None else cfg.k,
                          matroid=matroid)
    return g / (1.0 - 1.0 / math.e), True


class _CardAdapter:
    insertion_only = True

    def __init__(self, cfg: RunConfig, oracle: CountedOracle):
        if cfg.opt_value is None:
            raise ValueError("algo card needs a fixed opt_value")
        self.state = CardinalityState(oracle, cfg.k, cfg.epsilon, cfg.opt_value)

    def insert(self, e):
        self.state.insert(e)

    def solution(self):
        return self.state.solution()


class _LadderAdapter:
    insertion_only = True

    def __init__(self, cfg: RunConfig, oracle: CountedOracle):
        self.ladder = GuessLadder(oracle, cfg.k, cfg.epsilon,
                                  window_length=cfg.window)

    def insert(self, e):
        self.ladder.insert(e)

    def solution(self):
        return self.ladder.solution()


class _MatroidHalfAdapter:
    insertion_only = True

    def __init__(self, cfg: RunConfig, oracle: CountedOracle, matroid):
        if matroid is None:
            raise ValueError("algo matroid-half needs a matroid")
        if cfg.opt_value is None:
            raise ValueError("algo matroid-half needs a fixed opt_value")
        L = cfg.extras.get("branch_L")
        R = cfg.extras.get("branch_R")
        if L is not None:
            self.params = BranchParams.override(int(L), int(R), cfg.epsilon,
                                                cfg.opt_value)
        else:
            self.params = BranchParams.standard(cfg.k, cfg.epsilon,
                                                cfg.opt_value)
        self.oracle = oracle
        self.M = matroid
        self.mode = cfg.mode
        self.history: list[int] = []
        if self.mode == "exhaustive":
            self.states = [PruneGreedyState(oracle, matroid, self.params, a)
                           for a in enumerate_branches(self.params.L,
                                                       self.params.R)]
        elif self.mode != "guided":
            raise ValueError(f"bad mode {self.mode!r}")

    def insert(self, e):
        self.history.append(e)
        if self.mode == "exhaustive":
            for st in self.states:
                st.insert(e)

    def solution(self):
        if self.mode == "guided":
            ref = reference_lpass(self.history, self.params.opt, self.oracle,
                                  self.M, self.params)
            st = run_prune_greedy(self.history, self.oracle, self.M,
                                  self.params, ref.a_star)
            return st.solution()
        best_S, best_v = frozenset(), 0.0
        for st in self.states:
            S = st.solution()
            v = self.oracle.eval(S)
            if v > best_v + 1e-15:
                best_S, best_v = S, v
        return best_S


_ADAPTERS = {
    "card": lambda cfg, oracle, matroid: _CardAdapter(cfg, oracle),
    "card-ladder": lambda cfg, oracle, matroid: _LadderAdapter(cfg, oracle),
    "matroid-half": _MatroidHalfAdapter,
}


def run_stream(cfg: RunConfig, inner, stream: Stream, matroid=None):
    """Replay the stream through the configured algorithm.

    `inner` is the raw set function; two counted oracles are built from
    it, one for the algorithm and one for harness metric probes.
    Returns (records, meta) with meta carrying the echoed config.
    """
    ground_all = stream.elements()
    algo_oracle = CountedOracle(inner, ground_all)
    probe_oracle = CountedOracle(inner, ground_all)
    if cfg.algo not in _ADAPTERS:
        raise ValueError(f"unknown algorithm {cfg.algo!r}")
    adapter = _ADAPTERS[cfg.algo](cfg, algo_oracle, matroid)
    checkpoints = cfg.checkpoint_rounds(len(stream))
    records: list[RoundRecord] = []
    live: set = set()
    q_prev = 0
    any_bound = False
    for t, op in enumerate(stream, start=1):
        if op.kind != INSERT:
            if adapter.insertion_only:
                raise UnsupportedOpError(
                    f"algorithm {cfg.algo} is insertion-only; op {t} deletes")
            raise UnsupportedOpError("no deletion-capable algorithms registered")
        live.add(op.element)
        adapter.insert(op.element)
        if t not in checkpoints:
            continue
        S = adapter.solution()
        q_total = algo_oracle.count
        value = probe_oracle.eval(S)
        opt, is_bound = _opt_estimate(cfg, probe_oracle, live, matroid)
        any_bound = any_bound or is_bound
        ratio = value / opt if opt > 0 else (1.0 if value <= 0 else math.inf)
        records.append(RoundRecord(
            t=t, op=op.kind, ground=len(live), value=value, opt=opt,
            ratio=ratio, q_round=q_total - q_prev, q_total=q_total))
        q_prev = q_total
    meta = dict(cfg.as_flat())
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
