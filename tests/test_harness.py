import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsub import harness
from dynsub.harness import (RoundRecord, RunConfig, UnsupportedOpError,
                            emit_report, offline_greedy, parse_config,
                            run_stream)
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import CoverageFunction, random_coverage
from dynsub.oracle import EnumerationBudgetError, brute_force_opt
from dynsub.streams import DELETE, INSERT, Stream, StreamOp
from oracles import ModularFunction, counted, load_report_json


def test_empty_stream():
    f = ModularFunction({0: 1.0})
    cfg = RunConfig(algo="card-ladder", k=1, epsilon=0.5)
    records, _ = run_stream(cfg, f, Stream([]))
    assert records == []


@pytest.mark.parametrize("ops, needle", [
    ([(INSERT, 0), (INSERT, 1), (INSERT, 0)], "op 2: duplicate insert of 0"),
    ([(INSERT, 0), (DELETE, 1)], "op 1: delete of non-live 1"),
    ([(INSERT, 0), (DELETE, 0), (DELETE, 0)], "op 2: delete of non-live 0"),
    ([(INSERT, 3), (DELETE, 3), (INSERT, 3)], "op 2: id 3 reused after delete"),
])
def test_stream_refuses_an_op_the_engines_rely_on_never_seeing(ops, needle):
    # the engines keep no set of the ids they have seen: a stream is
    # the one place a repeated insert is refused
    with pytest.raises(ValueError, match=needle):
        Stream([StreamOp(kind, e) for kind, e in ops])


def test_modular_ratio_one_every_round():
    f = ModularFunction({0: 1.0, 1: 2.0, 2: 3.0})
    cfg = RunConfig(algo="card-ladder", k=1, epsilon=0.5)
    records, meta = run_stream(cfg, f, Stream.inserts([0, 1, 2]))
    assert [r.ratio for r in records] == [1.0, 1.0, 1.0]
    assert not meta["opt_is_bound"]


def test_determinism_byte_identical(tmp_path):
    f = random_coverage(8, 8, seed=1)
    cfg = RunConfig(algo="card-ladder", k=2, epsilon=0.25)
    paths = []
    for i in range(2):
        records, meta = run_stream(cfg, f, Stream.inserts(sorted(f.ground)))
        p = tmp_path / f"r{i}.csv"
        emit_report(records, "csv", p, meta=meta)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_probe_queries_not_charged_to_algorithm():
    # brute-force OPT probes cost far more oracle calls than a fixed
    # opt_value, yet q_total must not move: probes use a separate oracle
    f = random_coverage(10, 8, seed=2)
    stream = Stream.inserts(sorted(f.ground))
    totals = []
    for mode, opt in (("brute-force", None), ("known", 5.0)):
        cfg = RunConfig(algo="card-ladder", k=2, epsilon=0.25,
                        opt_mode=mode, opt_value=opt)
        records, _ = run_stream(cfg, f, stream)
        totals.append([r.q_total for r in records])
    assert totals[0] == totals[1]


def test_fixed_target_amortized_budget():
    f = random_coverage(12, 10, seed=3)
    from dynsub.oracle import brute_force_opt
    _, opt = brute_force_opt(counted(f), k=3)
    cfg = RunConfig(algo="card", k=3, epsilon=0.25, opt_value=opt)
    records, _ = run_stream(cfg, f, Stream.inserts(sorted(f.ground)))
    n = records[-1].t
    assert records[-1].q_total <= 2 * (int(1 / 0.25) + 2) * n


def test_insertion_only_rejects_deletes():
    # refused before the first round: no set is ever evaluated
    queried = []

    def f(S):
        queried.append(S)
        return float(len(S))

    cfg = RunConfig(algo="card-ladder", k=1, epsilon=0.5)
    stream = Stream([StreamOp(INSERT, 0), StreamOp(INSERT, 1),
                     StreamOp(DELETE, 0)])
    with pytest.raises(UnsupportedOpError, match="insertion-only"):
        run_stream(cfg, f, stream)
    assert queried == []


def test_a_matroid_is_refused_for_the_cardinality_algorithms():
    # the probe would take OPT under the matroid and the ladder under
    # |S| <= k; refused before the first round: no set is ever evaluated
    queried = []

    def f(S):
        queried.append(S)
        return float(len(S))

    M = PartitionMatroid({0: 0, 1: 0}, {0: 1})
    cfg = RunConfig(algo="card-ladder", k=2, epsilon=0.5)
    with pytest.raises(ValueError, match="takes no matroid"):
        run_stream(cfg, f, Stream.inserts([0, 1]), matroid=M)
    assert queried == []


@pytest.mark.parametrize("mode, opt", [("bogus", None), ("known", None)])
def test_run_config_rejects_bad_opt_mode(mode, opt):
    with pytest.raises(ValueError, match="opt_mode"):
        RunConfig(algo="card-ladder", k=1, epsilon=0.5, opt_mode=mode,
                  opt_value=opt)


@pytest.mark.parametrize("algo", ["card", "card-ladder"])
def test_run_config_rejects_a_bad_mode(algo):
    with pytest.raises(ValueError, match="bad mode 'fast'"):
        RunConfig(algo=algo, k=2, epsilon=0.3, opt_value=3.0, mode="fast")


@pytest.mark.parametrize("fields, needle", [
    (dict(algo="card", opt_value=3.0, mode="exhaustive"),
     "algo card has no mode exhaustive"),
    (dict(algo="card-ladder", mode="exhaustive"),
     "algo card-ladder has no mode exhaustive"),
    (dict(algo="card-ladder", opt_value=3.0),
     "ignores opt_value unless opt_mode is known, got brute-force"),
    (dict(algo="card-ladder", opt_value=3.0, opt_mode="greedy-bound"),
     "got greedy-bound"),
])
def test_a_setting_the_algorithm_would_ignore_is_refused(fields, needle):
    # refused before the first round: no set is ever evaluated
    queried = []

    def f(S):
        queried.append(S)
        return float(len(S))

    cfg = RunConfig(k=2, epsilon=0.3, **fields)
    with pytest.raises(ValueError, match=needle):
        run_stream(cfg, f, Stream.inserts([0, 1]))
    assert queried == []


def test_csv_shape_and_json_round_trip(tmp_path):
    f = ModularFunction({0: 2.0, 1: 1.0})
    cfg = RunConfig(algo="card-ladder", k=1, epsilon=0.5)
    records, meta = run_stream(cfg, f, Stream.inserts([0, 1]))
    csv_path = tmp_path / "out.csv"
    emit_report(records, "csv", csv_path, meta=meta)
    lines = [l for l in csv_path.read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "t,op,ground,value,opt,ratio,q_round,q_total,q_extract"
    assert len(lines) == 3
    assert any(l.startswith("# algo = card-ladder")
               for l in csv_path.read_text().splitlines())
    json_path = tmp_path / "out.json"
    emit_report(records, "json", json_path, meta=meta)
    assert load_report_json(json_path) == records
    assert isinstance(json.loads(json_path.read_text()), list)


def test_empty_records_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    emit_report([], "csv", p)
    assert p.read_text() == (
        "t,op,ground,value,opt,ratio,q_round,q_total,q_extract\n")


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("algo = card\n# comment\nk=3\nepsilon = 0.25\n")
    assert parse_config(p) == {"algo": "card", "k": "3", "epsilon": "0.25"}
    bad = tmp_path / "bad.txt"
    bad.write_text("no separator here\n")
    with pytest.raises(ValueError):
        parse_config(bad)


def test_greedy_bound_flagged():
    # C(32, <= 6) = 1,149,017 sets, over the brute-force budget of 10^6
    f = ModularFunction({e: 1.0 + (7 * e) % 11 for e in range(32)})
    cfg = RunConfig(algo="card-ladder", k=6, epsilon=0.25,
                    opt_mode="brute-force", checkpoint="at-end")
    records, meta = run_stream(cfg, f, Stream.inserts(sorted(f.ground)))
    assert meta["opt_is_bound"]
    # the greedy/(1-1/e) proxy upper-bounds the true optimum, which is
    # the sum of the six largest weights
    opt = sum(sorted(f.weights.values())[-6:])
    assert records[-1].opt >= opt - 1e-9


def test_offline_greedy_respects_matroid():
    from dynsub.matroids import PartitionMatroid
    f = random_coverage(8, 8, seed=6)
    M = PartitionMatroid({e: e % 2 for e in range(8)}, {0: 1, 1: 1})
    S, _ = offline_greedy(counted(f), f.ground, matroid=M)
    assert M.is_independent(S)


def test_checkpoint_every_n():
    f = random_coverage(9, 8, seed=7)
    cfg = RunConfig(algo="card-ladder", k=2, epsilon=0.25,
                    checkpoint="every-n:4")
    records, _ = run_stream(cfg, f, Stream.inserts(sorted(f.ground)))
    assert [r.t for r in records] == [4, 8, 9]


@pytest.mark.parametrize("policy", ["every-n:0", "every-n:-3", "every-n:2.5",
                                    "every-n:"])
def test_checkpoint_every_n_rejects_bad_n(policy):
    cfg = RunConfig(algo="card-ladder", k=2, epsilon=0.25, checkpoint=policy)
    with pytest.raises(ValueError, match=f"{policy!r}.*n >= 1"):
        cfg.checkpoint_rounds(9)


def test_round_record_columns_frozen():
    assert RoundRecord.COLUMNS == ("t", "op", "ground", "value", "opt",
                                   "ratio", "q_round", "q_total", "q_extract")


@pytest.mark.parametrize("algo, mode", [("card", "guided"),
                                         ("card-ladder", "guided"),
                                         ("matroid-half", "guided"),
                                         ("matroid-half", "exhaustive")])
def test_q_extract_is_the_queries_of_solution(algo, mode):
    # a fixed-target engine's solution asks nothing, and guided
    # matroid-half's insert asks nothing, so there every query is an
    # extraction's
    f = random_coverage(8, 8, seed=8)
    M = UniformMatroid(2, f.ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    cfg = RunConfig(algo=algo, k=2, epsilon=0.5, mode=mode,
                    opt_value=None if algo == "card-ladder" else opt)
    records, _ = run_stream(cfg, f, Stream.inserts(sorted(f.ground)),
                            matroid=M if algo == "matroid-half" else None)
    assert all(0 <= r.q_extract <= r.q_round for r in records)
    extract = [r.q_extract for r in records]
    if algo == "card":
        assert not any(extract)
    elif mode == "guided" and algo == "matroid-half":
        assert extract == [r.q_round for r in records]
    else:  # each insert asks, and so do some extractions
        assert any(extract)
        assert all(r.q_round > r.q_extract for r in records)


def test_matroid_half_exhaustive_dominates_guided():
    from dynsub.matroids import UniformMatroid
    from dynsub.oracle import brute_force_opt
    f = random_coverage(8, 8, seed=8)
    M = UniformMatroid(2, f.ground)
    _, opt = brute_force_opt(counted(f), matroid=M)
    stream = Stream.inserts(sorted(f.ground))
    values = {}
    for mode in ("guided", "exhaustive"):  # k=2, eps=0.5: 455 branch tuples
        cfg = RunConfig(algo="matroid-half", k=2, epsilon=0.5,
                        opt_mode="known", opt_value=opt, mode=mode)
        records, _ = run_stream(cfg, f, stream, matroid=M)
        values[mode] = [r.value for r in records]
    assert len(values["guided"]) == len(stream)
    assert all(ve >= vg - 1e-12
               for vg, ve in zip(values["guided"], values["exhaustive"]))
    with pytest.raises(ValueError, match="bad mode 'fast'"):
        RunConfig(algo="matroid-half", k=2, epsilon=0.5, opt_value=opt,
                  mode="fast")


def test_greedy_bound_under_a_matroid_is_certified():
    # greedy takes element 0 (value 2.0) and then nothing else fits, while
    # OPT = {1, 2} = 3.99; g/(1-1/e) = 3.164 would understate it
    f = CoverageFunction([("p", 1.0), ("q", 1.0), ("r", 1.99)],
                         {0: {"p", "q"}, 1: {"r"}, 2: {"p", "q"}})
    M = PartitionMatroid({0: 0, 1: 0, 2: 1}, {0: 1, 1: 1})
    cfg = RunConfig(algo="matroid-half", k=2, epsilon=0.25, opt_value=3.99,
                    opt_mode="greedy-bound")
    records, _ = run_stream(cfg, f, Stream.inserts([1, 2, 0]), matroid=M)
    # the true optimum of each prefix: {1}, then {1, 2} from t = 2 on
    assert [r.t for r in records] == [1, 2, 3]
    assert all(r.opt >= opt and r.ratio <= 1.0
               for r, opt in zip(records, (1.99, 3.99, 3.99)))


def _two_block_matroid(ground):
    return PartitionMatroid({e: e % 2 for e in ground}, {0: 1, 1: 2})


def _algo_under(f, k, M):
    """The algorithm for a run under M, which the probe uses too: the
    ladder under |S| <= k alone, or matroid-half, whose opt_value f(V)
    bounds OPT, so no guided L-pass leaves the tuple space."""
    if M is None:
        return dict(algo="card-ladder", k=k)
    return dict(algo="matroid-half", k=k, opt_value=f(f.ground))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), items=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6), k=st.integers(1, 3),
       matroid=st.booleans(),
       checkpoint=st.sampled_from(["every-round", "every-n:2", "every-n:3"]),
       budget=st.integers(1, 140) | st.just(10 ** 6))
# the resumed chain counts 20 sets at t=5 and refuses, where a fresh walk
# over the same prefix counts 18 and certifies
@example(n=6, items=6, seed=2, k=1, matroid=True, checkpoint="every-round",
         budget=18)
def test_incremental_probe_matches_a_full_walk(n, items, seed, k, matroid,
                                               checkpoint, budget):
    """Every certified checkpoint opt is a fresh unbounded brute force over
    the prefix, and the greedy-bound fallback fires exactly where, at the
    same budget, both the walk resuming the chain of earlier walks and a
    fresh walk over the prefix refuse."""
    f = random_coverage(n, items, seed, weighted=True)
    order = sorted(f.ground)
    random.Random(seed).shuffle(order)
    stream = Stream.inserts(order)
    M = _two_block_matroid(f.ground) if matroid else None
    constraint = dict(matroid=M) if matroid else dict(k=k)
    cfg = RunConfig(**_algo_under(f, k, M), epsilon=0.25,
                    checkpoint=checkpoint)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunConfig, "brute_budget", budget)
        records, meta = run_stream(cfg, f, stream, matroid=M)
    bound_cfg = RunConfig(**_algo_under(f, k, M), epsilon=0.25,
                          opt_mode="greedy-bound", checkpoint=checkpoint)
    bounds, _ = run_stream(bound_cfg, f, stream, matroid=M)
    chain, prev, refused = counted(f), None, False
    for rec, fallback in zip(records, bounds, strict=True):
        # a refused resume is retried from scratch; a refusal sticks
        starts = [] if refused else [None] if prev is None else [prev, None]
        for start in starts:
            try:
                prev = brute_force_opt(chain, ground=order[:rec.t],
                                       budget=budget, prev=start,
                                       **constraint)
                break
            except EnumerationBudgetError:
                pass
        else:
            refused = True
        if refused:
            assert rec.opt == fallback.opt, rec
        else:
            _, opt = brute_force_opt(counted(f), ground=order[:rec.t],
                                     **constraint)
            assert rec.opt == prev[1] == opt, rec
    assert meta["opt_is_bound"] == refused


@pytest.mark.parametrize("matroid", [False, True])
def test_every_round_probe_walks_each_feasible_set_once(monkeypatch, matroid):
    f = random_coverage(10, 12, seed=7, weighted=True)
    M = _two_block_matroid(f.ground) if matroid else None
    walked, depth, results = [], [], []

    def inner(S):
        if depth:
            walked.append(frozenset(S))
        return f(S)

    def tracked(*args, **kwargs):
        depth.append(1)
        try:
            results.append(real(*args, **kwargs))
            return results[-1]
        finally:
            depth.pop()

    real = harness.brute_force_opt
    monkeypatch.setattr(harness, "brute_force_opt", tracked)
    order = sorted(f.ground)
    random.Random(7).shuffle(order)
    cfg = RunConfig(**_algo_under(f, 3, M), epsilon=0.25)
    records, meta = run_stream(cfg, inner, Stream.inserts(order), matroid=M)
    assert len(records) == 10 and not meta["opt_is_bound"]
    feasible = [frozenset(c) for j in range(4)
                for c in itertools.combinations(order, j)
                if M is None or M.is_independent(c)]
    # f(S_t) is probed outside brute force, so only the walks count here
    if M is None:
        # each walked set once, and the cap f(live) of each walk once
        # the live set outgrows k; the count is every feasible set
        small = [S for S in walked if len(S) <= 3]
        assert [S for S in walked if len(S) > 3] == [
            frozenset(order[:t]) for t in range(4, 11)]
        assert len(small) == len(set(small))
        assert set(small) <= set(feasible)
        assert results[-1].count == len(feasible)
    else:
        # the branch and bound walks a part of them, each once, and its
        # count is the sets it walked
        assert len(walked) == len(set(walked)) == results[-1].count
        assert set(walked) <= set(feasible)
