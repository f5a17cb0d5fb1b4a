"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DETERMINISTIC = ("queries_per_update", "final_value", "min_ratio")


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload, trace, seed=1):
    p = bench(workload, trace, seed)
    assert p.returncode == 0, p.stdout + p.stderr
    return p.stdout, json.loads(p.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): result(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(runs, workload):
    out, res = runs[workload, 0]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert "metric ops_failed_frac = 0.0 ratio" in out
    assert "metric updates_per_s = " in out  # the uncalibrated rate
    assert "# python " in out and " nproc " in out
    assert list(res["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(runs, workload):
    _, res = runs[workload, 1]
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for m in BENCH["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_count_is_the_untraced_query_count(runs, workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from workloads import WORKLOADS as defs
    w = defs[workload]
    updates = len(w.build(1000, w.sizes["smoke"]).ground)
    per_update = runs[workload, 0][1]["metrics"]["queries_per_update"]["value"]
    layers = {m: v["value"] for m, v in runs[workload, 1][1]["metrics"].items()}
    algorithm_evals = layers["oracle.evals"] - layers["harness.probe_evals"]
    assert algorithm_evals > 0
    assert per_update * updates == pytest.approx(algorithm_evals, abs=1e-6)


def test_deterministic_figures_repeat_bit_for_bit(runs):
    for w in WORKLOADS:
        again = result(w, 0)[1]["metrics"]
        for m in DETERMINISTIC:
            assert again[m]["value"] == runs[w, 0][1]["metrics"][m]["value"], (w, m)


def test_binding_guard_catches_an_unwrapped_layer(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run as bench_run
    import tracer
    from workloads import WORKLOADS as defs
    # as if harness looked brute_force_opt up somewhere the tracer misses
    monkeypatch.setattr(tracer, "BINDINGS", [
        b for b in tracer.BINDINGS if b[:2] != (tracer.harness, "brute_force_opt")])
    res = bench_run.run(defs["probe-bipartite"], 1, 0, False, "smoke")
    assert not res["correct"] and res["failed"] > 0
    assert "binding guard: oracle.brute_force_calls is 0" in capsys.readouterr().out


def test_guard_flags_work_where_the_table_says_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracer
    errors = tracer.binding_errors({"a": 0, "b": 3, "c": 0}, nonzero=("a", "b"),
                                   zero=("b", "c"))
    assert len(errors) == 2 and errors[0].startswith("a is 0")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
