#!/usr/bin/env python3
"""dynsub stream-replay benchmark.

    python3 perfbench/run.py --workload ladder-coverage --seed 1 \\
        --seconds 25 --trace 0

Builds each workload's inputs from --seed, runs them through the public
entry point (`harness.run_stream`, or `matroid_dynamic.amplified_run`
for amplify-coverage), checks every output, and prints the metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, in
its order and with its units.
The exit code is 1 when any output check failed.

A run first makes one traced reference call per sub-instance, outside
any timed region: its outputs are checked and give the deterministic
figures.  Then it makes whole passes over the sub-instances for
--seconds, each call on freshly built inputs; every output must equal
the reference bit for bit.  Each untraced call sits between two runs of
a fixed calibration kernel, which read the machine's speed at that
moment.  --trace 1 adds a traced call after each untraced one.  See
README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # builds per call; setup_s is a median over the builds
# updates_per_ref_s is the rate on a machine that runs the calibration
# kernel in this long.  A fixed scale: the kernel took 0.06-0.11 s on a
# shared 2-core x86-64 VM with Python 3.11, as the host's load varied.
KERNEL_REF_S = 0.08
KERNEL_ITEMS = list(range(2000))
KERNEL_COVERS = [frozenset(range(j, 2000, 37 + j % 11)) for j in range(40)]


def kernel_s() -> float:
    """Wall time of a fixed pure-Python workload shaped like a coverage
    evaluation: set unions, then a membership sum over a list.  It runs
    no dynsub code, so it reads the machine's speed and nothing else."""
    gc.disable()
    try:
        t0 = perf_counter()
        for r in range(600):
            hit = set()
            for c in KERNEL_COVERS[r % 20:r % 20 + 20]:
                hit |= c
            sum(1.0 for item in KERNEL_ITEMS if item in hit)
        return perf_counter() - t0
    finally:
        gc.enable()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def mismatches(out, ref) -> int:
    """Checkpoints whose output differs from the reference call's."""
    if isinstance(ref, list):
        return (sum(a != b for a, b in zip(out, ref))
                + abs(len(out) - len(ref)))
    return int(out != ref)


def run(w, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run of workload `w`; returns the result object."""
    import tracer as T

    p = w.sizes[size]
    seeds = [seed * 1000 + i for i in range(p["instances"])]
    print(f"# workload {w.name}  seed {seed}  size {size}  sub-seeds {seeds}")
    print(f"# params {json.dumps(p, sort_keys=True)}")
    print(f"# python {platform.python_version()}  numpy {_numpy_version()}  "
          f"numba importable {importlib.util.find_spec('numba') is not None}  "
          f"git {git_sha()}  nproc {os.cpu_count()}")

    setup: list[float] = []  # build wall times, scaled like the rates
    setup_walls: list[float] = []
    tally = {"attempted": 0, "failed": 0}
    failures: list[str] = []

    def build(s):
        walls = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inst = w.build(s, p)
            walls.append(perf_counter() - t0)
        return inst, walls

    def timed(s, traced):
        inst, builds = build(s)
        q0 = inst.matroid.query_count if inst.matroid is not None else 0
        tr = T.Tracer() if traced else None
        gc.collect()  # no garbage left by the previous call
        if traced:
            t0 = perf_counter()
            with tr:
                out = w.call(inst)
            wall = perf_counter() - t0
            if inst.matroid is not None:
                tr.indep_queries = inst.matroid.query_count - q0
            return inst, out, tr, wall, None
        k0 = kernel_s()
        t0 = perf_counter()
        out = w.call(inst)
        wall = perf_counter() - t0
        kernel = (k0 + kernel_s()) / 2
        setup.extend(b * KERNEL_REF_S / kernel for b in builds)
        setup_walls.extend(builds)
        return inst, out, tr, wall, kernel

    def compare(out, ref_out, verdict, label):
        tally["attempted"] += verdict.updates + verdict.checkpoints
        bad = mismatches(out, ref_out)
        if bad:
            tally["failed"] += bad
            failures.append(f"{label} output differs from the reference "
                            f"at {bad} checkpoints")

    # reference pass: traced, checked, outside the timed region
    refs, traced_passes, traced_walls = [], [[]], [0.0]
    for s in seeds:
        inst, out, tr, wall, _ = timed(s, traced=True)
        verdict = w.check(inst, out, tr)
        tally["attempted"] += verdict.updates + verdict.checkpoints
        tally["failed"] += len(verdict.failures)
        failures += [f"sub-seed {s}: {f}" for f in verdict.failures]
        refs.append((out, verdict))
        traced_passes[0].append(tr)
        traced_walls[0] += wall
    ref_layers = T.layer_metrics(traced_passes[0])
    guard = T.binding_errors(ref_layers, w.nonzero, w.zero)
    tally["failed"] += len(guard)
    failures += [f"binding guard: {g}" for g in guard]

    # whole passes, as many as fit in --seconds (at least one)
    rates, ref_rates, kernels, walls, pass_s = [], [], [], [], 0.0
    start = perf_counter()
    while not walls or perf_counter() - start + pass_s <= seconds:
        pass_start = perf_counter()
        walls.append(0.0)
        if trace:
            traced_passes.append([])
            traced_walls.append(0.0)
        for s, (ref_out, verdict) in zip(seeds, refs):
            _, out, _, wall, kernel = timed(s, traced=False)
            rates.append(verdict.updates / wall)
            ref_rates.append(verdict.updates / wall * kernel / KERNEL_REF_S)
            kernels.append(kernel)
            walls[-1] += wall
            compare(out, ref_out, verdict, f"untraced sub-seed {s}")
            if trace:
                _, out, tr, wall, _ = timed(s, traced=True)
                traced_passes[-1].append(tr)
                traced_walls[-1] += wall
                compare(out, ref_out, verdict, f"traced sub-seed {s}")
        pass_s = perf_counter() - pass_start

    verdicts = [v for _, v in refs]
    if trace:
        per_pass = [T.layer_metrics(trs) for trs in traced_passes]
        for m in T.COUNT_METRICS:
            if any(lm[m] != ref_layers[m] for lm in per_pass):
                tally["failed"] += 1
                failures.append(f"{m} differs between traced passes: "
                                f"{[lm[m] for lm in per_pass]}")
        values = {m: (ref_layers[m] if m in T.COUNT_METRICS else
                      statistics.median(lm[m] for lm in per_pass))
                  for m in ref_layers}
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_frac"] = (values["trace.wall_s"]
                                         / statistics.median(walls) - 1.0)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "updates_per_ref_s": statistics.median(ref_rates),
            "queries_per_update": (sum(v.queries for v in verdicts)
                                   / sum(v.updates for v in verdicts)),
            "final_value": statistics.fmean(v.final_value for v in verdicts),
            "min_ratio": statistics.fmean(v.min_ratio for v in verdicts),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if trace else "end_to_end"]}

    print(f"# {len(rates)} timed calls in {len(walls)} passes, "
          f"{len(setup)} builds; updates/s per call: "
          + " ".join(f"{r:.4g}" for r in rates))
    print("# calibration kernel s per call: "
          + " ".join(f"{k:.4g}" for k in kernels))
    for f in failures:
        print(f"FAIL {f}")
    for m, (v, unit) in metrics.items():
        print(f"metric {m} = {v!r} {unit}")
    if not trace:
        print(f"metric updates_per_s = {statistics.median(rates)!r} 1/s")
        print(f"metric setup_wall_s = {statistics.median(setup_walls)!r} s")
        print(f"metric ops_failed_frac = "
              f"{tally['failed'] / tally['attempted']!r} ratio")
    return {"correct": not failures, "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {m: {"value": v, "unit": unit}
                        for m, (v, unit) in metrics.items()}}


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time as many whole passes as fit (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "dynsub" / "__init__.py").is_file():
        print(f"error: dynsub sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dynsub
    if Path(dynsub.__file__).resolve().parent != SRC / "dynsub":
        print(f"error: imported dynsub from {dynsub.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")

    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.size)
    except Exception:  # an update raised: report it as a failed run
        traceback.print_exc()
        print("FAIL a call raised; the traceback is on standard error")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
