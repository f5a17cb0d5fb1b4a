"""Command-line front door: run, gen-stream, verify-hard, bench.

Exit codes: 0 success, 1 usage error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from dynsub.harness import RunConfig, emit_report, parse_config, run_stream
from dynsub.hard_bipartite import (BipartiteInstance, bipartite_eval,
                                   bipartite_eval_bruteforce, bipartite_stream)
from dynsub.hard_tree import (ShuffledTreeInstance, tree_F_eval,
                              traverse_stream, traverse_leaves,
                              weight_sequence)
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import CoverageFunction, random_coverage
from dynsub.streams import Stream

USAGE_ERROR = 1
INVARIANT_ERROR = 2


class InvariantViolation(RuntimeError):
    pass


def _load_oracle_inner(spec: str):
    if spec.startswith("random:"):
        try:
            _, n, items, seed = spec.split(":")
            return random_coverage(int(n), int(items), int(seed))
        except ValueError as exc:
            raise SystemExit(f"bad oracle spec {spec!r}: {exc}")
    return CoverageFunction.load(spec)


def _load_matroid(spec: str | None, ground):
    if spec is None:
        return None
    if spec.startswith("uniform:"):
        return UniformMatroid(int(spec.split(":", 1)[1]), ground)
    return PartitionMatroid.load(spec)


def _cmd_run(args) -> int:
    file_cfg = parse_config(args.config) if args.config else {}

    def pick(name, cli_val, cast, default=None):
        if cli_val is not None:
            return cli_val
        if name in file_cfg:
            return cast(file_cfg[name])
        return default

    algo = pick("algo", args.algo, str)
    k = pick("k", args.k, int)
    epsilon = pick("epsilon", args.epsilon, float)
    if algo is None or k is None or epsilon is None:
        print("run: --algo, --k and --epsilon are required", file=sys.stderr)
        return USAGE_ERROR
    cfg = RunConfig(
        algo=algo, k=k, epsilon=epsilon,
        opt_mode=pick("opt_mode", args.opt_mode, str, "brute-force"),
        opt_value=pick("opt", args.opt, float),
        checkpoint=pick("checkpoint", args.checkpoint, str, "every-round"),
        mode=pick("mode", args.mode, str, "guided"),
        window=pick("window", args.window, int),
        seed=pick("seed", args.seed, int, 0),
    )
    oracle_spec = pick("oracle", args.oracle, str)
    if oracle_spec is None:
        print("run: --oracle is required", file=sys.stderr)
        return USAGE_ERROR
    inner = _load_oracle_inner(oracle_spec)
    stream_spec = pick("stream", args.stream, str)
    if stream_spec:
        stream = Stream.load(stream_spec)
    else:
        stream = Stream.inserts(sorted(inner.ground))
    unknown = stream.elements() - inner.ground
    if unknown:
        print(f"run: stream ids not in the oracle's ground set: "
              f"{sorted(unknown)}", file=sys.stderr)
        return USAGE_ERROR
    matroid = _load_matroid(pick("matroid", args.matroid, str),
                            stream.elements())
    if cfg.opt_mode == "known" and cfg.opt_value is None:
        print("run: opt_mode known needs --opt", file=sys.stderr)
        return USAGE_ERROR
    records, meta = run_stream(cfg, inner, stream, matroid=matroid)
    meta["oracle"] = oracle_spec
    meta["stream"] = stream_spec or "<all-inserts>"
    fmt = pick("format", args.format, str, "csv")
    if args.out:
        emit_report(records, fmt, args.out, meta=meta)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for r in records:
            print(f"t={r.t} value={r.value:.6g} opt={r.opt:.6g} "
                  f"ratio={r.ratio:.4f} q_total={r.q_total}")
    bad = [r for r in records if not meta.get("opt_is_bound")
           and r.ratio > 1.0 + 1e-9]
    if bad:
        print(f"invariant violation: ratio above 1 at rounds "
              f"{[r.t for r in bad]}", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def _bipartite_descriptor(inst: BipartiteInstance, seed: int) -> dict:
    return {
        "family": "bipartite",
        "seed": seed,
        "m": inst.m, "k": inst.k, "w": inst.w, "eps": inst.eps,
        "part_alpha": inst.part_alpha, "beta": inst.beta,
        "pi": {str(i): inst.pi[i] for i in inst.pi},
        "slots": {str(e): list(inst.slot[e]) for e in sorted(inst.slot)},
    }


def _tree_descriptor(inst: ShuffledTreeInstance, seed: int, d: int) -> dict:
    return {
        "family": "tree",
        "seed": seed,
        "k": inst.k, "eps": inst.eps, "arities": list(inst.arities), "d": d,
        "pi": {json.dumps(u): {str(i): v for i, v in b.items()}
               for u, b in inst.pi.items()},
    }


def _random_tree_pi(arities, seed: int) -> dict:
    rng = random.Random(seed)
    pi: dict = {}
    frontier = [()]
    for depth, m in enumerate(arities):
        for u in frontier:
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            pi[u] = {i + 1: perm[i] for i in range(m)}
        frontier = [u + (i,) for u in frontier for i in range(1, m + 1)]
    return pi


def _cmd_gen_stream(args) -> int:
    if args.family == "bipartite":
        inst = BipartiteInstance(m=args.m, k=args.k, w=args.w, eps=args.eps,
                                 part_alpha=args.alpha, beta=args.beta,
                                 seed=args.seed)
        stream = bipartite_stream(inst)
        desc = _bipartite_descriptor(inst, args.seed)
    elif args.family == "tree":
        arities = tuple(int(s) for s in args.arities.split(","))
        pi = _random_tree_pi(arities, args.seed)
        inst = ShuffledTreeInstance(k=args.k, eps=args.eps, arities=arities,
                                    pi=pi)
        stream = traverse_stream(inst, args.d)
        desc = _tree_descriptor(inst, args.seed, args.d)
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return USAGE_ERROR
    stream.dump(args.out)
    desc_path = args.desc or args.out + ".json"
    with open(desc_path, "w") as fh:
        json.dump(desc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(stream)} ops to {args.out}, descriptor to {desc_path}")
    return 0


def _rebuild_from_descriptor(desc: dict):
    if desc["family"] == "bipartite":
        inst = BipartiteInstance(m=desc["m"], k=desc["k"], w=desc["w"],
                                 eps=desc["eps"],
                                 part_alpha=desc["part_alpha"],
                                 beta=desc["beta"], seed=desc["seed"])
        stored = {int(e): tuple(s) for e, s in desc["slots"].items()}
        if stored != inst.slot:
            raise InvariantViolation("descriptor layout does not match seed")
        return inst
    if desc["family"] == "tree":
        pi = {tuple(json.loads(u)): {int(i): v for i, v in b.items()}
              for u, b in desc["pi"].items()}
        return ShuffledTreeInstance(k=desc["k"], eps=desc["eps"],
                                    arities=tuple(desc["arities"]), pi=pi)
    raise InvariantViolation(f"unknown family {desc['family']!r}")


def _verify_bipartite(inst: BipartiteInstance) -> None:
    rng = random.Random(0)
    if bipartite_eval(inst, frozenset()) != 0.0:
        raise InvariantViolation("value at the empty set is nonzero")
    if inst.m <= 8:
        ids = sorted(inst.ground)
        for _ in range(20):
            S = frozenset(rng.sample(ids, rng.randint(0, min(len(ids), 12))))
            a = bipartite_eval(inst, S)
            b = bipartite_eval_bruteforce(inst, S)
            if abs(a - b) > 1e-9:
                raise InvariantViolation(
                    f"factorized value {a} != mixture sum {b}")
    for i in range(1, inst.m + 1):
        j = rng.randint(1, inst.w)
        S = frozenset(inst.A_ids[(inst.pi[i], j)] + inst.B_ids[(i, j)])
        if bipartite_eval(inst, S) < 1.0 - inst.eps - 1e-9:
            raise InvariantViolation(f"paired color class {i},{j} undervalued")
    stream = bipartite_stream(inst)
    want = (2 - inst.part_alpha) * inst.m * inst.k * inst.w
    if len(stream) != int(round(want)):
        raise InvariantViolation("hard-stream length mismatch")


def _verify_tree(inst: ShuffledTreeInstance, d: int) -> None:
    tab = weight_sequence(inst.L)
    for j in range(1, inst.L + 1):
        prod = tab["a"][j]
        for i in range(1, j):
            prod *= 1.0 - tab["a"][i] / tab["A_geq"][i]
        if abs(prod - 1.0) > 1e-9:
            raise InvariantViolation(f"weight identity fails at depth {j}")
    for leaf in inst.leaves:
        S = [e for v in inst.shuffled_path_sets(leaf)
             for e in inst.elements_of(v)]
        if len(S) != inst.k or tree_F_eval(inst, S) != 1.0:
            raise InvariantViolation(f"shuffled path of leaf {leaf} not optimal")
    stream = traverse_stream(inst, d)
    live: set = set()
    visits = iter(traverse_leaves(inst, d))
    expect = next(visits, None)
    for op in stream:
        if op.kind == "I":
            live.add(op.element)
        else:
            live.discard(op.element)
        if expect is not None and live == {
                e for v in inst.sibling_sets(expect)
                for e in inst.elements_of(v)}:
            expect = next(visits, None)
    if expect is not None:
        raise InvariantViolation(f"leaf {expect} never saw its live set")


def _cmd_verify_hard(args) -> int:
    with open(args.instance) as fh:
        desc = json.load(fh)
    try:
        inst = _rebuild_from_descriptor(desc)
        if desc["family"] == "bipartite":
            _verify_bipartite(inst)
        else:
            _verify_tree(inst, desc.get("d", 1))
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    print("all instance invariants hold")
    return 0


def _cmd_bench(args) -> int:
    key, _, vals = args.sweep.partition("=")
    if not vals:
        print("bench: --sweep needs key=v1,v2,...", file=sys.stderr)
        return USAGE_ERROR
    for val in vals.split(","):
        sub = argparse.Namespace(**vars(args))
        sub.config = args.config
        setattr(sub, key.replace("-", "_"), _cast_flag(key, val))
        sub.out = None
        print(f"--- {key} = {val} ---")
        rc = _cmd_run(sub)
        if rc != 0:
            return rc
    return 0


def _cast_flag(key: str, val: str):
    if key in ("k", "window", "seed"):
        return int(val)
    if key in ("epsilon", "opt"):
        return float(val)
    return val


def _add_run_flags(p):
    p.add_argument("--algo")
    p.add_argument("--oracle")
    p.add_argument("--stream")
    p.add_argument("--matroid")
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--opt", type=float)
    p.add_argument("--opt-mode", dest="opt_mode",
                   choices=["brute-force", "greedy-bound", "known"])
    p.add_argument("--mode", choices=["guided", "exhaustive"])
    p.add_argument("--checkpoint")
    p.add_argument("--window", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dynsub")
    sub = parser.add_subparsers(dest="cmd")

    p_run = sub.add_parser("run", help="replay a stream through an algorithm")
    _add_run_flags(p_run)

    p_gen = sub.add_parser("gen-stream", help="emit a hard-instance stream")
    p_gen.add_argument("--family", required=True, choices=["bipartite", "tree"])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--desc")
    p_gen.add_argument("--m", type=int, default=3)
    p_gen.add_argument("--k", type=int, default=4)
    p_gen.add_argument("--w", type=int, default=2)
    p_gen.add_argument("--eps", type=float, default=0.5)
    p_gen.add_argument("--alpha", type=float, default=0.5)
    p_gen.add_argument("--beta", type=float, default=0.42)
    p_gen.add_argument("--arities", default="2,1")
    p_gen.add_argument("--d", type=int, default=1)

    p_ver = sub.add_parser("verify-hard", help="check instance invariants")
    p_ver.add_argument("--instance", required=True)

    p_bench = sub.add_parser("bench", help="sweep one run parameter")
    _add_run_flags(p_bench)
    p_bench.add_argument("--sweep", required=True)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "gen-stream":
            return _cmd_gen_stream(args)
        if args.cmd == "verify-hard":
            return _cmd_verify_hard(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    parser.print_usage(sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
