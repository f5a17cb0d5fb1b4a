"""Command-line front door: run, gen-stream, verify-hard, bench.

Exit codes: 0 success, 1 usage error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from dynsub import hard_bipartite, hard_tree
from dynsub.harness import (OPT_MODES, RunConfig, emit_report, parse_config,
                            run_stream)
from dynsub.matroids import PartitionMatroid, UniformMatroid
from dynsub.objectives import CoverageFunction, random_coverage
from dynsub.oracle import InvariantError
from dynsub.streams import Stream

USAGE_ERROR = 1
INVARIANT_ERROR = 2

_RUN_FIELDS = {f.name for f in fields(RunConfig)}


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so it exits 1 like every other one."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _load_oracle_inner(spec: str):
    if spec.startswith("random:"):
        try:
            _, n, items, seed = spec.split(":")
            return random_coverage(int(n), int(items), int(seed))
        except ValueError as exc:
            raise ValueError(f"bad oracle spec {spec!r}: {exc}") from None
    return CoverageFunction.load(spec)


def _load_matroid(spec: str | None, ground):
    if spec is None:
        return None
    if spec.startswith("uniform:"):
        return UniformMatroid(int(spec.split(":", 1)[1]), ground)
    return PartitionMatroid.load(spec)


def _load_run(args):
    """The run's parameters and inputs, each checked before anything runs:
    (config, set function, stream, matroid or None)."""
    # flags left unset fall back to the RunConfig defaults
    cfg = RunConfig(**{name: v for name, v in vars(args).items()
                       if name in _RUN_FIELDS and v is not None})
    cfg.checkpoint_rounds(0)  # refuses a malformed policy
    inner = _load_oracle_inner(args.oracle)
    if args.stream:
        stream = Stream.load(args.stream)
    else:
        stream = Stream.inserts(sorted(inner.ground))
    unknown = stream.elements() - inner.ground
    if unknown:
        raise ValueError(f"stream ids not in the oracle's ground set: "
                         f"{sorted(unknown)}")
    return cfg, inner, stream, _load_matroid(args.matroid, stream.elements())


def _cmd_run(args, loaded) -> int:
    cfg, inner, stream, matroid = loaded
    records, meta = run_stream(cfg, inner, stream, matroid=matroid)
    meta["oracle"] = args.oracle
    meta["stream"] = args.stream or "<all-inserts>"
    if args.out:
        emit_report(records, args.format, args.out, meta=meta)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for r in records:
            print(f"t={r.t} value={r.value:.6g} opt={r.opt:.6g} "
                  f"ratio={r.ratio:.4f} q_total={r.q_total}")
    bad = [r.t for r in records if r.ratio > 1.0 + 1e-9]
    if bad:
        raise InvariantError(f"ratio above 1 at rounds {bad}")
    return 0


def _cmd_gen_stream(args) -> int:
    if args.family == "bipartite":
        inst = hard_bipartite.BipartiteInstance(
            m=args.m, k=args.k, w=args.w, eps=args.eps,
            part_alpha=args.alpha, beta=args.beta, seed=args.seed)
        stream = hard_bipartite.bipartite_stream(inst)
        desc = hard_bipartite.bipartite_descriptor(inst)
    else:
        arities = tuple(int(s) for s in args.arities.split(","))
        inst = hard_tree.ShuffledTreeInstance(
            k=args.k, eps=args.eps, arities=arities,
            pi=hard_tree.random_tree_pi(arities, args.seed))
        stream = hard_tree.traverse_stream(inst, args.d)
        desc = hard_tree.tree_descriptor(inst, args.seed, args.d)
    stream.dump(args.out)
    desc_path = args.desc or args.out + ".json"
    with open(desc_path, "w") as fh:
        json.dump(desc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(stream)} ops to {args.out}, descriptor to {desc_path}")
    return 0


def _cmd_verify_hard(args) -> int:
    with open(args.instance) as fh:
        desc = json.load(fh)
    family = desc.get("family") if isinstance(desc, dict) else None
    if family == "bipartite":
        hard_bipartite.verify_bipartite(
            hard_bipartite.bipartite_from_descriptor(desc))
    elif family == "tree":
        hard_tree.verify_tree(*hard_tree.tree_from_descriptor(desc))
    else:
        raise ValueError("descriptor is not a JSON object of family "
                         "bipartite or tree")
    print("all instance invariants hold")
    return 0


def _cmd_bench(args, parse) -> int:
    """`parse(flag)` parses the bench command line with one more flag."""
    key, _, vals = args.sweep.partition("=")
    if not vals:
        raise ValueError("bench: --sweep needs key=v1,v2,...")
    parsed = [(val, parse(f"--{key}={val}")) for val in vals.split(",")]
    # every run's parameters and inputs are checked before the first run
    runs = [(val, run_args, _load_run(run_args)) for val, run_args in parsed]
    for val, run_args, loaded in runs:
        print(f"--- {key} = {val} ---")
        _cmd_run(run_args, loaded)
    return 0


def _add_run_flags(p):
    p.add_argument("--algo", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--stream")
    p.add_argument("--matroid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--opt", dest="opt_value", type=float, metavar="OPT")
    p.add_argument("--opt-mode", dest="opt_mode", choices=OPT_MODES)
    p.add_argument("--mode", choices=["guided", "exhaustive"])
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int)


def _parsers():
    """The dynsub parser, and the one that finds a run's --config file."""
    # no prefix matching, so a config or sweep key is a flag's exact name
    config = _Parser(prog="dynsub", add_help=False, allow_abbrev=False)
    config.add_argument("--config")
    parser = _Parser(prog="dynsub")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", parents=[config], allow_abbrev=False,
                           help="replay a stream through an algorithm")
    _add_run_flags(p_run)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")

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

    p_bench = sub.add_parser("bench", parents=[config], allow_abbrev=False,
                             help="sweep one run parameter")
    _add_run_flags(p_bench)
    p_bench.add_argument("--sweep", required=True)
    p_bench.set_defaults(out=None)  # sweep runs print their records
    return parser, config


def _with_config(argv: list, config) -> list:
    """argv with the `key = value` lines of a run's --config file put
    in front of the command's flags as `--key=value`, so flags given on
    the command line override the file."""
    if argv[:1] not in (["run"], ["bench"]):
        return argv
    path = config.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    return (argv[:1] + [f"--{k}={v}" for k, v in parse_config(path).items()]
            + argv[1:])


def main(argv=None) -> int:
    parser, config = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)

    def parse(*extra):
        return parser.parse_args(_with_config(argv + list(extra), config))

    try:
        args = parse()
        if args.cmd == "run":
            return _cmd_run(args, _load_run(args))
        if args.cmd == "gen-stream":
            return _cmd_gen_stream(args)
        if args.cmd == "verify-hard":
            return _cmd_verify_hard(args)
        return _cmd_bench(args, parse)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
