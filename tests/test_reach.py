"""src/dynsub holds no function that only tests reach.

The library keeps what its two programs run: the `dynsub` CLI and the
benchmark in perfbench/.  This test runs both in-process under
sys.setprofile:
- every `dynsub` command in README.md, in order;
- one run for each input path the README names but does not show;
- perfbench/run.py's `main` at `--size smoke --seconds 0` on each
  workload.
It then fails, naming every function an AST walk of src/dynsub finds
that no run entered.  A deliberate test oracle that stays in the library
goes in ALLOWED.
"""

import ast
import importlib.util
import json
import os
import re
import shlex
import sys
from pathlib import Path

import dynsub
from dynsub.cli import main
from dynsub.matroids import PartitionMatroid
from dynsub.objectives import random_coverage
from dynsub.streams import Stream
from oracles import dump_coverage, dump_partition

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(dynsub.__file__).resolve().parent
PERFBENCH = ROOT / "perfbench"
# "module.py:Qualname" of the deliberate test oracles kept in src/dynsub
ALLOWED: frozenset = frozenset()

RUN = ["run", "--algo", "card-ladder", "--k", "2", "--epsilon", "0.3"]
HALF = ["run", "--algo", "matroid-half", "--oracle", "random:6:5:0",
        "--matroid", "uniform:1", "--k", "1", "--epsilon", "0.5",
        "--opt", "3"]
# (argv, exit code): the input paths the README names but does not
# show, run after the README's commands have written their files
INPUT_PATHS = [
    (["verify-hard", "--instance", "t.stream.json"], 0),
    (RUN + ["--oracle", "random:8:6:0", "--stream", "some.stream"], 0),
    (RUN + ["--oracle", "cover.txt"], 0),
    (["run", "--config", "run.cfg"], 0),
    (RUN + ["--oracle", "random:8:6:0", "--format", "json",
            "--out", "r.json"], 0),
    (RUN + ["--oracle", "random:8:6:0", "--opt-mode", "greedy-bound"], 0),
    (HALF + ["--mode", "exhaustive"], 0),
    (["run", "--algo", "matroid-half", "--oracle", "random:12:8:1",
      "--matroid", "blocks.matroid", "--k", "3", "--epsilon", "0.33",
      "--opt", "6.0"], 0),
    (RUN + ["--oracle", "random:8:6:0", "--k", "x"], 1),
]


def defined_functions() -> dict:
    """(file, first line) -> "module.py:Qualname" of every function
    defined in src/dynsub, methods and nested functions included.  The
    first line is a decorated function's first decorator, as in its
    code object's co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.name}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def readme_commands() -> list:
    """The arguments of every `dynsub` command in README.md's sh blocks."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["dynsub"]:
                commands.append(argv[1:])
    return commands


def write_inputs() -> None:
    """The files the runs read, in the working directory."""
    # a partition file, which the README names but does not show
    dump_partition(PartitionMatroid({e: e % 3 for e in range(12)},
                                    {0: 1, 1: 1, 2: 1}), "blocks.matroid")
    Stream.inserts([5, 3, 7, 0]).dump("some.stream")
    dump_coverage(random_coverage(8, 6, seed=2, weighted=True), "cover.txt")
    Path("run.cfg").write_text("algo = card-ladder\noracle = random:6:5:1\n"
                               "k = 2\nepsilon = 0.5\n")


def perfbench_main():
    """perfbench/run.py's main, imported from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_every_library_function_is_reached(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracer
    write_inputs()
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "gen-stream",
                                              "verify-hard", "bench"}
    bench = perfbench_main()
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(argv, main(argv), 0) for argv in commands]
        codes += [(argv, main(argv), code) for argv, code in INPUT_PATHS]
        codes += [(w, bench(["--workload", w, "--seed", "1", "--size",
                             "smoke", "--seconds", "0"]), 0)
                  for w in workloads]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert [(run, got) for run, got, want in codes if got != want] == []

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno)
               for c in entered}
    missed = sorted(name for key, name in defined_functions().items()
                    if key not in reached and name not in ALLOWED)
    assert missed == [], ("no run entered these functions; move them to "
                          f"tests/oracles.py or delete them: {missed}")
