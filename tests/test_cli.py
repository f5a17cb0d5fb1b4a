import json
import time
from pathlib import Path

import pytest

from dynsub.cli import main
from dynsub.streams import Stream
from oracles import load_report_json


def test_gen_then_verify_bipartite(tmp_path, capsys):
    out = str(tmp_path / "bip.stream")
    assert main(["gen-stream", "--family", "bipartite", "--m", "3",
                 "--k", "4", "--w", "2", "--eps", "0.33",
                 "--seed", "3", "--out", out]) == 0
    assert main(["verify-hard", "--instance", out + ".json"]) == 0
    assert "invariants hold" in capsys.readouterr().out


def test_gen_then_verify_tree(tmp_path, capsys):
    out = str(tmp_path / "tree.stream")
    assert main(["gen-stream", "--family", "tree", "--k", "4",
                 "--eps", "0.5", "--arities", "2,1", "--d", "2",
                 "--seed", "1", "--out", out]) == 0
    assert main(["verify-hard", "--instance", out + ".json"]) == 0
    assert "invariants hold" in capsys.readouterr().out


def test_verify_corrupted_descriptor(tmp_path, capsys):
    out = str(tmp_path / "bip.stream")
    main(["gen-stream", "--family", "bipartite", "--m", "2", "--k", "4",
          "--w", "2", "--eps", "0.33", "--out", out])
    desc = json.loads(Path(out + ".json").read_text())
    keys = sorted(desc["slots"])
    desc["slots"][keys[0]], desc["slots"][keys[1]] = \
        desc["slots"][keys[1]], desc["slots"][keys[0]]
    with open(out + ".json", "w") as fh:
        json.dump(desc, fh)
    assert main(["verify-hard", "--instance", out + ".json"]) == 2
    assert "invariant violation" in capsys.readouterr().err


def _tree_desc(tmp_path):
    out = str(tmp_path / "tree.stream")
    assert main(["gen-stream", "--family", "tree", "--k", "4",
                 "--eps", "0.5", "--arities", "2,1", "--out", out]) == 0
    return json.loads(Path(out + ".json").read_text())


def _swap_root(pi):
    return dict(pi, **{"[]": {"1": pi["[]"]["2"], "2": pi["[]"]["1"]}})


@pytest.mark.parametrize("tamper, code, needle", [
    (lambda d: [], 1, "not a JSON object"),
    (lambda d: dict(d, pi="x"), 1, "'pi' is 'x'"),
    (lambda d: dict(d, pi=dict(d["pi"], **{"[]": {"1": 1, "2": 1}})), 1,
     "not a permutation"),
    (lambda d: dict(d, pi=_swap_root(d["pi"])), 2, "does not match its seed"),
    (lambda d: dict(d, pi=dict(d["pi"], **{"[1, 1]": {}})), 1,
     "not an internal node"),
    (lambda d: dict(d, pi=dict(d["pi"], **{"[3]": {"1": 1}})), 1,
     "not an internal node"),
])
def test_verify_malformed_tree_descriptor(tamper, code, needle, tmp_path,
                                          capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tamper(_tree_desc(tmp_path))))
    capsys.readouterr()
    assert main(["verify-hard", "--instance", str(path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert needle in err


def test_verify_mistyped_bipartite_field(tmp_path, capsys):
    out = str(tmp_path / "bip.stream")
    main(["gen-stream", "--family", "bipartite", "--m", "2", "--k", "4",
          "--w", "2", "--eps", "0.33", "--out", out])
    desc = json.loads(Path(out + ".json").read_text())
    with open(out + ".json", "w") as fh:
        json.dump(dict(desc, m="x"), fh)
    capsys.readouterr()
    assert main(["verify-hard", "--instance", out + ".json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'m' is 'x'" in err


@pytest.mark.parametrize("flags, needle", [
    (["--family", "bipartite", "--beta", "1.5"], "beta must be in (0, 1)"),
    (["--family", "bipartite", "--beta", "-0.5"], "beta must be in (0, 1)"),
    (["--family", "bipartite", "--m", "0"], "m must be >= 1"),
    (["--family", "tree", "--arities", "2,x"], "bad --arities '2,x'"),
    (["--family", "bipartite", "--eps", "0.1"],
     "eps must be above sqrt(1/90) ~ 0.1054"),
    (["--family", "bipartite", "--alpha", "nan"],
     "part_alpha must be in (0, 1)"),
    (["--family", "tree", "--k", "9", "--eps", "0.3333333333333333",
      "--arities", "3,2,1", "--d", "2", "--m", "7", "--alpha", "0.9",
      "--w", "5"], "--family tree takes no --m"),
    (["--family", "tree", "--beta", "0.3"], "--family tree takes no --beta"),
    (["--family", "bipartite", "--arities", "1,2", "--d", "3"],
     "--family bipartite takes no --arities"),
    (["--family", "bipartite", "--d", "3"], "--family bipartite takes no --d"),
])
def test_gen_stream_refuses_bad_parameters(flags, needle, tmp_path, capsys):
    out = tmp_path / "bad.stream"
    assert main(["gen-stream", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err
    assert not out.exists()


@pytest.mark.parametrize("field, value, needle", [
    ("beta", 1.5, "beta must be in (0, 1)"),
    ("beta", -0.5, "beta must be in (0, 1)"),
    ("m", 0, "m must be >= 1"),
])
def test_verify_refuses_an_out_of_range_bipartite_field(field, value, needle,
                                                        tmp_path, capsys):
    out = str(tmp_path / "bip.stream")
    assert main(["gen-stream", "--family", "bipartite", "--out", out]) == 0
    desc = json.loads(Path(out + ".json").read_text())
    Path(out + ".json").write_text(json.dumps(dict(desc, **{field: value})))
    capsys.readouterr()
    assert main(["verify-hard", "--instance", out + ".json"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv, needle", [
    (["gen-stream", "--family", "tree", "--k", "2000000000"],
     "4000000000 elements exceed cap 1000000"),
    (["gen-stream", "--family", "bipartite", "--m", "10000000"],
     "80000000 elements exceed cap 1000000"),
    ({"family": "tree", "seed": 0, "k": 2000000000, "eps": 0.5,
      "arities": [2, 1], "d": 1, "pi": {}},
     "4000000000 elements exceed cap 1000000"),
    ({"family": "bipartite", "seed": 0, "m": 10000000, "k": 4, "w": 2,
      "eps": 0.33, "part_alpha": 0.5, "beta": 0.42, "pi": {}, "slots": {}},
     "80000000 elements exceed cap 1000000"),
])
def test_a_huge_hard_instance_is_refused_before_it_is_built(argv, needle,
                                                            tmp_path, capsys):
    # gen-stream flags, or a ten-line descriptor, that name tens of
    # millions of elements exit 1 without building any of them
    out = tmp_path / "huge.stream"
    if isinstance(argv, dict):
        out.write_text(json.dumps(argv))
        argv = ["verify-hard", "--instance", str(out)]
    else:
        argv = argv + ["--out", str(out)]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["run", "--oracle", "random:6:5:0"]) == 1
    assert main(["run", "--algo", "card-ladder", "--k", "2",
                 "--epsilon", "0.25"]) == 1
    capsys.readouterr()


def test_run_writes_report(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:8:6:0",
                 "--k", "2", "--epsilon", "0.25", "--format", "json",
                 "--out", out]) == 0
    records = load_report_json(out)
    assert len(records) == 8
    assert all(r.ratio <= 1.0 + 1e-9 for r in records)
    capsys.readouterr()


def test_run_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("algo = card-ladder\nk = 2\nepsilon = 0.5\n"
                   "oracle = random:6:5:1\n")
    out = str(tmp_path / "r.csv")
    assert main(["run", "--config", str(cfg), "--epsilon", "0.25",
                 "--out", out]) == 0
    text = Path(out).read_text()
    assert "# epsilon = 0.25" in text
    capsys.readouterr()


def test_run_report_header_names_the_seed_only_in_the_oracle(tmp_path,
                                                            capsys):
    out = tmp_path / "r.csv"
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:6:5:3",
                 "--k", "2", "--epsilon", "0.5", "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines()
              if line.startswith("#")]
    assert "# oracle = random:6:5:3" in header
    assert not [line for line in header if "seed" in line]
    capsys.readouterr()


def test_run_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("algo = card-ladder\nk = 2\nepsilon = 0.5\n"
                   "oracle = random:6:5:1\nepsilom = 0.25\n")
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--epsilom=0.25" in captured.err


BENCH = ["bench", "--algo", "card-ladder", "--oracle", "random:6:5:0",
         "--k", "2", "--epsilon", "0.5"]
RUN = ["run", "--algo", "card-ladder", "--oracle", "random:6:5:0"]
HALF = ["run", "--algo", "matroid-half", "--oracle", "random:6:5:0"]


@pytest.mark.parametrize("argv, needle", [
    (["run", "--algo", "card-ladder", "--oracle", "random:6:5:0",
      "--k", "abc", "--epsilon", "0.5"], "invalid int value: 'abc'"),
    (BENCH + ["--sweep", "foo=1,2"], "--foo=1"),
    (BENCH + ["--sweep", "epsilo=0.1,0.2"], "--epsilo=0.1"),
    (BENCH + ["--sweep", "opt-mode=bogus"], "invalid choice: 'bogus'"),
    (BENCH + ["--sweep", "k=1,x"], "invalid int value: 'x'"),
    (RUN + ["--k", "2", "--epsilon", "0"], "epsilon must be > 0"),
    (RUN + ["--k", "0", "--epsilon", "0.5"], "k must be >= 1"),
    (RUN + ["--k", "2", "--epsilon", "0.5", "--window=-1"],
     "unrecognized arguments: --window=-1"),
    (HALF + ["--matroid", "uniform:1", "--k", "1", "--epsilon", "1",
             "--opt", "1"], "epsilon must be > 0"),
    (HALF + ["--matroid", "uniform:1", "--k", "1", "--epsilon", "2",
             "--opt", "1"], "epsilon must be > 0"),
    (HALF + ["--matroid", "uniform:2", "--k", "2", "--epsilon", "0.5",
             "--opt", "0"], "0 < opt < inf"),
    (HALF + ["--matroid", "uniform:2", "--k", "2", "--epsilon", "0.5",
             "--opt", "inf"], "opt_value must be finite"),
    (HALF + ["--matroid", "uniform:2", "--k", "2", "--epsilon", "0.5",
             "--opt", "nan"], "opt_value must be finite"),
    (RUN + ["--k", "2", "--epsilon", "0.5", "--opt-mode", "known",
            "--opt", "-1"], "opt_value must be finite and >= 0"),
    (RUN + ["--k", "2", "--epsilon", "nan"], "epsilon must be > 0"),
    (BENCH + ["--sweep", "k=2,0"], "k must be >= 1"),
    (BENCH + ["--sweep", "algo=card-ladder,bogus"], "unknown algorithm"),
    (BENCH + ["--sweep", "checkpoint=at-end,every-n:0"], "n >= 1"),
    (BENCH + ["--sweep", "oracle=random:6:5:0,no-such-file"], "no-such-file"),    (RUN + ["--k", "2", "--epsilon", "0.5", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (BENCH + ["--seed", "3", "--sweep", "k=1,2"],
     "unrecognized arguments: --seed 3"),
    (RUN + ["--oracle", "random:-1:5:0", "--k", "2", "--epsilon", "0.5"],
     "bad oracle spec 'random:-1:5:0': n_elements must be >= 1"),
    (RUN + ["--oracle", "random:0:5:0", "--k", "2", "--epsilon", "0.5"],
     "bad oracle spec 'random:0:5:0': n_elements must be >= 1"),
    (RUN + ["--oracle", "random:4:0:0", "--k", "2", "--epsilon", "0.5"],
     "bad oracle spec 'random:4:0:0': n_items must be >= 1"),
    # just over cardinality.MAX_BUCKETS: the ladder's first insert would
    # build 2,714 engines of 385 buckets, the engine 1,000,001 buckets
    (RUN + ["--k", "3", "--epsilon", "0.0026"],
     "2714 engine(s) of 385 buckets at epsilon 0.0026 make 1,044,890 "
     "bucket sets, over the cap of 1,000,000"),
    (["run", "--algo", "card", "--oracle", "random:6:5:0", "--k", "2",
      "--epsilon", "1e-6", "--opt", "5"], "make 1,000,001 bucket sets"),
])
def test_bad_run_parameters_exit_1(argv, needle, capsys):
    # refused before any run starts
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert needle in captured.err


HALF_BENCH = ["bench", "--algo", "matroid-half", "--oracle", "random:6:5:0",
              "--matroid", "uniform:2", "--k", "2", "--epsilon", "0.33"]


@pytest.mark.parametrize("argv, needle", [
    (BENCH + ["--sweep", "algo=card-ladder,card"], "algo card needs"),
    (BENCH + ["--sweep", "algo=card-ladder,matroid-half"], "needs a matroid"),
    (HALF_BENCH + ["--k", "3", "--opt", "5",
                   "--sweep", "mode=guided,exhaustive"], "branch tuples"),
    (["bench", "--algo", "card", "--oracle", "random:6:5:0", "--k", "2",
      "--epsilon", "0.5", "--sweep", "opt=5,0"], "0 < opt < inf"),
    (HALF_BENCH + ["--sweep", "opt=5,0"], "0 < opt < inf"),
    (BENCH + ["--k", "3", "--sweep", "epsilon=0.5,0.0026"],
     "make 1,044,890 bucket sets"),
])
def test_bench_refuses_an_algorithm_input_before_the_first_run(argv, needle,
                                                               capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert needle in err


def test_run_refuses_a_matroid_for_the_ladder(capsys):
    # the ladder runs under |S| <= k, so a probe under the matroid would
    # measure it against another constraint's optimum
    assert main(RUN + ["--k", "2", "--epsilon", "0.3", "--matroid",
                       "uniform:1", "--checkpoint", "at-end"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "card-ladder takes no matroid" in err


@pytest.mark.parametrize("extra, needle", [
    (["--mode", "exhaustive"], "algo card-ladder has no mode exhaustive"),
    (["--opt", "3"], "ignores opt_value unless opt_mode is known"),
    (["--mode", "exhaustive", "--opt", "3"], "has no mode exhaustive"),
    (["--opt-mode", "greedy-bound", "--opt", "3"], "got greedy-bound"),
    (["--algo", "card", "--opt", "3", "--mode", "exhaustive"],
     "algo card has no mode exhaustive; only matroid-half has one"),
])
def test_run_refuses_a_flag_the_algorithm_would_ignore(extra, needle, capsys):
    # a repeated --algo overrides the card-ladder of RUN
    assert main(RUN + ["--k", "2", "--epsilon", "0.3", "--checkpoint",
                       "at-end"] + extra) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert needle in err


def test_run_ladder_takes_opt_with_opt_mode_known(capsys):
    # five items, so 5 bounds OPT
    assert main(RUN + ["--k", "2", "--epsilon", "0.3", "--opt-mode", "known",
                       "--opt", "5", "--mode", "guided", "--checkpoint",
                       "at-end"]) == 0
    assert "opt=5 " in capsys.readouterr().out


@pytest.mark.parametrize("line", ["b a cap x", "e y block 0", "e 0 blok 0",
                                  "b 0 cap 5"])
def test_run_names_a_bad_partition_line(tmp_path, capsys, line):
    part = tmp_path / "part.matroid"
    part.write_text(f"partition\nb 0 cap 2\n{line}\n")
    assert main(HALF + ["--matroid", str(part), "--k", "2", "--epsilon", "0.3",
                        "--opt", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert str(part) in err and f"line 3: {line!r}" in err


def test_run_refuses_a_second_line_for_a_partition_element(tmp_path, capsys):
    part = tmp_path / "part.matroid"
    part.write_text("partition\nb A cap 1\nb B cap 1\ne 0 block A\n"
                    "e 0 block B\n")
    assert main(HALF + ["--matroid", str(part), "--k", "2", "--epsilon", "0.3",
                        "--opt", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert str(part) in err and "line 5: 'e 0 block B'" in err


@pytest.mark.parametrize("text, bad", [
    ("coverage 1 1\nw a inf\ne 0 : a\n", "line 2: 'w a inf'"),
    ("coverage 1 1\nw a nan\ne 0 : a\n", "line 2: 'w a nan'"),
    ("coverage 1 1\nw a heavy\ne 0 : a\n", "line 2: 'w a heavy'"),
    ("coverage 1 1\nw a 1\nw a 5\ne 0 : a\n", "line 3: 'w a 5'"),
    ("coverage 1 1\ne x : a\n", "line 2: 'e x : a'"),
    ("coverage 1 2\ne 0 : a\ne 0 : b\n", "line 3: 'e 0 : b'"),
    ("coverage 5 3\ne 0 : a\n",
     "line 1: 'coverage 5 3', but the file has 1 elements and 1 items"),
])
def test_run_names_a_bad_coverage_line(tmp_path, capsys, text, bad):
    cov = tmp_path / "cov.txt"
    cov.write_text(text)
    assert main(RUN + ["--oracle", str(cov), "--k", "2", "--epsilon",
                       "0.3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert str(cov) in err and bad in err


OVERFLOWING = "coverage 2 2\nw a 1e308\nw b 1e308\ne 0 : a\ne 1 : b\n"
HUGE = "coverage 2 2\nw a 1e300\nw b 1.7e308\ne 0 : a\ne 1 : b\n"
# added left to right the total rounds back to the float maximum; the
# exact total is past it
NEAR_MAX = ("coverage 3 3\nw a 1.7976931348623157e308\nw b 0.9e292\n"
            "w c 0.9e292\ne 0 : a\ne 1 : b\ne 2 : c\n")


@pytest.mark.parametrize("text, algo, needle", [
    (OVERFLOWING, ["--algo", "card", "--opt", "1e300"], "got total inf"),
    (OVERFLOWING, ["--algo", "card-ladder"], "got total inf"),
    (NEAR_MAX, ["--algo", "card-ladder"], "got total inf"),
    # the total is finite, but the ladder's targets above 1.7e308 are not
    (HUGE, ["--algo", "card-ladder"],
     "singleton value 1.7e+308 puts the guess ladder's targets past"),
])
def test_run_refuses_weights_that_overflow(tmp_path, capsys, text, algo,
                                           needle):
    cov = tmp_path / "cov.txt"
    cov.write_text(text)
    assert main(["run", "--oracle", str(cov), "--k", "2", "--epsilon", "0.3"]
                + algo) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("spec", ["uniform:abc", "uniform:", "uniform:-1"])
def test_run_names_a_bad_uniform_spec(capsys, spec):
    assert main(HALF + ["--matroid", spec, "--k", "2", "--epsilon", "0.3",
                        "--opt", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert repr(spec) in err


def test_bench_sweep(capsys):
    assert main(["bench", "--algo", "card-ladder",
                 "--oracle", "random:6:5:0", "--k", "2", "--epsilon", "0.5",
                 "--sweep", "epsilon=0.5,0.25"]) == 0
    out = capsys.readouterr().out
    assert out.count("--- epsilon =") == 2


def test_run_matroid_half(tmp_path, capsys):
    blocks = tmp_path / "part.matroid"
    blocks.write_text("partition\nb 0 cap 1\nb 1 cap 1\n"
                      + "".join(f"e {e} block {e % 2}\n" for e in range(6)))
    assert main(["run", "--algo", "matroid-half", "--oracle", "random:6:5:2",
                 "--matroid", str(blocks), "--k", "2", "--epsilon", "0.33",
                 "--opt", "3.5", "--checkpoint", "at-end"]) == 0
    capsys.readouterr()


def test_readme_guided_matroid_half_example_final_line(capsys):
    # the README's guided example as written: the lazy L-pass settles
    # part of what it asked before, the replay rewinds to the accepts a
    # changed branch tuple agrees with, both keep their answers across
    # calls, and the output is unchanged
    assert main(["run", "--algo", "matroid-half", "--oracle", "random:12:8:1",
                 "--matroid", "uniform:3", "--k", "3", "--epsilon", "0.33",
                 "--opt", "6.0", "--mode", "guided"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "t=12 value=6 opt=7 ratio=0.8571 q_total=25"


def test_readme_exhaustive_matroid_half_example_final_line(capsys):
    # the README's matroid-half example at --epsilon 0.5 in exhaustive
    # mode: of its 3,876 branch states, extraction asks only the sets
    # that grew since the last checkpoint, each distinct set once
    assert main(["run", "--algo", "matroid-half", "--oracle", "random:12:8:1",
                 "--matroid", "uniform:3", "--k", "3", "--epsilon", "0.5",
                 "--opt", "6.0", "--mode", "exhaustive"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "t=12 value=6 opt=7 ratio=0.8571 q_total=47167"


def test_readme_card_ladder_example_final_line(capsys):
    # the README's first example with --opt-mode brute-force, printing
    # its records: engines that hold one set share its extraction query
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:20:12:0",
                 "--k", "3", "--epsilon", "0.25",
                 "--opt-mode", "brute-force"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "t=20 value=9 opt=11 ratio=0.8182 q_total=31"


def test_run_rejects_stream_ids_outside_oracle(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("stream v1\nI 3\nI 99\nI 1\nI 42\n")
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:20:30:1",
                 "--opt-mode", "greedy-bound", "--k", "2",
                 "--epsilon", "0.25", "--stream", str(stream)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[42, 99]" in err


def _two_id_matroid(tmp_path):
    part = tmp_path / "part.matroid"
    part.write_text("partition\nb 0 cap 1\ne 0 block 0\ne 1 block 0\n")
    return str(part)


def test_run_refuses_a_matroid_without_every_stream_id(tmp_path, capsys):
    part = _two_id_matroid(tmp_path)
    assert main(HALF + ["--matroid", part, "--k", "2", "--epsilon", "0.3",
                        "--opt", "100"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"matroid {part} has no block for stream ids [2, 3, 4, 5]" in err


def test_bench_refuses_a_matroid_without_every_stream_id(tmp_path, capsys):
    part = _two_id_matroid(tmp_path)
    assert main(["bench", "--algo", "matroid-half", "--oracle",
                 "random:6:5:0", "--k", "2", "--epsilon", "0.3", "--opt",
                 "100", "--sweep", f"matroid=uniform:2,{part}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"matroid {part} has no block" in err


@pytest.mark.parametrize("body, bad", [
    ("I 0 1\n", "2: 'I 0 1'"), ("I 0\nI\n", "3: 'I'"),
    ("I x\n", "2: 'I x'"), ("X 0\n", "2: 'X 0'")])
def test_run_refuses_a_malformed_stream_line(tmp_path, capsys, body, bad):
    stream = tmp_path / "s.txt"
    stream.write_text("stream v1\n" + body)
    assert main(RUN + ["--k", "2", "--epsilon", "0.5",
                       "--stream", str(stream)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad stream line {bad}\n"


@pytest.mark.parametrize("body, bad", [
    ("I 0\nI 1\nI 0\n", "4: duplicate insert of 0"),
    ("I 0\n\nD 0\n\nD 0\n", "6: delete of non-live 0")])
def test_run_refusal_names_the_stream_line(tmp_path, capsys, body, bad):
    # the refusal names the file line, blank lines counted
    stream = tmp_path / "s.txt"
    stream.write_text("stream v1\n" + body)
    assert main(RUN + ["--k", "2", "--epsilon", "0.5",
                       "--stream", str(stream)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: stream line {bad}\n"


@pytest.mark.parametrize("policy", ["every-n:0", "every-n:-3", "every-n:x"])
def test_run_rejects_bad_checkpoint(policy, capsys):
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:6:5:0",
                 "--k", "2", "--epsilon", "0.25",
                 "--checkpoint", policy]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert policy in err and "n >= 1" in err


MATROID_HALF = ["run", "--algo", "matroid-half", "--oracle", "random:8:10:1",
                "--matroid", "uniform:3", "--k", "3", "--epsilon", "0.33"]


@pytest.mark.parametrize("extra, code, needle", [
    (["--opt", "5", "--mode", "exhaustive"], 1, "73629072 branch tuples"),
    (["--opt", "0.01"], 2, "opt is likely mis-scaled"),
])
def test_run_matroid_half_typed_errors(extra, code, needle, capsys):
    assert main(MATROID_HALF + extra) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert needle in err


def test_run_rejects_stream_with_deletes(tmp_path, capsys):
    out = str(tmp_path / "bip.stream")
    assert main(["gen-stream", "--family", "bipartite", "--m", "2",
                 "--k", "4", "--w", "2", "--eps", "0.5", "--out", out]) == 0
    n = len(json.loads(Path(out + ".json").read_text())["slots"])
    capsys.readouterr()
    assert main(["run", "--algo", "card-ladder", "--oracle",
                 f"random:{n}:10:0", "--opt-mode", "greedy-bound",
                 "--k", "2", "--epsilon", "0.25", "--stream", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "insertion-only" in err


def test_bench_refuses_stream_with_deletes_before_first_run(tmp_path,
                                                              capsys):
    bip = str(tmp_path / "bip.stream")
    assert main(["gen-stream", "--family", "bipartite", "--m", "2",
                 "--k", "4", "--w", "2", "--eps", "0.5", "--out", bip]) == 0
    n = len(json.loads(Path(bip + ".json").read_text())["slots"])
    ins = str(tmp_path / "ins.stream")
    Stream.inserts(range(n)).dump(ins)
    capsys.readouterr()
    assert main(["bench", "--algo", "card-ladder", "--oracle",
                 f"random:{n}:10:0", "--opt-mode", "greedy-bound",
                 "--k", "2", "--epsilon", "0.25",
                 "--sweep", f"stream={ins},{bip}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "insertion-only" in err


def test_verify_descriptor_missing_keys(tmp_path, capsys):
    desc = tmp_path / "bip.json"
    desc.write_text('{"family": "bipartite"}')
    assert main(["verify-hard", "--instance", str(desc)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'m'" in err
