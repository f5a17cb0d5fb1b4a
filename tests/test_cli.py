import json
from pathlib import Path

import pytest

from dynsub.cli import main
from dynsub.harness import load_report_json


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
    (BENCH + ["--sweep", "oracle=random:6:5:0,no-such-file"], "no-such-file"),
])
def test_bad_run_parameters_exit_1(argv, needle, capsys):
    # refused before any run starts
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert needle in captured.err


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


def test_run_rejects_stream_ids_outside_oracle(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("stream v1\nI 3\nI 99\nI 1\nI 42\n")
    assert main(["run", "--algo", "card-ladder", "--oracle", "random:20:30:1",
                 "--opt-mode", "greedy-bound", "--k", "2",
                 "--epsilon", "0.25", "--stream", str(stream)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[42, 99]" in err


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


def test_verify_descriptor_missing_keys(tmp_path, capsys):
    desc = tmp_path / "bip.json"
    desc.write_text('{"family": "bipartite"}')
    assert main(["verify-hard", "--instance", str(desc)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'m'" in err
