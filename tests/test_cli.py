"""CLI surface: subcommands run, write the pinned schemas, and fail cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_memory_lab
from sparse_memory_lab.cli import cli_main


def read_header(path):
    return path.read_text().splitlines()[0]


def test_train_subcommand_runs_and_writes(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("model.d = 16\nmodel.vocab = 32\nmodel.seq_len = 8\n"
                   "training.steps = 6\nio.checkpoint_interval = 3\n")
    out = tmp_path / "run"
    code = cli_main(["train", "--config", str(cfg), "--seed", "1", "--out", str(out)])
    assert code == 0
    assert read_header(out / "metrics.csv") == \
        "step,train_loss,eval_loss,eval_accuracy,embedding_params,non_embedding_params"
    assert (out / "checkpoint.smlb").exists()
    assert "eval loss" in capsys.readouterr().out


def test_train_config_overrides(tmp_path):
    out = tmp_path / "run"
    code = cli_main(["train", "--model.d", "16", "--model.vocab", "16",
                     "--model.seq_len", "4", "--training.steps", "4",
                     "--io.checkpoint_interval", "2", "--out", str(out), "--seed", "0"])
    assert code == 0
    cfg_text = (out / "config.txt").read_text()
    assert "model.d = 16" in cfg_text
    assert "training.seed = 0" in cfg_text


def test_train_missing_config_is_error(tmp_path, capsys):
    code = cli_main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert code != 0
    assert "not found" in capsys.readouterr().err


def test_lshsim_schema_and_output(tmp_path, capsys):
    out = tmp_path / "sim"
    code = cli_main(["lshsim", "--f", "0.5", "--n", "64", "--l", "8", "--d", "8",
                     "--trials", "500", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert read_header(out / "lshsim.csv") == "family,f,n,l,d,trials,p_hat,stderr,rho_hat"
    lines = (out / "lshsim.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + one row per family


def test_lshsim_writes_a_speed_sidecar_outside_the_csv(tmp_path):
    args = ["lshsim", "--f", "0.5", "--n", "64", "--l", "8", "--d", "8",
            "--trials", "300", "--seed", "2"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(args + ["--out", str(out)]) == 0
    assert (outs[0] / "lshsim.csv").read_bytes() == (outs[1] / "lshsim.csv").read_bytes()
    speed = dict(line.split() for line in (outs[0] / "speed.txt").read_text().splitlines())
    assert set(speed) == {"grid_seconds", "trials_per_sec"}
    assert float(speed["grid_seconds"]) >= 0.0
    assert float(speed["trials_per_sec"]) > 0.0


def test_lshsim_single_family(tmp_path):
    out = tmp_path / "sim"
    code = cli_main(["lshsim", "--family", "minhash", "--f", "0.5,1.0", "--n", "16",
                     "--l", "8", "--d", "4", "--trials", "200", "--seed", "0",
                     "--out", str(out)])
    assert code == 0
    lines = (out / "lshsim.csv").read_text().splitlines()
    assert len(lines) == 3


def test_route_bench_runs(tmp_path):
    out = tmp_path / "bench"
    code = cli_main(["route-bench", "--model.d", "16", "--model.vocab", "16",
                     "--model.seq_len", "4", "--training.steps", "3",
                     "--io.checkpoint_interval", "3",
                     "--lookup", "softmax", "--ranks", "0,2", "--buckets", "4",
                     "--out", str(out), "--seed", "0"])
    assert code == 0
    header = read_header(out / "route_bench.csv")
    assert header.startswith("lookup,rank,buckets,added_params")
    assert len((out / "route_bench.csv").read_text().splitlines()) == 3


def test_route_bench_without_a_lookup_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "bench"
    code = cli_main(["route-bench", "--lookup", "none", "--ranks", "4", "--buckets", "8",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: route-bench needs a lookup")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["theorem2", "--seeds", "0"], "need at least one seed"),
    (["theorem2", "--d", "0"], "all sizes must be positive"),
    (["gradcheck", "--epsilon", "0"], "epsilon must be positive"),
    # the first cell is valid; the second fails validate() before any cell runs
    (["route-bench", "--lookup", "token_id", "--ranks", "0", "--buckets", "1,8"],
     "token_id lookup requires memory.buckets equal to the vocabulary size (64) or left "
     "at the default 1"),
    # NaN compares false with everything, so it once passed for a positive epsilon
    (["gradcheck", "--epsilon", "nan"], "epsilon must be positive"),
    (["gradcheck", "--epsilon", "inf"], "epsilon must be finite"),
    (["gradcheck", "--tolerance", "nan"], "tolerance must be positive"),
    (["train", "--seed", "-1"], "training.seed must be non-negative, got -1"),
])
def test_failed_run_is_a_clean_error_and_leaves_no_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = cli_main([*argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_theorem2_subcommand(tmp_path):
    out = tmp_path / "sep"
    code = cli_main(["theorem2", "--d", "8", "--u-count", "8", "--depth", "1",
                     "--steps", "30", "--train-size", "128", "--seeds", "1",
                     "--out", str(out)])
    assert code == 0
    assert read_header(out / "separation.csv") == \
        "architecture,width,seed,train_mse,test_mse,target_variance"


def test_unknown_subcommand_nonzero(capsys):
    assert cli_main(["frobnicate"]) != 0


def test_unknown_flag_nonzero():
    assert cli_main(["lshsim", "--bogus", "1"]) != 0


def test_bad_family_reports_error(tmp_path, capsys):
    code = cli_main(["lshsim", "--family", "nope", "--trials", "10",
                     "--out", str(tmp_path)])
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--f", "1.5")])
def test_out_of_range_lshsim_input_is_a_clean_error(tmp_path, capsys, flag, value):
    code = cli_main(["lshsim", flag, value, "--trials", "10", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "lshsim.csv").exists()


def test_hyperplane_at_d_1_is_a_clean_error(tmp_path, capsys):
    # a unit embedding at d = 1 is +-1, so a sentence sum can be 0 and its cosine NaN
    code = cli_main(["lshsim", "--family", "hyperplane", "--d", "1", "--trials", "10",
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: hyperplane simulation needs d >= 2\n"
    assert not (tmp_path / "lshsim.csv").exists()


def test_divergence_is_a_clean_error(tmp_path):
    src = str(Path(sparse_memory_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "sparse_memory_lab", "train",
         "--training.learning_rate", "1e30", "--training.steps", "20",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: training diverged at step ")
    assert "non-finite value" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["lshsim", "--f", ""], "--f"),
    (["lshsim", "--n", " ,"], "--n"),
    (["route-bench", "--ranks", ""], "--ranks"),
])
def test_empty_list_flag_is_a_clean_error(tmp_path, capsys, argv, flag):
    code = cli_main([*argv, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} needs at least one value\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["lshsim", "--n", "16,16"], "--n repeats the value 16"),
    (["lshsim", "--f", "0.5,0.25,0.50"], "--f repeats the value 0.50"),
    (["route-bench", "--ranks", "1,1"], "--ranks repeats the value 1"),
    (["route-bench", "--ranks", "0", "--buckets", "8,4,8"], "--buckets repeats the value 8"),
    (["lshsim", "--n", "1e3"], "--n takes comma-separated int values, got '1e3'"),
    (["lshsim", "--f", "0.5, half"], "--f takes comma-separated float values, got 'half'"),
    (["route-bench", "--ranks", "4,x"], "--ranks takes comma-separated int values, got 'x'"),
])
def test_repeated_or_malformed_list_value_is_a_clean_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = cli_main([*argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
