import csv
import json

import pytest

from swan_aircomp.cli import main

FAST = [
    "--sweep", "2,3", "--drops", "2", "--m", "2", "--seg-length", "1",
    "--d-x", "12", "--q", "25", "--schemes", "SS,PASS", "--quiet",
]


def run(tmp_path, name, *extra, cmd="sweep-k"):
    out = tmp_path / name
    code = main([cmd, "--out-dir", str(out), *FAST, *extra])
    return code, out


def test_happy_path_writes_all_outputs(tmp_path):
    code, out = run(tmp_path, "out")
    assert code == 0
    for name in ("results.csv", "aggregates.csv", "plot.svg", "metadata.json"):
        assert (out / name).is_file()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["sweep-k", "--nope"]) == 1
    assert main(["sweep-k", "--drops", "many"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"qgrid": 5}))
    assert main(["sweep-k", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    code = main(["sweep-k", "--out-dir", str(blocker), *FAST])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "r1", "--seed", "11")
    _, out2 = run(tmp_path, "r2", "--seed", "11")
    for name in ("results.csv", "aggregates.csv", "plot.svg", "metadata.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_timing_flag_adds_elapsed_column(tmp_path):
    _, plain = run(tmp_path, "plain")
    _, timed = run(tmp_path, "timed", "--timing")
    with open(plain / "results.csv", newline="") as f:
        assert "elapsed" not in csv.DictReader(f).fieldnames
    with open(timed / "results.csv", newline="") as f:
        assert "elapsed" in csv.DictReader(f).fieldnames


def test_config_file_and_flags_reach_metadata(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"q_grid": 25, "n_drops": 2}))
    out = tmp_path / "out"
    code = main([
        "sweep-m", "--config", str(cfg), "--out-dir", str(out),
        "--sweep", "1,2", "--k", "2", "--seg-length", "1", "--d-x", "12",
        "--schemes", "SS", "--seed", "17", "--quiet",
    ])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["spec"]["kind"] == "sweep-m-fixed-L"
    assert meta["spec"]["q_grid"] == 25
    assert meta["spec"]["n_drops"] == 2
    assert meta["spec"]["master_seed"] == 17


def _rejected_before_work(tmp_path, capsys, cmd, *flags):
    """A bad value exits 1 with a config error and writes no output at all."""
    out = tmp_path / "out"
    code = main([cmd, "--out-dir", str(out), "--drops", "1", "--quiet", *flags])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_nan_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--kappa", "nan")


def test_infinite_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--kappa", "0,inf")


def test_nan_design_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--design-kappa", "nan")


def test_fractional_segment_count_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-m", "--sweep", "2.5")


def test_zero_user_count_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--sweep", "0")


def test_negative_segment_length_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--seg-length", "-1")


@pytest.mark.parametrize("cmd", ["convergence", "oracle-check"])
@pytest.mark.parametrize(
    "flags", [("--restarts", "1"), ("--design-kappa", "0"), ("--sweep", "5,6")]
)
def test_single_cell_kinds_reject_restarts_design_kappa_and_sweeps(tmp_path, capsys, cmd, flags):
    _rejected_before_work(tmp_path, capsys, cmd, *flags)


def test_json_boolean_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kappa_db_per_m": [True]}))
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--config", str(cfg))


@pytest.mark.parametrize(
    "values",
    [
        {"q_grid": 2.7},
        {"n_drops": 1.9},
        {"master_seed": 3.5},
        {"n_drops": float("inf")},
        {"theta_grid": 0},
        {"theta_grid": -5},
        {"max_iters": 0},
        {"max_iters": -1},
        {"tol": float("nan")},
        {"tol": -1e-3},
    ],
)
def test_bad_integer_and_loop_fields_are_config_errors(tmp_path, capsys, values):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    _rejected_before_work(tmp_path, capsys, "oracle-check", "--config", str(cfg))
