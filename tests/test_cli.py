import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swan_aircomp.cli import build_parser, main
from swan_aircomp.geometry import Scene, ServiceRegion, build_layout, sample_users
from swan_aircomp.harness import KINDS, ConfigError, ExperimentSpec, parse_config
from swan_aircomp.optimizers import random_init, sa1_ao, sa2_ao
from swan_aircomp.rng import derive_seed

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


def test_unwritable_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    """An output directory that cannot be made fails before any drop is drawn or run."""
    import swan_aircomp.harness as harness

    calls = []
    for name in ("sample_users", "ss_two_stage", "pass_baseline", "sa1_ao", "sa2_ao"):
        monkeypatch.setattr(harness, name, lambda *a, _name=name, **k: calls.append(_name))
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub"):
        code = main(["sweep-k", "--out-dir", str(out_dir), *FAST])
        assert code == 2
        assert "error" in capsys.readouterr().err
    assert calls == []


def test_a_log_scale_refused_by_the_plot_writes_no_output(tmp_path, capsys):
    """At 300 dBm every mean MSE is exactly 0, which a log axis cannot show:
    the run exits 2, and no CSV is left behind without its plot and metadata."""
    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps({"p_dbm": 300}))
    out = tmp_path / "out"
    code = main(["sweep-k", "--out-dir", str(out), "--config", str(hot), "--sweep", "1,2", "--m", "2",
                 "--q", "20", "--drops", "2", "--log-y", "--quiet"])
    assert code == 2
    assert "log scale impossible" in capsys.readouterr().err
    for name in ("results.csv", "aggregates.csv", "plot.svg", "metadata.json"):
        assert not (out / name).exists()


def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    """A run too large to allocate is a runtime failure (exit 2), not a traceback."""
    import swan_aircomp.cli as cli

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "execute", too_large)
    assert main(["sweep-k", "--out-dir", str(tmp_path / "out"), *FAST]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: Unable to allocate 8.00 EiB for an array"]


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


def test_convergence_timing_counts_each_run_once(tmp_path):
    """A convergence run's time is on its iteration-0 row; its later rows hold 0."""
    out = tmp_path / "conv"
    args = ["--drops", "2", "--q", "25", "--k", "3", "--m", "2", "--seg-length", "1",
            "--d-x", "12", "--kappa", "0,0.08", "--timing", "--quiet"]
    assert main(["convergence", "--out-dir", str(out), *args]) == 0
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    first = [r for r in rows if float(r["sweep_value"]) == 0.0]
    assert len(first) == 2 * 2 * 2 and len(rows) > len(first)
    assert all(float(r["elapsed"]) > 0.0 for r in first)
    assert all(float(r["elapsed"]) == 0.0 for r in rows if float(r["sweep_value"]) > 0.0)


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
    err = capsys.readouterr().err
    assert "config error" in err
    assert not out.exists()
    return err


def test_nan_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--kappa", "nan")


def test_infinite_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--kappa", "0,inf")


def test_nan_design_kappa_is_a_config_error(tmp_path, capsys):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--design-kappa", "nan")


def test_oracle_check_grid_over_the_oracles_cap_is_a_config_error(tmp_path, capsys):
    """(q + 1)^2 joint tuples: q = 1414 gives 2,002,225, over the 2,000,000 cap; 1413 is under."""
    err = _rejected_before_work(tmp_path, capsys, "oracle-check", "--q", "1414")
    assert "2002225" in err
    assert parse_config(kind="oracle-check", overrides={"q_grid": "1413"}).q_grid == 1413


def test_a_midpoint_start_closer_than_delta_min_is_a_config_error(tmp_path, capsys, monkeypatch):
    """Adjacent segment midpoints are seg_length apart; 1 mm is below delta_min (5.35 mm at 28 GHz).

    SA1 and SA2 would refuse that start once SS had run; the run is
    refused before any drop is drawn or optimizer called.  Without SA1 and
    SA2 the same scene is valid, and so is a sweep-m value of one 4 mm
    segment.
    """
    import swan_aircomp.harness as harness

    calls = []
    names = ("sample_users", "ss_two_stage", "pass_baseline", "sa1_ao", "sa2_ao",
             "sa1_joint_exhaustive", "sa2_joint_exhaustive")
    for name in names:
        monkeypatch.setattr(harness, name, lambda *a, _name=name, **k: calls.append(_name))
    err = _rejected_before_work(
        tmp_path, capsys, "sweep-k", "--m", "2", "--seg-length", "0.001", "--drops", "2",
        "--sweep", "2", "--q", "50",
    )
    assert "midpoint start at sweep value 2" in err
    assert calls == []
    assert parse_config(kind="sweep-k", overrides={
        "m_segments": 2, "seg_length": 0.001, "schemes": "SS,PASS"}).seg_length == 0.001
    assert parse_config(kind="sweep-m-fixed-L", overrides={"sweep": "1", "seg_length": 0.004})
    with pytest.raises(ConfigError, match="midpoint start at sweep value 2"):
        parse_config(kind="sweep-m-fixed-L", overrides={"sweep": "1,2", "seg_length": 0.004})


def test_millimetre_segments_are_refused_for_their_start_not_their_layout(tmp_path, capsys):
    """Two 1 mm segments at d_x = 100 m build, so the config error names the
    midpoint start closer than delta_min, not the feed spacing."""
    err = _rejected_before_work(
        tmp_path, capsys, "sweep-m", "--sweep", "1,2", "--seg-length", "0.001", "--q", "20"
    )
    assert "midpoint start at sweep value 2" in err
    assert "feed_x" not in err


def test_restarts_near_delta_min_find_a_feasible_init(tmp_path):
    """5.4 mm segments are barely wider than delta_min (5.35 mm): a restart
    drawn left to right is feasible, so the run completes."""
    out = tmp_path / "out"
    code = main(["sweep-k", "--out-dir", str(out), "--m", "8", "--sweep", "2", "--seg-length", "0.0054",
                 "--restarts", "1", "--drops", "1", "--q", "20", "--schemes", "SA1", "--quiet"])
    assert code == 0
    assert (out / "results.csv").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m swan_aircomp`` is the CLI entry point, run from a checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "swan_aircomp", "--help"], env=env,
                          capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode == 0
    assert "oracle-check" in done.stdout


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


@pytest.mark.parametrize("kappas", ["0,0", "0,-0"])
def test_repeated_kappa_is_a_config_error(tmp_path, capsys, kappas):
    """A repeated kappa would run every drop twice and count it as two."""
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--sweep", "2", "--m", "2", "--q", "20",
                          "--schemes", "SS", "--kappa", kappas)


@pytest.mark.parametrize("schemes", ["SS,ss", "PASS,pass-baseline"])
def test_repeated_scheme_is_a_config_error(tmp_path, capsys, schemes):
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--sweep", "2", "--m", "2", "--q", "20",
                          "--schemes", schemes)


def test_config_file_kind_conflicting_with_the_subcommand_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"kind": "oracle-check"}))
    err = _rejected_before_work(tmp_path, capsys, "sweep-k", "--config", str(cfg))
    assert "'oracle-check'" in err and "'sweep-k'" in err


def test_config_file_kind_matching_the_subcommand_is_valid(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"kind": "sweep-m-fixed-L"}))
    code, out = run(tmp_path, "out", "--config", str(cfg), cmd="sweep-m")
    assert code == 0
    assert json.loads((out / "metadata.json").read_text())["spec"]["kind"] == "sweep-m-fixed-L"


# Each spec-field flag: its field, a value, and the value metadata.json records.
_FIELD_FLAGS = {
    "--seed": ("master_seed", "5", 5),
    "--drops": ("n_drops", "2", 2),
    "--kappa": ("kappa_db_per_m", "0, 0.08", [0.0, 0.08]),
    "--design-kappa": ("design_kappa", "0.01", 0.01),
    "--restarts": ("restarts", "1", 1),
    "--sweep": ("sweep", "2,3", [2.0, 3.0]),
    "--q": ("q_grid", "25", 25),
    "--schemes": ("schemes", "ss,pass-baseline", ["SS", "PASS"]),
    "--k": ("k_users", "3", 3),
    "--m": ("m_segments", "3", 3),
    "--seg-length": ("seg_length", "1.5", 1.5),
    "--d-x": ("d_x", "30", 30.0),
}
_CLI_ONLY = {"help", "config", "out_dir", "quiet", "log_y", "timing"}


@pytest.mark.parametrize("flag", list(_FIELD_FLAGS))
def test_a_field_flag_and_its_config_key_give_the_same_spec(tmp_path, flag):
    field, value, want = _FIELD_FLAGS[flag]
    base = {"sweep": "2", "n_drops": 1, "m_segments": 2, "q_grid": 20, "schemes": "SS"}
    specs = []
    for name, file_values, flags in (
        ("flag", base, [flag, value]),
        ("file", {**base, field: value}, []),
    ):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(file_values))
        out = tmp_path / name
        assert main(["sweep-k", "--config", str(cfg), "--out-dir", str(out), "--quiet", *flags]) == 0
        specs.append(json.loads((out / "metadata.json").read_text())["spec"])
    assert specs[0] == specs[1]
    assert specs[0][field] == want


def test_every_flag_but_the_cli_only_ones_is_a_spec_field_taken_as_text():
    """Field flags carry no type= of their own: parse_config parses their text."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == [k.command for k in KINDS.values()]
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    want = {flag: field for flag, (field, _, _) in _FIELD_FLAGS.items()}
    assert set(want.values()) <= fields
    for sub in subparsers.choices.values():
        actions = [a for a in sub._actions if a.dest not in _CLI_ONLY]
        assert {a.option_strings[0]: a.dest for a in actions} == want
        assert all(a.type is None for a in actions)


def test_json_boolean_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kappa_db_per_m": [True]}))
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--config", str(cfg))


@pytest.mark.parametrize(
    "values",
    [{"kappa_db_per_m": {"0.08": 1}}, {"schemes": {"SS": 0}}, {"sweep": {"2": 0, "4": 0}}],
)
def test_json_object_value_is_a_config_error(tmp_path, capsys, values):
    """A JSON object is not read as the list of its keys."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    _rejected_before_work(tmp_path, capsys, "sweep-k", "--m", "2", "--q", "20", "--sweep", "2",
                          "--schemes", "SS", "--config", str(cfg))


@pytest.mark.parametrize("flag", ["--kappa", "--design-kappa"])
def test_negative_zero_kappa_writes_the_outputs_of_zero(tmp_path, flag):
    outs = []
    for value in ("0", "-0"):
        out = tmp_path / f"kappa{value}"
        assert main(["sweep-k", "--out-dir", str(out), f"{flag}={value}", "--sweep", "2",
                     "--drops", "1", "--m", "2", "--q", "20", "--schemes", "SS", "--quiet"]) == 0
        outs.append(out)
    for name in ("results.csv", "aggregates.csv", "plot.svg", "metadata.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "values",
    [
        {"q_grid": 2.7},
        {"n_drops": 1.9},
        {"master_seed": 3.5},
        {"n_drops": float("inf")},
        {"q_grid": 1},
        {"restarts": -1},
        {"k_users": 0},
        {"k_users": -1},
        {"k_users": float("nan")},
        {"master_seed": float("-inf")},
    ],
)
def test_bad_integer_and_loop_fields_are_config_errors(tmp_path, capsys, values):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    err = _rejected_before_work(tmp_path, capsys, "oracle-check", "--config", str(cfg))
    assert next(iter(values)) in err


@pytest.mark.parametrize("values", [{"theta_grid": 720}, {"max_iters": 100}, {"tol": 1e-8}],
                         ids=["theta_grid", "max_iters", "tol"])
def test_a_config_naming_a_removed_field_is_refused(tmp_path, capsys, values):
    """A file that still sets a removed field fails loudly.

    The SA2 oracle's phase grid is a fixed 720 points, and the AO's sweep
    cap and tolerance are the optimizers' own defaults.
    """
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    err = _rejected_before_work(tmp_path, capsys, "oracle-check", "--config", str(cfg))
    assert f"unknown config key: {next(iter(values))!r}" in err


@pytest.mark.parametrize(
    "values",
    [
        {"p_dbm": "inf"},
        {"height": "inf"},
        {"noise_dbm": "inf"},
        {"n_eff": "inf"},
        {"height": 1e200},
        {"delta_m": "inf"},
        {"d_y": 1e200},
        {"seg_length": 1e200},
        {"p_dbm": 1e300},
        {"f_c_hz": 1e-150},
        {"f_c_hz": 0},
    ],
)
def test_non_finite_or_overflowing_physical_values_are_config_errors(tmp_path, capsys, values):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    _rejected_before_work(
        tmp_path, capsys, "sweep-k", "--m", "2", "--q", "20", "--sweep", "2", "--config", str(cfg)
    )


def test_a_winning_restart_records_its_own_seed(tmp_path):
    """A row whose best run started from random restart r records that
    restart's seed derive_seed(master_seed, drop, 7001 + r); any other row
    records its drop's seed."""
    out = tmp_path / "out"
    code = main(["sweep-k", "--out-dir", str(out), "--sweep", "2,6", "--drops", "2", "--m", "3",
                 "--q", "60", "--kappa", "0,0.08", "--restarts", "2", "--schemes", "SA1,SA2,SS",
                 "--quiet"])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())["spec"]
    spec = ExperimentSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in meta.items()})
    region = ServiceRegion(spec.d_x, spec.d_y)
    layout = build_layout(spec.m_segments, spec.seg_length, region, spec.height)
    restart_wins = 0
    with open(out / "results.csv", newline="") as f:
        for row in csv.DictReader(f):
            drop = int(row["drop"])
            want = derive_seed(spec.master_seed, drop)
            if row["scheme"] != "SS":
                users = sample_users(region, int(float(row["sweep_value"])), want)
                scene = Scene(layout, users)
                cfg = spec.radio_config(float(row["kappa"]))
                runner = sa1_ao if row["scheme"] == "SA1" else sa2_ao
                best = runner(cfg, scene, spec.q_grid).final_mse
                for r in range(spec.restarts):
                    seed = derive_seed(spec.master_seed, drop, 7001 + r)
                    init = random_init(scene, row["scheme"], seed, cfg.delta_min)
                    mse = runner(cfg, scene, spec.q_grid, init=init).final_mse
                    if mse < best:
                        best, want = mse, seed
                assert float(row["final_mse"]) == best
            restart_wins += want != derive_seed(spec.master_seed, drop)
            assert int(row["seed"]) == want
    assert restart_wins > 0
