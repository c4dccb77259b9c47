"""Seeded edge fuzz of the command line: every config ends in one of three outcomes.

A few hundred configs drawn with stdlib ``random``, one drop each at Q <= 20,
run through ``cli.main`` in process.  Each sets random scene flags
(``--seg-length``, ``--d-x``, ``--kappa``, ``--design-kappa``) and config-file
fields (``d_y``, ``height``, ``f_c_hz``, ``n_eff``, ``delta_m``, ``p_dbm``,
``noise_dbm``) to edge values: zero, signed zero, tiny, huge, negative, NaN
and inf, and dBm values of +-400.  Each run must

* exit 0, with every MSE it wrote in [0, K];
* exit 1, with no optimizer called and no file written; or
* exit 2, from an OSError only.

A second seeded draw of small sweep-k configs checks that every row equals
its cell run alone on a fresh grid table, and configs whose M, Q or K is
1e300, or an SA1 config at M = 10^6, must exit 1 at once.
"""

import csv
import json
import math
import random
import time

import pytest

from swan_aircomp import cli, harness
from conftest import rows_as_run, rows_run_alone

VALUES = ("0", "-0", "1e-300", "1e-12", "1e-3", "1", "3", "50", "1e12", "1e300", "-1", "nan", "inf")
DBM_VALUES = ("-400", "400")
FLAGS = ("--seg-length", "--d-x", "--kappa", "--design-kappa")
FIELDS = ("d_y", "height", "f_c_hz", "n_eff", "delta_m", "p_dbm", "noise_dbm")
OPTIMIZERS = (
    "ss_two_stage", "pass_baseline", "sa1_ao", "sa2_ao", "sa1_joint_exhaustive", "sa2_joint_exhaustive",
)
N_CONFIGS = 300


def _draw(rng, tmp_path, i):
    """One random command line, its config file written under tmp_path."""
    kind = rng.choice(sorted(harness.KINDS))
    info = harness.KINDS[kind]
    argv = [info.command, "--drops", "1", "--quiet", "--out-dir", str(tmp_path / f"out{i}")]
    if kind != "oracle-check":
        argv += ["--q", str(rng.randint(2, 20))]
    if info.swept:
        argv += ["--sweep", rng.choice(("1", "2", "1,3"))]
    if kind == "sweep-k":
        argv += ["--m", rng.choice(("1", "2", "3"))]
    for flag in FLAGS:
        if rng.random() < 0.3:
            value = rng.choice(VALUES)
            argv += [flag, f"0,{value}" if flag == "--kappa" and rng.random() < 0.5 else value]
    fields = {}
    for name in FIELDS:
        if rng.random() < 0.2:
            dbm = name.endswith("_dbm") and rng.random() < 0.3
            fields[name] = rng.choice(DBM_VALUES if dbm else VALUES)
    if fields:
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(fields))
        argv += ["--config", str(path)]
    return argv


def _mse_bounds_hold(out):
    """Every results.csv MSE is a number in [0, K], K the row's user count."""
    spec = json.loads((out / "metadata.json").read_text())["spec"]
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    for row in rows:
        k = float(row["sweep_value"]) if spec["kind"] == "sweep-k" else spec["k_users"]
        mse = float(row["final_mse"])
        if not (math.isfinite(mse) and 0.0 <= mse <= k):
            return False
    return True


def test_edge_configs_end_in_one_of_three_outcomes(tmp_path, monkeypatch):
    calls, raised = [], []
    for name in OPTIMIZERS:
        def counted(*args, _run=getattr(harness, name), **kwargs):
            calls.append(_run.__name__)
            return _run(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)

    def watched(*args, _run=cli.execute, **kwargs):
        try:
            return _run(*args, **kwargs)
        except BaseException as exc:
            raised.append(exc)
            raise
    monkeypatch.setattr(cli, "execute", watched)

    rng = random.Random(20261020)
    outcomes = {0: 0, 1: 0, 2: 0}
    for i in range(N_CONFIGS):
        argv = _draw(rng, tmp_path, i)
        calls.clear()
        raised.clear()
        code = cli.main(argv)
        out = tmp_path / f"out{i}"
        assert code in outcomes, argv
        outcomes[code] += 1
        if code == 0:
            assert _mse_bounds_hold(out), argv
        elif code == 1:
            assert calls == [] and not out.exists(), argv
        else:
            assert [type(e) for e in raised if not isinstance(e, OSError)] == [], argv
    # the draw reaches both ends: runs that complete and configs that are refused
    assert outcomes[0] > 0 and outcomes[1] > 0, outcomes


def test_sweep_k_rows_are_each_cell_run_alone_on_random_configs():
    """20 seeded small sweep-k configs: every row is its cell run alone on a fresh table.

    Each draws its K values, M, Q, drops, restarts, kappa list, design kappa
    and a scheme subset (one scheme alone among them), so the gain columns
    each drop reuses across K meet every run path.
    """
    rng = random.Random(20261020)
    subsets = (("PASS",), ("SA1",), ("SS",), ("SA2",), ("SS", "SA2"), ("SA1", "PASS"),
               ("SS", "SA1", "SA2", "PASS"))
    kappa_lists = ("0", "0.08", "0,0.08", "0.5,0,0.03")
    for i in range(20):
        overrides = {
            "sweep": sorted(rng.sample(range(1, 7), rng.randint(1, 3))),
            "m_segments": rng.randint(1, 3), "q_grid": rng.randint(4, 16),
            "n_drops": rng.randint(1, 2), "restarts": rng.randint(0, 1),
            "schemes": subsets[i % len(subsets)], "kappa_db_per_m": rng.choice(kappa_lists),
            "design_kappa": rng.choice((None, 0.0, 0.03)), "master_seed": rng.randint(0, 99),
        }
        spec = harness.parse_config(kind="sweep-k", overrides=overrides)
        assert rows_as_run(harness.run_experiment(spec)) == rows_run_alone(spec), overrides


@pytest.mark.parametrize("kind, values, flags", [
    ("sweep-k", {"m_segments": 1e300}, []),
    ("sweep-m-fixed-L", {"q_grid": 1e300}, []),
    ("convergence", {"k_users": 1e300}, []),
    ("oracle-check", {"k_users": 1e300}, []),
    ("sweep-k", {"sweep": [2, 1e300]}, []),
    ("sweep-m-fixed-L", {"sweep": [2, 1e300]}, []),
    ("sweep-m-fixed-L", {}, ["--sweep", "2,1e300"]),
    ("sweep-m-fixed-span", {"sweep": [1e300]}, []),
    # a 48 MB gain table, but 8 TB of the AO's index table
    ("sweep-k", {"m_segments": 1000000, "seg_length": 0.01, "q_grid": 2, "sweep": [1], "schemes": ["SA1"]}, []),
])
def test_a_scene_too_large_to_lay_out_exits_1_at_once(tmp_path, monkeypatch, capsys, kind, values, flags):
    """A JSON number 1e300 for M, Q or K (a sweep-m value is an M), or an SA1
    run at M = 10^6, is refused within a second by the drop table's size
    (the last by the AO's index table), with no optimizer called and no file
    written; before the bound, such a config grew until it was killed."""
    calls = []
    for name in OPTIMIZERS:
        monkeypatch.setattr(harness, name, lambda *a, _name=name, **k: calls.append(_name))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    out = tmp_path / "out"
    argv = [harness.KINDS[kind].command, "--config", str(path), "--out-dir", str(out), "--quiet", *flags]
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and calls == [] and not out.exists()
    assert "gain table" in capsys.readouterr().err
