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
"""

import csv
import json
import math
import random

from swan_aircomp import cli, harness

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
