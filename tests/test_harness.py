import csv
import json
import time
import tracemalloc

import numpy as np
import pytest

from swan_aircomp.geometry import Scene, ServiceRegion, build_layout, sample_users
from swan_aircomp.harness import (
    _INT_MINIMUMS,
    AggregateRow,
    ConfigError,
    ExperimentSpec,
    ResultRow,
    aggregate,
    emit_csv,
    emit_plot,
    parse_config,
    run_experiment,
    write_metadata,
    execute,
)
from swan_aircomp.optimizers import evaluate_placement, ss_two_stage
from swan_aircomp.rng import derive_seed
from conftest import rel_err, rows_as_run, rows_run_alone


def make_spec(**kw):
    base = dict(
        kind="sweep-k",
        sweep=(2, 3),
        n_drops=2,
        m_segments=2,
        seg_length=1.0,
        d_x=12.0,
        d_y=6.0,
        q_grid=30,
        schemes=("SS", "PASS"),
        kappa_db_per_m=(0.0,),
        master_seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_defaults_and_derived_quantities():
    spec = ExperimentSpec(kind="sweep-m-fixed-L", sweep=(1, 2, 5))
    assert spec.n_drops == 100
    assert spec.master_seed == 1
    assert spec.k_users == 10
    assert spec.q_grid == 1000
    assert spec.d_x == 100.0 and spec.d_y == 20.0 and spec.height == 3.0
    assert spec.restarts == 0 and spec.design_kappa is None
    cfg = spec.radio_config(0.08)
    assert cfg.kappa == 0.08
    assert cfg.f_c == 28e9
    assert rel_err(cfg.wavelength, 0.0107068735) < 1e-12
    assert cfg.delta_min == cfg.wavelength / 2.0
    assert rel_err(cfg.p_tx, 0.01) < 1e-12
    assert rel_err(cfg.noise_var, 1e-12) < 1e-12


@pytest.mark.parametrize(
    "kw",
    [
        {"kind": "nope"},
        {"sweep": ()},
        {"sweep": (2, 2)},
        {"sweep": (3, 1)},
        {"n_drops": 0},
        {"k_users": 0},
        {"m_segments": 0},
        {"q_grid": 1},
        {"restarts": -1},
        {"schemes": ()},
        {"schemes": ("SS", "XX")},
        {"kappa_db_per_m": ()},
        {"kappa_db_per_m": (-0.1,)},
        {"kind": "convergence", "schemes": ("SS",)},
        {"kind": "oracle-check", "m_segments": 3, "schemes": ("SA1",)},
        {"kappa_db_per_m": (0.0, 0.08, 0.0)},
        {"kappa_db_per_m": (0.0, -0.0)},
        {"schemes": ("SS", "SA1", "SS")},
    ],
)
def test_spec_rejects_bad_values(kw):
    base = dict(kind="sweep-k", sweep=(2, 4))
    base.update(kw)
    with pytest.raises(ConfigError):
        ExperimentSpec(**base)


def test_parse_config_kind_defaults():
    spec = parse_config(kind="sweep-k")
    assert spec.kind == "sweep-k"
    assert spec.sweep == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    assert spec.d_x == 50.0
    assert spec.schemes == ("SS", "SA1", "SA2", "PASS")
    conv = parse_config(kind="convergence")
    assert conv.schemes == ("SA1", "SA2")
    oc = parse_config(kind="oracle-check")
    assert oc.m_segments == 2 and oc.n_drops == 20 and oc.q_grid == 20


def test_parse_config_units_and_aliases(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({
        "kind": "sweep-k",
        "sweep": [2, 4],
        "n_drops": 3,
        "f_c_hz": "28 GHz",
        "p_dbm": "10 dBm",
        "noise_dbm": "-90dBm",
        "kappa_db_per_m": "0, 0.08",
        "schemes": "ss, pass-baseline",
        "q_grid": 50,
    }))
    spec = parse_config(path=p)
    assert spec.f_c_hz == 28e9
    assert spec.p_dbm == 10.0 and spec.noise_dbm == -90.0
    assert spec.kappa_db_per_m == (0.0, 0.08)
    assert spec.schemes == ("SS", "PASS")
    assert spec.sweep == (2.0, 4.0)
    assert spec.n_drops == 3


def test_parse_config_override_precedence(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"kind": "sweep-k", "n_drops": 3, "q_grid": 50}))
    spec = parse_config(path=p, overrides={"n_drops": 7})
    assert spec.n_drops == 7
    assert spec.q_grid == 50


def test_parse_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="qgrid"):
        parse_config(kind="sweep-k", overrides={"qgrid": 5})
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(kind="sweep-k", overrides={"n_drops": "many"})
    with pytest.raises(ConfigError, match="kind"):
        parse_config()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path=bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="flat JSON object"):
        parse_config(path=arr)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(path=tmp_path / "missing.json")


def test_parse_config_refuses_an_override_naming_another_kind(tmp_path):
    """An override's kind, like a config file's, must agree with the kind named before it."""
    with pytest.raises(ConfigError, match="overrides names kind 'oracle-check', not 'sweep-k'"):
        parse_config(kind="sweep-k", overrides={"kind": "oracle-check"})
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"kind": "sweep-k"}))
    with pytest.raises(ConfigError, match="overrides names kind 'convergence', not 'sweep-k'"):
        parse_config(path=p, overrides={"kind": "convergence"})
    assert parse_config(kind="sweep-k", overrides={"kind": "sweep-k"}).kind == "sweep-k"
    assert parse_config(path=p, overrides={"kind": "sweep-k"}).kind == "sweep-k"
    assert parse_config(overrides={"kind": "convergence"}).kind == "convergence"


@pytest.mark.parametrize("kind,overrides,want", [
    # every K shares one layout
    ("sweep-k", {"kappa_db_per_m": "0,0.08"}, 1),
    ("sweep-k", {"kappa_db_per_m": "0,0.08", "design_kappa": 0}, 1),
    # each M has its own layout
    ("sweep-m-fixed-L", {"kappa_db_per_m": "0,0.08"}, 10),
])
def test_parse_config_checks_each_distinct_layouts_start_once_per_run_config(
    monkeypatch, kind, overrides, want
):
    """Every run config has the spec's delta_min, the one field the start
    check reads, so each distinct layout's start is checked once, whatever
    the number of run configs."""
    import swan_aircomp.harness as harness

    calls = []
    monkeypatch.setattr(harness, "require_feasible", lambda cfg, layout, start: calls.append(layout))
    parse_config(kind=kind, overrides=overrides)
    assert len(calls) == want


def test_parse_config_does_not_truncate_integer_fields():
    with pytest.raises(ConfigError, match="q_grid must be a whole number, got 2.7"):
        parse_config(kind="oracle-check", overrides={"q_grid": 2.7, "n_drops": 1.9, "master_seed": 3.5})
    spec = parse_config(kind="oracle-check", overrides={"q_grid": 25.0, "n_drops": "3"})
    assert (spec.q_grid, spec.n_drops) == (25, 3)


def test_parse_config_checks_a_long_waveguides_spacing_in_well_under_a_second():
    """The midpoint start's spacing check compares each PA with the next one
    only, so 15,000 segments parse at once (at Q = 10 and K = 1, which keep
    the drop table and the AO's 1.8 GB index table within MAX_TABLE_BYTES;
    an all-pairs check took 12.8 s at 20,000 segments)."""
    start = time.perf_counter()
    spec = parse_config(
        kind="sweep-k", overrides={"m_segments": 15000, "seg_length": 0.01, "q_grid": 10, "sweep": "1"}
    )
    assert time.perf_counter() - start < 1.0
    assert spec.m_segments == 15000 and {"SA1", "SA2"} <= set(spec.schemes)


def test_an_ss_parse_at_a_million_segments_stays_within_its_table_estimate():
    """The layout's feeds are one numpy array, so an SS-only parse at M = 10^6
    allocates less at its peak than the 16 (M + 1)(Q + 1) K = 48 MB of gains
    alone in the drop table the bound admits it for (a list of Python float
    feeds took 54 MB)."""
    overrides = {"m_segments": 10 ** 6, "seg_length": 0.01, "q_grid": 2, "sweep": "1", "schemes": "SS"}
    tracemalloc.start()
    try:
        parse_config(kind="sweep-k", overrides=overrides)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (10 ** 6 + 1) * (2 + 1) * 1


def test_a_drop_table_over_the_bound_is_refused_before_any_layout(monkeypatch):
    """The bound is ``drop_search_bytes`` for every run config: the table's
    M + 1 blocks of Q + 1 points once, each config's (Q + 1, K) complex gains
    per block, and the AO's 8 M (M - 1) byte index table when SA1 or SA2
    runs (at Q K = 60 no grid has a screen table).  At the bound a config
    parses, and a byte below it the first sweep value over it is named with
    its M, Q, K and run configs.  Without SA1 and SA2 the index table is not
    counted."""
    import swan_aircomp.harness as harness

    layouts = []
    monkeypatch.setattr(harness, "build_layout", lambda *a: layouts.append(a) or build_layout(*a))
    overrides = {"m_segments": 5, "q_grid": 20, "sweep": "2,3", "kappa_db_per_m": "0,0.08"}
    points, gains_k3, index = 8 * (5 + 1) * (20 + 1), 16 * (5 + 1) * (20 + 1) * 3, 8 * 5 * 4
    need = points + 2 * gains_k3 + index
    monkeypatch.setattr(harness, "MAX_TABLE_BYTES", need - 1)
    with pytest.raises(ConfigError, match=r"sweep value 3 .*\(M = 5, Q = 20, K = 3, run configs = 2, "
                                          r"with the AO index table\)"):
        parse_config(kind="sweep-k", overrides=overrides)
    assert layouts == []
    monkeypatch.setattr(harness, "MAX_TABLE_BYTES", need)
    parse_config(kind="sweep-k", overrides=overrides)
    assert len(layouts) == 1
    monkeypatch.setattr(harness, "MAX_TABLE_BYTES", need - index)
    parse_config(kind="sweep-k", overrides={**overrides, "schemes": "SS,PASS"})
    with pytest.raises(ConfigError, match=r"\(M = 5, Q = 21, K = 3, run configs = 2\), over the bound"):
        parse_config(kind="sweep-k", overrides={**overrides, "schemes": "SS,PASS", "q_grid": 21})


@pytest.mark.parametrize("kappas, m_max", [("0", 7910), ("0,0.08", 4805)])
def test_sa_runs_at_the_default_q_and_k_are_refused_above_the_stated_m(kappas, m_max):
    """At Q = 1000 and K = 10 every grid carries a screen table and each kappa
    runs its own config, so the largest M an SA run parses at falls with the
    number of kappas (README states both values)."""
    overrides = {"seg_length": 0.01, "sweep": "10", "kappa_db_per_m": kappas}
    parse_config(kind="sweep-k", overrides={**overrides, "m_segments": m_max})
    with pytest.raises(ConfigError, match=rf"\(M = {m_max + 1}, Q = 1000, K = 10, "):
        parse_config(kind="sweep-k", overrides={**overrides, "m_segments": m_max + 1})


@pytest.mark.parametrize("field", sorted(_INT_MINIMUMS))
def test_an_integer_field_has_one_whole_number_rule(tmp_path, field):
    """A file value, an override and a constructor argument meet the spec's one check.

    A file value is checked even when an override replaces it, as a file
    value that does not parse is.
    """
    base = {"kind": "sweep-k", "sweep": (2,), "n_drops": 1, "q_grid": 20, "schemes": ("SS",)}
    for value in (2.7, float("inf"), float("nan")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))  # inf and nan as JSON's Infinity and NaN
        messages = []
        for build in (lambda: parse_config(path, kind="sweep-k"),
                      lambda: parse_config(path, kind="sweep-k", overrides={field: "3"}),
                      lambda: parse_config(kind="sweep-k", overrides={field: value}),
                      lambda: ExperimentSpec(**{**base, field: value})):
            with pytest.raises(ConfigError) as exc:
                build()
            messages.append(str(exc.value))
        assert messages == [f"{field} must be a whole number, got {value!r}"] * 4
    # a string goes through int(): its digits are the number, a decimal point is refused
    with pytest.raises(ConfigError, match=f"bad value for '{field}': '3.0'"):
        parse_config(kind="sweep-k", overrides={field: "3.0"})
    spec = parse_config(kind="sweep-k", overrides={**base, field: "3"})
    assert getattr(spec, field) == 3


@pytest.mark.parametrize("field,items,want", [
    ("sweep", ("2", "4"), (2.0, 4.0)),
    ("kappa_db_per_m", ("0", "0.08"), (0.0, 0.08)),
    ("schemes", ("ss", "pass-baseline"), ("SS", "PASS")),
])
def test_list_fields_share_one_syntax(tmp_path, field, items, want):
    a, b = items
    forms = [f"{a},{b}", f"{a} {b}", f" {a} , {b} ", [a, b]]
    if field != "schemes":  # a JSON number is a value too
        forms.append([float(a), float(b)])
    for form in forms:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: form}))
        assert getattr(parse_config(path, kind="sweep-k"), field) == want
        assert getattr(parse_config(kind="sweep-k", overrides={field: form}), field) == want
    assert getattr(parse_config(kind="sweep-k", overrides={field: a}), field) == want[:1]
    if field != "schemes":
        assert getattr(parse_config(kind="sweep-k", overrides={field: float(a)}), field) == want[:1]


@pytest.mark.parametrize(
    "kw",
    [
        {"n_drops": 1.5},
        {"q_grid": 20.5},
        {"k_users": True},
        {"k_users": float("inf")},
        {"m_segments": float("nan")},
        {"restarts": "1"},
    ],
)
def test_spec_rejects_integer_fields_that_are_not_whole_numbers(kw):
    base = dict(kind="sweep-k", sweep=(2,), n_drops=1, q_grid=20, schemes=("SS",))
    base.update(kw)
    with pytest.raises(ConfigError, match=next(iter(kw))):
        ExperimentSpec(**base)


def test_spec_stores_whole_float_integer_fields_as_ints():
    spec = ExperimentSpec(kind="sweep-k", sweep=(2,), n_drops=2.0, q_grid=np.int64(20),
                          schemes=("SS",))
    assert (type(spec.n_drops), type(spec.q_grid)) == (int, int)
    assert len(run_experiment(spec)) == 2


def test_sa2_rows_do_not_depend_on_the_other_schemes(tmp_path):
    """The other schemes share SA2's per-drop grid gains and must not move a byte."""
    kw = dict(sweep=(2, 4), m_segments=3, q_grid=40, kappa_db_per_m=(0.0, 0.08))
    alone = execute(make_spec(schemes=("SA2",), **kw), tmp_path / "alone", quiet=True)
    every = execute(make_spec(schemes=("SS", "SA1", "SA2", "PASS"), **kw),
                    tmp_path / "every", quiet=True)
    header, *rows = alone["results"].read_bytes().splitlines(keepends=True)
    mixed = [r for r in every["results"].read_bytes().splitlines(keepends=True)
             if r.split(b",")[1] == b"SA2"]
    assert len(rows) == 2 * 2 * 2
    assert rows == mixed


def test_a_drop_builds_each_grid_free_space_factor_once(monkeypatch):
    """Per drop: one Q + 1 point pass per block, M segment blocks plus the PASS block, no more.

    Two kappas and four schemes, then oracle-check's AO runs and joint
    oracles: the AO starts, the SS probes and the oracles' candidates all
    read the drop's blocks, so no M-point or 1-point gain is built, by the
    table or by ``segment_gain_matrix`` without a ``free``.
    """
    from swan_aircomp import channel, optimizers

    sizes = []
    real = channel._free_space

    def counted(cfg, scene, psi):
        sizes.append(psi.size)
        return real(cfg, scene, psi)

    monkeypatch.setattr(channel, "_free_space", counted)
    monkeypatch.setattr(optimizers, "_free_space", counted)
    sweep_k = make_spec(sweep=(4,), n_drops=1, m_segments=3, q_grid=40,
                        schemes=("SS", "SA1", "SA2", "PASS"), kappa_db_per_m=(0.0, 0.08))
    oracle = parse_config(kind="oracle-check",
                          overrides={"n_drops": 1, "kappa_db_per_m": "0,0.08"})
    for spec, blocks in [(sweep_k, 3 + 1), (oracle, 2)]:  # oracle-check runs no PASS
        sizes.clear()
        run_experiment(spec)
        assert sizes == [spec.q_grid + 1] * blocks


def test_each_drop_builds_its_grids_once_for_every_run_and_restart(monkeypatch):
    """One table per drop: M + 1 free-space block builds per drop, M row statistics per kappa.

    With a restart, SA1 and SA2 each run twice per kappa on a drop; every
    run on the drop reads the same blocks, and the AO runs share statistics.
    """
    from swan_aircomp import optimizers

    free, stats = [], []
    real_free, real_stats = optimizers._free_space, optimizers.DropGrids._row_stats

    def counted_free(cfg, scene, psi):
        free.append((scene.users, psi.size))
        return real_free(cfg, scene, psi)

    def counted_stats(gains):
        stats.append(gains.shape)
        return real_stats(gains)

    monkeypatch.setattr(optimizers, "_free_space", counted_free)
    monkeypatch.setattr(optimizers.DropGrids, "_row_stats", staticmethod(counted_stats))
    m, q, kappas, drops = 3, 40, (0.0, 0.08), 2
    spec = make_spec(sweep=(4,), n_drops=drops, m_segments=m, q_grid=q, restarts=1,
                     schemes=("SS", "SA1", "SA2", "PASS"), kappa_db_per_m=kappas)
    run_experiment(spec)
    block_builds = [users for users, size in free if size == q + 1]
    assert all(size in (q + 1, m) for _, size in free)  # M points: a restart's random init
    assert len(block_builds) == drops * (m + 1)
    assert all(sum(u is users for u in block_builds) == m + 1 for users in block_builds)
    assert len(stats) == drops * len(kappas) * m
    assert set(stats) == {(q, 4)}


def test_joint_oracles_read_one_candidate_list_per_drop_and_config(monkeypatch):
    """oracle-check, 2 drops, two kappas: the SA1 and SA2 oracles' candidates are the
    drop's blocks, points and gains times 1/sqrt(M) to the bit, and no oracle builds
    a gain of its own: every gain of the run is one block's."""
    from swan_aircomp import optimizers

    reads, gain_calls = [], []
    real_joint, real_gains = optimizers.DropGrids.joint, optimizers.segment_gain_matrix

    def recorded(self, cfg):
        cands = real_joint(self, cfg)
        reads.append((self, cfg, cands))
        return cands

    def counted(cfg, scene, segment, psi, free=None):
        gain_calls.append((len(psi), free is not None))
        return real_gains(cfg, scene, segment, psi, free)

    monkeypatch.setattr(optimizers.DropGrids, "joint", recorded)
    monkeypatch.setattr(optimizers, "segment_gain_matrix", counted)
    spec = parse_config(kind="oracle-check", overrides={"n_drops": 2, "kappa_db_per_m": "0,0.08"})
    run_experiment(spec)
    m, q = spec.m_segments, spec.q_grid
    assert gain_calls == [(q + 1, True)] * (2 * m * 2)
    lists = {}
    for table, cfg, cands in reads:
        lists.setdefault((table, cfg), []).append(cands)
        assert len(cands) == m
        for seg, (pts, shares) in enumerate(cands):
            block_pts, block_gains, _ = table._block(cfg, seg)
            assert pts.tobytes() == block_pts.tobytes()
            assert shares.tobytes() == (block_gains * (1.0 / np.sqrt(m))).tobytes()
    assert len(lists) == 2 * 2
    assert all(len(got) == 2 for got in lists.values())


@pytest.mark.parametrize(
    "values", [{"n_drops": True}, {"kappa_db_per_m": [True]}, {"restarts": False}]
)
def test_parse_config_rejects_json_booleans(tmp_path, values):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"kind": "sweep-k", **values}))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(path=p)


def test_run_experiment_row_order_and_seeds():
    spec = make_spec(kappa_db_per_m=(0.0, 0.08))
    rows = run_experiment(spec)
    want = [
        (float(sv), d, sch, kap)
        for d in range(spec.n_drops)
        for sv in spec.sweep
        for sch in spec.schemes
        for kap in spec.kappa_db_per_m
    ]
    got = [(r.sweep_value, r.drop, r.scheme, r.kappa) for r in rows]
    assert got == want
    for r in rows:
        assert r.seed == derive_seed(spec.master_seed, r.drop)
        assert r.experiment == "sweep-k"
        assert r.elapsed >= 0.0


def test_sweep_k_rows_are_each_cell_run_alone():
    """Reusing a drop's gain columns across K moves no number.

    Every row of a K = 2, 3, 5 sweep, over two drops, two kappas, all four
    schemes and a restart, equals its cell run alone on a fresh table of
    the K-user drop: final_mse to the bit, iterations, evaluations, seed.
    """
    spec = make_spec(sweep=(2, 3, 5), m_segments=3, q_grid=40, kappa_db_per_m=(0.0, 0.08),
                     schemes=("SS", "SA1", "SA2", "PASS"), restarts=1)
    rows = run_experiment(spec)
    assert len(rows) == 2 * 3 * 4 * 2
    assert rows_as_run(rows) == rows_run_alone(spec)


def test_single_segment_switched_equals_full_span_baseline():
    """With one segment the switched scheme and the span baseline search the
    same grid, so their per-drop results must agree exactly."""
    spec = ExperimentSpec(
        kind="sweep-m-fixed-L",
        sweep=(1,),
        n_drops=4,
        k_users=3,
        seg_length=2.0,
        d_x=20.0,
        d_y=8.0,
        q_grid=60,
        schemes=("SS", "PASS"),
        kappa_db_per_m=(0.0, 0.08),
        master_seed=5,
    )
    rows = run_experiment(spec)
    by_key = {(r.drop, r.scheme, r.kappa): r.final_mse for r in rows}
    for drop in range(4):
        for kappa in (0.0, 0.08):
            assert by_key[(drop, "SS", kappa)] == by_key[(drop, "PASS", kappa)]


def test_design_kappa_reevaluates_under_scenario_kappa():
    """Every scenario kappa, the design kappa itself included, re-evaluates the design run."""
    spec = make_spec(schemes=("SS",), kappa_db_per_m=(0.0, 0.08), design_kappa=0.0,
                     sweep=(3,), n_drops=2)
    rows = run_experiment(spec)
    assert [(r.drop, r.kappa) for r in rows] == [(0, 0.0), (0, 0.08), (1, 0.0), (1, 0.08)]
    region = ServiceRegion(spec.d_x, spec.d_y)
    layout = build_layout(spec.m_segments, spec.seg_length, region, spec.height)
    for row in rows:
        users = sample_users(region, 3, derive_seed(spec.master_seed, row.drop))
        scene = Scene(layout, users)
        rec = ss_two_stage(spec.radio_config(0.0), scene, spec.q_grid)
        want = evaluate_placement(spec.radio_config(row.kappa), scene, rec.placement)
        assert rel_err(row.final_mse, want) < 1e-12


def test_convergence_rows_are_padded_traces():
    spec = ExperimentSpec(
        kind="convergence",
        sweep=(0,),
        n_drops=3,
        k_users=4,
        m_segments=2,
        seg_length=1.0,
        d_x=12.0,
        d_y=6.0,
        q_grid=40,
        schemes=("SA1", "SA2"),
        master_seed=7,
    )
    rows = run_experiment(spec)
    cells = spec.n_drops * len(spec.schemes)
    assert len(rows) % cells == 0
    n_iters = len(rows) / cells
    series: dict = {}
    for r in rows:
        series.setdefault((r.drop, r.scheme), []).append(r.final_mse)
        assert r.sweep_value == float(len(series[(r.drop, r.scheme)]) - 1)
    for trace in series.values():
        assert len(trace) == n_iters
        assert np.all(np.diff(trace) <= 1e-12)


def test_oracle_check_pairs_each_run_with_a_bound():
    spec = ExperimentSpec(
        kind="oracle-check",
        sweep=(0,),
        n_drops=5,
        k_users=3,
        m_segments=2,
        seg_length=1.0,
        d_x=12.0,
        d_y=6.0,
        q_grid=12,
        schemes=("SA1", "SA2"),
        master_seed=9,
    )
    rows = run_experiment(spec)
    assert len(rows) == 5 * 2 * 2
    for ao, oracle in zip(rows[0::2], rows[1::2]):
        assert oracle.scheme == ao.scheme + "-oracle"
        assert oracle.drop == ao.drop
    # the switched-feed oracle enumerates every position pair the coordinate
    # search could ever occupy, so it is a true lower bound for SA1
    for ao, oracle in zip(rows[0::2], rows[1::2]):
        if ao.scheme == "SA1":
            assert ao.final_mse >= oracle.final_mse - 1e-12


def test_aggregate_mean_stderr_and_order():
    def row(scheme, drop, mse):
        return ResultRow("sweep-k", scheme, 0.0, 2.0, drop, mse, 1, 10, 42, 0.0)

    rows = [
        row("PASS", 0, 5.0),
        row("SA1", 0, 1.0),
        row("SA1", 1, 2.0),
        row("SA1", 2, 3.0),
    ]
    aggs = aggregate(rows)
    assert [a.scheme for a in aggs] == ["PASS", "SA1"]
    single, triple = aggs
    assert single.mean_mse == 5.0 and single.stderr == 0.0 and single.n_drops == 1
    assert triple.mean_mse == 2.0
    assert triple.stderr == 0.57735026918962584
    assert triple.n_drops == 3
    with pytest.raises(ValueError):
        aggregate([])


RESULT_GOLDEN = (
    b"experiment,scheme,kappa,sweep_value,drop,final_mse,iterations,evaluations,seed\n"
    b"sweep-k,SA1,0,2,0,0.10000000000000001,3,321,42\n"
    b"sweep-k,PASS,0.080000000000000002,2,1,1.5,1,200,43\n"
)


def golden_rows():
    return [
        ResultRow("sweep-k", "SA1", 0.0, 2.0, 0, 0.1, 3, 321, 42, 0.5),
        ResultRow("sweep-k", "PASS", 0.08, 2.0, 1, 1.5, 1, 200, 43, 0.25),
    ]


def test_emit_csv_result_rows_frozen(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv(golden_rows(), path)
    assert path.read_bytes() == RESULT_GOLDEN


def test_emit_csv_elapsed_column_is_opt_in(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv(golden_rows(), path, include_elapsed=True)
    want = (
        b"experiment,scheme,kappa,sweep_value,drop,final_mse,iterations,evaluations,seed,elapsed\n"
        b"sweep-k,SA1,0,2,0,0.10000000000000001,3,321,42,0.5\n"
        b"sweep-k,PASS,0.080000000000000002,2,1,1.5,1,200,43,0.25\n"
    )
    assert path.read_bytes() == want


def test_emit_csv_aggregate_rows_frozen(tmp_path):
    path = tmp_path / "a.csv"
    emit_csv([AggregateRow("sweep-k", "SA1", 0.0, 2.0, 2.0, 0.57735026918962584, 3)], path)
    want = (
        b"experiment,scheme,kappa,sweep_value,mean_mse,stderr,n_drops\n"
        b"sweep-k,SA1,0,2,2,0.57735026918962584,3\n"
    )
    assert path.read_bytes() == want


def test_emit_csv_empty_writes_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_bytes() == RESULT_GOLDEN.splitlines(keepends=True)[0]


def test_emit_csv_floats_round_trip(tmp_path):
    row = ResultRow("sweep-k", "SA1", 0.08, 2.0, 0, 0.1234567890123456789, 3, 321, 42, 0.0)
    path = tmp_path / "rt.csv"
    emit_csv([row], path)
    with open(path, newline="") as f:
        back = next(csv.DictReader(f))
    assert float(back["final_mse"]) == row.final_mse
    assert float(back["kappa"]) == row.kappa


def test_emit_plot_two_point_series_geometry(tmp_path):
    aggs = [
        AggregateRow("sweep-k", "SA1", 0.0, 1.0, 1.0, 0.0, 1),
        AggregateRow("sweep-k", "SA1", 0.0, 2.0, 2.0, 0.0, 1),
    ]
    path = tmp_path / "p.svg"
    emit_plot(aggs, path)
    text = path.read_text()
    assert 'points="70.00,424.00 550.00,42.00"' in text
    assert text.count("<polyline") == 1
    assert "number of users K" in text
    assert "kappa=" not in text


def test_emit_plot_one_series_per_scheme_kappa_pair(tmp_path):
    aggs = [
        AggregateRow("sweep-k", sch, kap, float(sv), 1.0 + sv, 0.0, 1)
        for sch in ("SS", "SA1", "SA2", "PASS")
        for kap in (0.0, 0.08)
        for sv in (1, 2)
    ]
    path = tmp_path / "p8.svg"
    emit_plot(aggs, path)
    text = path.read_text()
    assert text.count("<polyline") == 8
    assert text.count("<circle") == 16
    assert text.count("kappa=0.08") == 4
    assert text.count("kappa=0") == 8


def test_emit_plot_rejects_empty_without_touching_disk(tmp_path):
    path = tmp_path / "never.svg"
    with pytest.raises(ValueError):
        emit_plot([], path)
    assert not path.exists()


def test_write_metadata_is_deterministic(tmp_path):
    spec = make_spec()
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    p1 = write_metadata(spec, d1, ["results.csv"])
    p2 = write_metadata(spec, d2, ["results.csv"])
    assert p1.read_bytes() == p2.read_bytes()
    meta = json.loads(p1.read_text())
    assert meta["spec"]["kind"] == "sweep-k"
    assert len(meta["drop_seeds"]) == spec.n_drops
    assert meta["drop_seeds"][0] == derive_seed(spec.master_seed, 0)
    assert rel_err(meta["derived"]["wavelength_m"], 0.0107068735) < 1e-12


def test_execute_is_byte_reproducible(tmp_path):
    spec = make_spec()
    out1 = execute(spec, tmp_path / "run1", quiet=True)
    out2 = execute(spec, tmp_path / "run2", quiet=True)
    assert set(out1) == {"results", "aggregates", "plot", "metadata"}
    for key in out1:
        assert out1[key].read_bytes() == out2[key].read_bytes()
    with open(out1["results"], newline="") as f:
        n_rows = sum(1 for _ in csv.DictReader(f))
    assert n_rows == len(spec.sweep) * spec.n_drops * len(spec.schemes)


# perfbench/probe.py swaps these harness attributes for wrappers at run time,
# so the experiment loop must look each one up when it calls it.
_SWAPPED = (
    "sample_users", "ss_two_stage", "pass_baseline", "sa1_ao", "sa2_ao",
    "sa1_joint_exhaustive", "sa2_joint_exhaustive",
)

_SMALL = {
    "n_drops": 2, "k_users": 3, "seg_length": 1.0, "d_x": 12.0, "d_y": 6.0,
    "q_grid": 12, "kappa_db_per_m": "0,0.08",
}


@pytest.mark.parametrize(
    "kind,overrides,want",
    [
        # 2 sweep values x 2 drops scenes, users drawn once per drop; 8 cells per scheme
        ("sweep-m-fixed-L", {"sweep": "1,2", "restarts": 1},
         {"sample_users": 2, "ss_two_stage": 8, "pass_baseline": 8, "sa1_ao": 16, "sa2_ao": 16}),
        ("sweep-m-fixed-span", {"sweep": "1,2", "schemes": "SA1,SA2"},
         {"sample_users": 2, "sa1_ao": 8, "sa2_ao": 8}),
        ("sweep-k", {"sweep": "2,3", "m_segments": 2, "restarts": 2},
         {"sample_users": 2, "ss_two_stage": 8, "pass_baseline": 8, "sa1_ao": 24, "sa2_ao": 24}),
        # 2 drops; 4 cells per scheme
        ("convergence", {"m_segments": 2},
         {"sample_users": 2, "sa1_ao": 4, "sa2_ao": 4}),
        ("oracle-check", {},
         {"sample_users": 2, "sa1_ao": 4, "sa2_ao": 4,
          "sa1_joint_exhaustive": 4, "sa2_joint_exhaustive": 4}),
        # one design-config run per (sweep value, drop, scheme) serves both kappas
        ("sweep-k", {"sweep": "2,3", "m_segments": 2, "design_kappa": 0},
         {"sample_users": 2, "ss_two_stage": 4, "pass_baseline": 4, "sa1_ao": 4, "sa2_ao": 4}),
    ],
)
def test_harness_calls_every_swappable_name_at_call_time(monkeypatch, kind, overrides, want):
    import swan_aircomp.harness as harness

    calls = dict.fromkeys(_SWAPPED, 0)
    for name in _SWAPPED:
        def counted(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    spec = parse_config(kind=kind, overrides={**_SMALL, **overrides})
    rows = run_experiment(spec)
    assert calls == {**dict.fromkeys(_SWAPPED, 0), **want}
    assert rows
