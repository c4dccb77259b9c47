import fractions
import itertools
import math

import numpy as np
import pytest

import swan_aircomp as sa
from swan_aircomp import optimizers
from swan_aircomp.audit import phase_update_closed, sa1_position_update, ss_exhaustive, ss_mse_objective
from swan_aircomp.channel import DropGrids, placement_gains
from swan_aircomp.geometry import baseline_layout, baseline_scene
from swan_aircomp.optimizers import (
    evaluate_placement,
    midpoint_init,
    pass_baseline,
    random_init,
    sa1_ao,
    sa1_joint_exhaustive,
    sa2_ao,
    sa2_joint_exhaustive,
    ss_two_stage,
)
from swan_aircomp.rng import derive_seed, philox_stream
from conftest import (
    joint_candidates,
    make_config,
    make_scene,
    naive_mse,
    reference_ao,
    reference_sa1_joint,
    reference_sa2_joint,
    rel_err,
    scene_with_users,
)


def wide_scene(k=6, seed=5):
    # feeds at 49 and 50, so x = 50 lies on both segment 0 and segment 1
    return make_scene(m_segments=2, seg_length=1.0, d_x=100.0, d_y=20.0, k=k, seed=seed)


def test_ss_objective_matches_naive_composition():
    cfg = make_config(kappa=0.08)
    scene = wide_scene()
    h = sa.eff_channel(cfg, scene, sa.Placement("SS", [49.3], segment=0))
    assert rel_err(
        ss_mse_objective(cfg, scene, 0, 49.3), naive_mse(h, cfg.p_tx, cfg.noise_var)
    ) < 1e-12


def test_ss_objective_lossless_is_segment_agnostic():
    """Same physical PA position, different host segment, equal MSE at kappa=0."""
    cfg = make_config(kappa=0.0)
    scene = wide_scene()
    a = ss_mse_objective(cfg, scene, 0, 50.0)  # 1 m after feed 0
    b = ss_mse_objective(cfg, scene, 1, 50.0)  # at feed 1
    assert rel_err(a, b) < 1e-12


def test_ss_objective_lossy_penalizes_feed_distance():
    cfg = make_config(kappa=0.08)
    scene = wide_scene()
    far = ss_mse_objective(cfg, scene, 0, 50.0)
    near = ss_mse_objective(cfg, scene, 1, 50.0)
    assert far > near


def test_ss_two_stage_counters_and_trace():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=15)
    rec = ss_two_stage(cfg, scene, 333)
    assert rec.evaluations == 4 + 333
    assert rec.iterations == 1
    assert len(rec.mse_trace) == 2
    assert rec.final_mse == rec.mse_trace[-1]
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


def test_ss_exhaustive_counters():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=15)
    rec = ss_exhaustive(cfg, scene, 333)
    assert rec.evaluations == 4 * 333
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


def test_ss_exhaustive_never_loses_to_two_stage():
    cfg = make_config()
    for i in range(20):
        scene = make_scene(m_segments=3, seg_length=1.0, d_x=30.0,
                           k=int(2 + i % 4), seed=derive_seed(16, i))
        a = ss_exhaustive(cfg, scene, 100).final_mse
        b = ss_two_stage(cfg, scene, 100).final_mse
        assert a <= b + 1e-15


def test_ss_single_segment_two_stage_equals_exhaustive():
    cfg = make_config()
    scene = make_scene(m_segments=1, seg_length=4.0, k=4, seed=17)
    a = ss_two_stage(cfg, scene, 101)
    b = ss_exhaustive(cfg, scene, 101)
    assert a.final_mse == b.final_mse
    assert a.placement.pa_x[0] == b.placement.pa_x[0]


def test_ss_two_stage_finds_single_user_on_grid():
    cfg = make_config()
    scene = scene_with_users([[6.25, 0.4]], m_segments=2, seg_length=1.0, d_x=12.0)
    rec = ss_two_stage(cfg, scene, 101)  # grid step 0.01 on segment 1
    assert rec.placement.segment == 1
    assert abs(rec.placement.pa_x[0] - 6.25) < 1e-9


def test_ss_exhaustive_matches_hand_enumeration():
    cfg = make_config()
    scene = wide_scene(k=3, seed=18)
    q = 5
    best = (math.inf, None, None)
    for m in range(2):
        for x in sa.grid_points(scene.layout, m, q):
            val = ss_mse_objective(cfg, scene, m, float(x))
            if val < best[0]:  # strict: first minimum wins
                best = (val, m, float(x))
    rec = ss_exhaustive(cfg, scene, q)
    # the library evaluates the grid in one vectorized pass, so the value can
    # differ from the scalar objective by an ulp; the chosen point must match
    assert rel_err(rec.final_mse, best[0]) < 1e-12
    assert rec.placement.segment == best[1]
    assert rec.placement.pa_x[0] == best[2]


def test_baseline_layout_spans_the_aperture():
    scene = make_scene(m_segments=5, seg_length=1.0, d_x=100.0)
    lay = baseline_layout(scene)
    assert lay.m_segments == 1
    assert lay.span == scene.layout.span
    assert lay.feed_x[0] == scene.layout.span[0]


def test_pass_baseline_counters_and_kappa_behavior():
    scene = make_scene(m_segments=5, seg_length=1.0, d_x=100.0, k=6, seed=19)
    rec0 = pass_baseline(make_config(kappa=0.0), scene, 200)
    rec8 = pass_baseline(make_config(kappa=0.08), scene, 200)
    assert rec0.evaluations == 200 and rec8.evaluations == 200
    assert rec8.final_mse >= rec0.final_mse - 1e-15
    assert rec0.placement.architecture == "PASS"


def test_pass_baseline_equals_span_ss_when_lossless():
    cfg = make_config(kappa=0.0)
    for i in range(5):
        scene = make_scene(m_segments=4, seg_length=2.0, d_x=40.0, k=5,
                           seed=derive_seed(20, i))
        a = pass_baseline(cfg, scene, 150).final_mse
        b = ss_exhaustive(cfg, baseline_scene(scene), 150).final_mse
        assert rel_err(a, b) < 1e-12


def test_pass_baseline_applies_guided_attenuation_at_the_pa():
    """The returned PA pays the full feed-to-PA guided loss."""
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=5, seg_length=20.0, d_x=100.0, k=6, seed=21)
    rec = pass_baseline(cfg, scene, 300)
    lo = baseline_layout(scene).feed_x[0]
    ell = float(rec.placement.pa_x[0]) - lo
    got = abs(sa.inwaveguide_gain(cfg, float(rec.placement.pa_x[0]), lo))
    assert rel_err(got, 10.0 ** (-0.08 * ell / 20.0)) < 1e-12


def test_midpoint_init():
    scene = make_scene(m_segments=3, seg_length=2.0)
    p1 = midpoint_init(scene, "SA1")
    assert np.array_equal(p1.pa_x, scene.layout.feed_x + 1.0)
    assert p1.phases is None
    p2 = midpoint_init(scene, "SA2")
    assert np.array_equal(p2.phases, np.zeros(3))


def test_random_init_is_deterministic_and_feasible():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.0, d_x=40.0)
    a = random_init(scene, "SA2", 99, cfg.delta_min)
    b = random_init(scene, "SA2", 99, cfg.delta_min)
    assert np.array_equal(a.pa_x, b.pa_x)
    assert np.array_equal(a.phases, b.phases)
    assert sa.validate_placement(scene.layout, a, cfg.delta_min) == []
    assert np.all((a.phases >= 0) & (a.phases < 2 * math.pi))
    c = random_init(scene, "SA1", 99, cfg.delta_min)
    assert c.phases is None


def test_random_init_gives_up_when_infeasible():
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=100.0)
    with pytest.raises(ValueError):
        random_init(scene, "SA1", 7, delta_min=3.0)


def test_random_init_draws_are_feasible_when_seg_length_is_near_delta_min():
    """PAs are drawn left to right, each delta_min past the one before, so
    every draw passes validate_placement, rounding included, even where a
    draw of every PA at once would almost never be feasible."""
    cfg = make_config()
    for seg_length in (cfg.delta_min * (1.0 + 1e-9), 0.0054, 0.01):
        for d_x in (0.05, 100.0, 1e6):
            scene = make_scene(m_segments=8, seg_length=seg_length, d_x=d_x)
            for seed in range(40):
                p = random_init(scene, "SA2", derive_seed(17, seed), cfg.delta_min)
                assert sa.validate_placement(scene.layout, p, cfg.delta_min) == []


def test_sa1_position_update_never_worsens():
    cfg = make_config()
    g = philox_stream(23)
    for i in range(10):
        scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=derive_seed(23, i))
        placement = random_init(scene, "SA1", derive_seed(24, i), cfg.delta_min)
        seg = int(g.integers(0, 3))
        before = evaluate_placement(cfg, scene, placement)
        _, after = sa1_position_update(cfg, scene, placement, seg, 80)
        assert after <= before + 1e-12


def test_sa1_position_update_validates_inputs():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0)
    good = midpoint_init(scene, "SA1")
    with pytest.raises(ValueError):
        sa1_position_update(cfg, scene, good, 5, 50)
    bad = sa.Placement("SA1", scene.layout.feed_x - 1.0)
    with pytest.raises(ValueError):
        sa1_position_update(cfg, scene, bad, 0, 50)


def test_sa1_ao_single_segment_reaches_grid_optimum():
    cfg = make_config()
    scene = make_scene(m_segments=1, seg_length=4.0, k=4, seed=25)
    rec = sa1_ao(cfg, scene, 101)
    grid = ss_exhaustive(cfg, scene, 101)
    assert abs(rec.final_mse - grid.final_mse) <= 1e-12


def test_sa1_ao_monotone_and_self_consistent():
    cfg = make_config()
    for i in range(20):
        scene = make_scene(m_segments=int(2 + i % 3), seg_length=1.5, d_x=30.0,
                           k=int(2 + i % 5), seed=derive_seed(26, i))
        rec = sa1_ao(cfg, scene, 100)
        assert np.all(np.diff(rec.mse_trace) <= 1e-12)
        assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)
        assert sa.validate_placement(scene.layout, rec.placement, cfg.delta_min) == []


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_ao_final_mse_is_the_recomputation_on_oracle_scenes(kappa):
    """SA1/SA2 and both joint oracles record the MSE their placement recomputes to, bit for bit.

    Criterion 10's two-segment scenes, where SA2's closed-form angle often
    lands within rounding of 0; the reported phases must be the scored ones.
    """
    cfg = make_config(kappa=kappa)
    region = sa.ServiceRegion(12.0, 6.0)
    layout = sa.build_layout(2, 1.0, region, 3.0)
    for i in range(60):
        scene = sa.Scene(layout, sa.sample_users(region, 3, derive_seed(1, i)))
        r1, r2 = sa1_ao(cfg, scene, 20), sa2_ao(cfg, scene, 20)
        for rec in (r1, r2, sa1_joint_exhaustive(cfg, scene, 20), sa2_joint_exhaustive(cfg, scene, 20)):
            assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)
        assert np.all((r2.placement.phases >= 0) & (r2.placement.phases < 2 * math.pi))


def test_ao_rejects_bad_inits():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0)
    with pytest.raises(ValueError):
        sa1_ao(cfg, scene, 50, init=midpoint_init(scene, "SA2"))
    with pytest.raises(ValueError):
        sa1_ao(cfg, scene, 50, init=sa.Placement("SA1", scene.layout.feed_x - 1.0))
    with pytest.raises(ValueError):
        sa2_ao(cfg, scene, 50, init=midpoint_init(scene, "SA1"))


def test_sa2_ao_monotone_normalized_and_self_consistent():
    cfg = make_config()
    for i in range(15):
        scene = make_scene(m_segments=int(2 + i % 4), seg_length=1.5, d_x=30.0,
                           k=int(2 + i % 5), seed=derive_seed(28, i))
        rec = sa2_ao(cfg, scene, 100)
        assert np.all(np.diff(rec.mse_trace) <= 1e-12)
        assert np.all((rec.placement.phases >= 0) & (rec.placement.phases < 2 * math.pi))
        assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


def test_sa2_ao_chained_from_sa1_result_never_loses():
    """Zero-phase start at sa1's final positions shares its objective value,
    and accept-only-improving sweeps can only go down from there."""
    cfg = make_config()
    for i in range(10):
        scene = make_scene(m_segments=3, seg_length=1.5, d_x=30.0, k=5,
                           seed=derive_seed(29, i))
        r1 = sa1_ao(cfg, scene, 100)
        init = sa.Placement("SA2", r1.placement.pa_x.copy(), phases=np.zeros(3))
        r2 = sa2_ao(cfg, scene, 100, init=init)
        assert r2.final_mse <= r1.final_mse
        assert r2.mse_trace[0] == r1.final_mse


def test_sa2_beats_sa1_on_average_from_midpoints():
    cfg = make_config()
    m1, m2 = [], []
    for i in range(30):
        scene = make_scene(m_segments=3, seg_length=1.0, d_x=30.0, d_y=10.0,
                           k=6, seed=derive_seed(30, i))
        m1.append(sa1_ao(cfg, scene, 150).final_mse)
        m2.append(sa2_ao(cfg, scene, 150).final_mse)
    assert np.mean(m2) < np.mean(m1)


def test_trace_granularity_lengths():
    cfg = make_config()
    scene = make_scene(m_segments=3, seg_length=1.5, d_x=30.0, k=4, seed=31)
    for rec in (sa1_ao(cfg, scene, 80), sa2_ao(cfg, scene, 80)):
        assert len(rec.mse_trace) == 1 + rec.iterations


def test_ao_is_deterministic():
    cfg = make_config()
    scene = make_scene(m_segments=3, seg_length=1.5, d_x=30.0, k=5, seed=32)
    a = sa2_ao(cfg, scene, 90)
    b = sa2_ao(cfg, scene, 90)
    assert a.mse_trace == b.mse_trace
    assert np.array_equal(a.placement.pa_x, b.placement.pa_x)
    assert np.array_equal(a.placement.phases, b.placement.phases)
    assert a.evaluations == b.evaluations


def test_evaluate_placement_all_architectures():
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=100.0, k=4, seed=33)
    cfg = make_config(kappa=0.08)
    for rec in (
        ss_two_stage(cfg, scene, 60),
        pass_baseline(cfg, scene, 60),
        sa1_ao(cfg, scene, 60),
        sa2_ao(cfg, scene, 60),
    ):
        assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


def test_sa1_joint_exhaustive_matches_hand_loop():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=3, seed=34)
    q = 6
    mids = scene.layout.midpoints
    cands = [np.append(sa.grid_points(scene.layout, m, q), mids[m]) for m in range(2)]
    best = (math.inf, None)
    for x0, x1 in itertools.product(*cands):
        if abs(x0 - x1) < cfg.delta_min:
            continue
        h = sa.eff_channel(cfg, scene, sa.Placement("SA1", np.array([x0, x1])))
        val = naive_mse(h, cfg.p_tx, cfg.noise_var)
        if val < best[0]:
            best = (val, (float(x0), float(x1)))
    rec = sa1_joint_exhaustive(cfg, scene, q)
    assert rel_err(rec.final_mse, best[0]) < 1e-12
    assert tuple(rec.placement.pa_x) == best[1]


def test_sa1_joint_exhaustive_counts_only_feasible_pairs():
    cfg = make_config(delta_min=0.5)
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, k=2, seed=35)
    rec = sa1_joint_exhaustive(cfg, scene, 11)
    assert rec.evaluations < 12 * 12  # each segment's 11 grid points and its midpoint


def test_sa1_joint_exhaustive_caps_grid_size():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.0, d_x=40.0, k=2, seed=36)
    with pytest.raises(ValueError):
        sa1_joint_exhaustive(cfg, scene, 40)


def test_sa2_joint_exhaustive_contract():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=3, seed=37)
    rec = sa2_joint_exhaustive(cfg, scene, 12)
    assert rec.placement.phases[1] == 0.0
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)
    # shifting both phases by a constant leaves the MSE unchanged
    shifted = sa.Placement(
        "SA2", rec.placement.pa_x, phases=rec.placement.phases + 1.234
    )
    assert rel_err(evaluate_placement(cfg, scene, shifted), rec.final_mse) < 1e-12
    with pytest.raises(ValueError):
        sa2_joint_exhaustive(cfg, make_scene(m_segments=3), 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_placements_refuse_non_finite_phases(bad):
    """A NaN or infinite phase once gave sa2_ao and evaluate_placement a NaN MSE."""
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=3, seed=37)
    mid = scene.layout.midpoints
    with pytest.raises(ValueError, match="phases must be finite"):
        sa2_ao(cfg, scene, 10, init=sa.Placement("SA2", mid, phases=[bad, 0.0]))
    with pytest.raises(ValueError, match="phases must be finite"):
        evaluate_placement(cfg, scene, sa.Placement("SA2", mid, phases=[0.0, bad]))
    rec = sa2_ao(cfg, scene, 10, init=sa.Placement("SA2", mid, phases=[1e300, 0.0]))
    assert 0.0 <= rec.final_mse <= scene.k
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


def test_sa2_joint_exhaustive_is_a_lower_bound_for_positions_on_grid():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=2, seed=38)
    rec = sa2_joint_exhaustive(cfg, scene, 10)
    # any on-grid placement with any scanned phase is dominated
    x0 = sa.grid_points(scene.layout, 0, 10)[3]
    x1 = sa.grid_points(scene.layout, 1, 10)[7]
    probe = sa.Placement(
        "SA2", np.array([x0, x1]), phases=np.array([2 * math.pi * 33 / 720, 0.0])
    )
    assert evaluate_placement(cfg, scene, probe) >= rec.final_mse - 1e-12


# Precomputed grid gains against the per-candidate reference path: the AO
# and the joint oracles must return bit-identical results and counters.

_WIDE_DELTA = 0.7  # m; with 2 m segments this drops grid points near neighbours


def _equivalence_case(m_seg, kappa, delta_min, p_dbm=10.0):
    cfg = make_config(kappa=kappa, delta_min=delta_min, p_dbm=p_dbm)
    scene = make_scene(m_segments=m_seg, seg_length=2.0, d_x=20.0, k=5, seed=40 + m_seg)
    return cfg, scene


def _assert_same_run(rec, ref):
    assert np.array_equal(rec.placement.pa_x, ref["pa_x"])
    if ref["phases"] is not None:
        assert np.array_equal(rec.placement.phases, ref["phases"] % (2.0 * math.pi))
    assert rec.mse_trace == ref["trace"]
    assert rec.final_mse == ref["trace"][-1]
    assert rec.iterations == ref["iterations"]
    assert rec.evaluations == ref["evaluations"]


@pytest.mark.parametrize("m_seg", [1, 2, 5])
@pytest.mark.parametrize("kappa", [0.0, 0.08])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
@pytest.mark.parametrize("init_kind", ["midpoint", "random", "default"])
def test_ao_matches_per_candidate_reference_bitwise(m_seg, kappa, delta_min, init_kind):
    """``default`` runs with init=None, alone and on a shared table, against the midpoint reference.

    Those runs take their start gains from the table's start rows, not
    from ``placement_gains``; their records must not move a bit.
    """
    cfg, scene = _equivalence_case(m_seg, kappa, delta_min)
    q = 41
    shared = DropGrids(scene, q, (make_config(kappa=0.03, delta_min=delta_min), cfg))
    runs = []
    for run, arch in ((sa1_ao, "SA1"), (sa2_ao, "SA2")):
        if init_kind == "random":
            init = random_init(scene, arch, seed=3 + m_seg, delta_min=cfg.delta_min)
        else:
            init = midpoint_init(scene, arch)
        ref = reference_ao(cfg, scene, q, init.pa_x, init.phases)
        if init_kind == "default":
            recs = [run(cfg, scene, q), run(cfg, scene, q, grids=shared)]
        else:
            recs = [run(cfg, scene, q, init=init)]
        runs += [(rec, ref, init) for rec in recs]
    for rec, ref, init in runs:
        _assert_same_run(rec, ref)
        # the AO's incumbent channel and the recomputation share one assembly
        assert rec.mse_trace[0] == evaluate_placement(cfg, scene, init)
    if delta_min == _WIDE_DELTA and m_seg > 1:
        assert sum(ref["dropped"] for _, ref, _ in runs) > 0  # the spacing mask was exercised


@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17, 33])
@pytest.mark.parametrize("m_seg", [1, 2, 5])
def test_ao_matches_the_reference_bitwise_at_pairwise_sum_block_edges(k, m_seg):
    """K on either side of numpy's pairwise-summation block edges.

    A sum over the K users rounds by how numpy groups it, so the AO's
    cached rotations and phase terms and its screen buffers must round
    exactly as the reference's fresh arrays do.  SA1 and SA2 run from a
    random start, SA2's phases nonzero from its first step; K = 1 scores
    its Q = 23 grid rows with ``mse_rows``, every larger K screens them.
    """
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=m_seg, seg_length=2.0, d_x=20.0, k=k, seed=derive_seed(60, k))
    q = 23
    for run, arch in ((sa1_ao, "SA1"), (sa2_ao, "SA2")):
        init = random_init(scene, arch, seed=derive_seed(61, m_seg), delta_min=cfg.delta_min)
        rec = run(cfg, scene, q, init=init, max_iters=12)
        _assert_same_run(rec, reference_ao(cfg, scene, q, init.pa_x, init.phases, max_iters=12))


def test_ao_with_every_position_move_refused_matches_the_reference(monkeypatch):
    """Every position step proposes its worst feasible row, and the accept rule undoes it.

    Each undo restores the segment's PA, gain row and rotation and drops
    its cached phase terms, so the next phase pass sees exactly the state
    it would have seen had the PA never moved: the run is the reference's
    with every PA held, to the bit, evaluations included.
    """
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=5, seg_length=2.0, d_x=20.0, k=9, seed=derive_seed(62, 0))
    q = 41
    outcomes = []
    settle = optimizers._AOState.settle

    def recording(self, m, theta, psi=None, row=None):
        if psi is None:
            return settle(self, m, theta)
        moved = psi != self.psis[m]
        kept = settle(self, m, theta, psi, row)
        outcomes.append((moved, kept))
        return kept

    monkeypatch.setattr(optimizers._AOState, "settle", recording)
    monkeypatch.setattr(optimizers, "_screened_scan", _worst_row)
    init = random_init(scene, "SA2", seed=derive_seed(63, 0), delta_min=cfg.delta_min)
    rec = sa2_ao(cfg, scene, q, init=init, max_iters=6)
    assert len(outcomes) == 5 * rec.iterations
    assert all(moved and not kept for moved, kept in outcomes)
    _assert_same_run(
        rec, reference_ao(cfg, scene, q, init.pa_x, init.phases, max_iters=6, move_pas=False)
    )


def test_default_ao_start_refuses_infeasible_midpoints_before_any_sweep(monkeypatch):
    """Midpoints closer than delta_min raise ``placement_gains``' error before any AO state."""
    cfg = make_config(delta_min=2.5)  # segments are 2 m long
    scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=9)

    def no_state(*args, **kwargs):
        raise AssertionError("the AO built its state")

    for run, arch in ((sa1_ao, "SA1"), (sa2_ao, "SA2")):
        with pytest.raises(ValueError, match="infeasible placement") as want:
            placement_gains(cfg, scene, midpoint_init(scene, arch))
        with monkeypatch.context() as patch:
            patch.setattr(optimizers, "_AOState", no_state)
            with pytest.raises(ValueError) as got:
                run(cfg, scene, 20)
        assert str(got.value) == str(want.value)


def _full_position_scan(cfg, scene, placement, segment, q):
    """One segment's position update scoring every feasible grid point, then
    the incumbent, in one batch.  Returns (x, MSE, grid points dropped)."""
    others = np.delete(placement.pa_x, segment)
    cands = np.append(
        sa.feasible_grid(scene.layout, segment, q, others, cfg.delta_min), placement.pa_x[segment]
    )
    raw = sa.segment_gain_matrix(cfg, scene, segment, cands)
    gains = np.vstack([sa.segment_gain_matrix(cfg, scene, m, [x])[0]
                       for m, x in enumerate(placement.pa_x)])
    shares = optimizers.segment_shares(gains, placement.phases)
    rest = np.delete(shares, segment, axis=0).sum(axis=0)
    factor = 1.0 / math.sqrt(placement.pa_x.size)
    if placement.phases is not None:
        factor = factor * np.exp(1j * placement.phases[segment])
    mses = optimizers.mse_rows(rest[None, :] + raw * factor, cfg.p_tx, cfg.noise_var)
    j = int(np.argmin(mses))
    return float(cands[j]), float(mses[j]), q - (cands.size - 1)


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_sa1_position_update_is_the_full_scan_bitwise(kappa):
    """The AO's position step and accept rule return the full scan's position bits.

    The MSE returned is the accept rule's rescore of the whole channel, so
    it is ``evaluate_placement`` of the returned placement to the bit, and
    the full scan's to rounding.
    """
    cfg = make_config(kappa=kappa, delta_min=_WIDE_DELTA)
    dropped = 0
    for i in range(6):
        scene = make_scene(m_segments=3, seg_length=2.0, k=int(2 + i % 4), seed=derive_seed(70, i))
        for arch in ("SA1", "SA2"):
            start = random_init(scene, arch, derive_seed(71, i), cfg.delta_min)
            finish = (sa1_ao if arch == "SA1" else sa2_ao)(cfg, scene, 60, init=start).placement
            for placement in (start, finish):
                for seg in range(3):
                    x, mse, masked = _full_position_scan(cfg, scene, placement, seg, 60)
                    got_x, got_mse = sa1_position_update(cfg, scene, placement, seg, 60)
                    assert got_x == x
                    moved = placement.pa_x.copy()
                    moved[seg] = got_x
                    after = sa.Placement(arch, moved, phases=placement.phases)
                    assert got_mse == evaluate_placement(cfg, scene, after)
                    assert rel_err(got_mse, mse) < 1e-12
                    dropped += masked
    assert dropped > 0  # the spacing rule removed grid points


# (kappa, p_dbm): the suite's 10 dBm, then high SNR, where the noise term no
# longer hides rounding in the joint oracles' ratios
_JOINT_RADIO = pytest.mark.parametrize(
    "kappa,p_dbm",
    [(0.0, 10.0), (0.08, 10.0), (0.0, 70.0), (0.08, 70.0), (0.0, 100.0), (0.08, 100.0)],
    ids=["0.0", "0.08", "0.0-70dBm", "0.08-70dBm", "0.0-100dBm", "0.08-100dBm"],
)


@pytest.mark.parametrize("m_seg,q", [(1, 30), (2, 15), (5, 3)])
@_JOINT_RADIO
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_sa1_joint_matches_per_candidate_reference_bitwise(m_seg, q, kappa, p_dbm, delta_min):
    _check_sa1_joint(m_seg, q, kappa, delta_min, p_dbm)


def _check_sa1_joint(m_seg, q, kappa, delta_min, p_dbm=10.0):
    cfg, scene = _equivalence_case(m_seg, kappa, delta_min, p_dbm)
    rec = sa1_joint_exhaustive(cfg, scene, q)
    mids = midpoint_init(scene, "SA1").pa_x
    cands = [np.append(sa.grid_points(scene.layout, m, q), mids[m]) for m in range(m_seg)]
    best, pa_x, count = reference_sa1_joint(cfg, scene, cands)
    assert rec.final_mse == best
    assert rec.mse_trace == (best,)
    assert np.array_equal(rec.placement.pa_x, pa_x)
    assert rec.evaluations == count
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


@_JOINT_RADIO
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_sa2_joint_matches_per_candidate_reference_bitwise(kappa, p_dbm, delta_min):
    """The oracle over grid and midpoint at its 720 phases, and its scan at 48 phases."""
    cfg, scene = _equivalence_case(2, kappa, delta_min, p_dbm)
    q = 12
    rec = sa2_joint_exhaustive(cfg, scene, q)
    mids = midpoint_init(scene, "SA2").pa_x
    cands = [np.append(sa.grid_points(scene.layout, m, q), mids[m]) for m in range(2)]
    best, pa_x, theta0, count = reference_sa2_joint(cfg, scene, cands, optimizers._THETA_GRID)
    assert rec.final_mse == best
    assert rec.mse_trace == (best,)
    assert np.array_equal(rec.placement.pa_x, pa_x)
    assert np.array_equal(rec.placement.phases, [theta0, 0.0])
    assert rec.evaluations == count
    _check_sa2_joint(kappa, delta_min, p_dbm)


def _check_sa2_joint(kappa, delta_min, p_dbm=10.0, theta_grid=48, duplicates=False):
    """``_joint_scan`` against the reference; returns the winner's index in product order.

    The candidates are each segment's grid points and then its midpoint, or
    with ``duplicates`` every grid point again, so each tuple ties exactly
    with three later ones.
    """
    cfg, scene = _equivalence_case(2, kappa, delta_min, p_dbm)
    q = 12
    grid = [sa.grid_points(scene.layout, m, q) for m in range(2)]
    extra = grid if duplicates else [[x] for x in midpoint_init(scene, "SA2").pa_x]
    positions = [np.append(pts, e) for pts, e in zip(grid, extra)]
    thetas = np.arange(theta_grid) * (2.0 * math.pi / theta_grid)
    got, pa_x, j, count = optimizers._joint_scan(
        cfg, joint_candidates(cfg, scene, positions), np.exp(1j * thetas)
    )
    want = reference_sa2_joint(cfg, scene, positions, theta_grid)
    assert (got, thetas[j], count) == (want[0], want[2], want[3])
    assert np.array_equal(pa_x, want[1])
    return next(i for i, combo in enumerate(itertools.product(*positions)) if np.array_equal(combo, pa_x))


@pytest.mark.parametrize("theta_grid,duplicates", [(48, True), (2, False), (3, False), (7, False)])
@pytest.mark.parametrize("kappa", [0.0, 0.08])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_sa2_joint_tuple_stage_matches_the_reference_bitwise(theta_grid, duplicates, kappa, delta_min):
    """Exact ties across tuples, and coarse phase grids far from each tuple's best phase.

    Each tuple scores only the two grid phases around its best phase, so a
    wrong pair of cells would move the result or the tie's winner.
    """
    _check_sa2_joint(kappa, delta_min, theta_grid=theta_grid, duplicates=duplicates)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_joint_oracles_do_not_depend_on_the_block_size(monkeypatch, block, delta_min):
    """Blocks smaller than the phase grid (1) and dividing no count (7)."""
    monkeypatch.setattr(optimizers, "_TUPLE_BLOCK", block)
    for m_seg, q in ((1, 30), (2, 15), (5, 3)):
        _check_sa1_joint(m_seg, q, 0.08, delta_min)
    # the SA2 winner lies in a later block than the first
    assert _check_sa2_joint(0.08, delta_min) >= block


def test_joint_oracles_match_the_reference_when_every_pair_is_kept():
    """At 100 dB/m and 100 dBm the results are still the reference's to the bit.

    Gains at a segment's far end are 10^-10 of those at its feed, so
    rounding could swamp the smallest denominators.
    """
    _check_sa1_joint(2, 15, 100.0, None, p_dbm=100.0)
    _check_sa2_joint(100.0, None, p_dbm=100.0)


@pytest.mark.parametrize("theta_grid", [2, 7, 720])
@pytest.mark.parametrize("n_live", [0, 2])
def test_sa2_joint_scan_with_silent_segment_0_rows_matches_the_reference_bitwise(theta_grid, n_live):
    """Segment 0's share rows are zero away from its feed, as at 10^6 dB/m.

    Such a tuple's phase system is degenerate and every phase scores the
    same bits, so its cells are phases 0 and 1 and phase 0 wins, as in a
    scan of every phase.  With ``n_live`` positions right at segment 0's
    feed, which keep their gains, both kinds of tuple meet in one block.
    """
    cfg = make_config(kappa=1e6, p_dbm=40.0)
    scene = make_scene(m_segments=2, seg_length=2.0, d_x=20.0, k=5, seed=42)
    feed = scene.layout.feed_x
    offsets = [0.0, 2e-6][:n_live] + [0.5, 1.0, 1.5]
    positions = [feed[0] + np.array(offsets), feed[1] + np.array([0.0, 1e-6, 3e-6, 1e-5])]
    cands = joint_candidates(cfg, scene, positions)
    silent = cands[0][1][n_live:]
    assert not silent.any() and cands[0][1][:n_live].all() and cands[1][1].all()
    thetas = np.arange(theta_grid) * (2.0 * math.pi / theta_grid)
    got, pa_x, j, count = optimizers._joint_scan(cfg, cands, np.exp(1j * thetas))
    want = reference_sa2_joint(cfg, scene, positions, theta_grid)
    assert (got, thetas[j], count) == (want[0], want[2], want[3])
    assert np.array_equal(pa_x, want[1])


def _count_scored(monkeypatch):
    """Record the channels of each ``mse_rows`` call the optimizers make."""
    scored = []
    mse_rows = optimizers.mse_rows

    def counting(h, *args, **kwargs):
        scored.append(h.size // h.shape[-1])
        return mse_rows(h, *args, **kwargs)

    monkeypatch.setattr(optimizers, "mse_rows", counting)
    return scored


def test_joint_oracles_score_few_pairs(monkeypatch):
    """On oracle-check scenes an SA2 oracle call scores two phases per feasible tuple.

    Scoring more would stay exact and show only as a slowdown; this pins
    the pairs an SA2 call scores.  An SA1 call scores every feasible tuple
    once.
    """
    scored = _count_scored(monkeypatch)
    for drop in range(5):
        scene = wide_scene(k=3, seed=derive_seed(1, drop))
        for kappa in (0.0, 0.08):
            cfg = make_config(kappa=kappa)
            scored.clear()
            rec = sa1_joint_exhaustive(cfg, scene, 20)
            assert sum(scored) == rec.evaluations
            scored.clear()
            rec2 = sa2_joint_exhaustive(cfg, scene, 20)
            assert rec2.evaluations == rec.evaluations * optimizers._THETA_GRID
            assert sum(scored) == 2 * rec.evaluations


def _exact_ratio(a, b, rot, noise_over_p):
    """|sum h|^2 / (sum |h|^2 + noise_over_p) of h = rot * a + b, in rationals from the stored floats."""
    fr = fractions.Fraction
    rr, ri = fr(rot.real), fr(rot.imag)
    h = [(rr * fr(x.real) - ri * fr(x.imag) + fr(y.real), rr * fr(x.imag) + ri * fr(x.real) + fr(y.imag))
         for x, y in zip(a.tolist(), b.tolist())]
    num = sum(re for re, _ in h) ** 2 + sum(im for _, im in h) ** 2
    return num / (sum(re * re + im * im for re, im in h) + fr(noise_over_p))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_phase_cells_hold_the_best_grid_phase(k):
    """Each tuple's two cells include the grid phase of its largest exact ratio.

    Random splits rot * a + b, some nearly cancelling, on grids of 2 to 720
    phases, with ratios computed exactly from the stored floats.  Only the
    phases whose float ratio is within 1e-9 of the largest are computed
    exactly; the float ratios here are far closer than that to the exact
    ones, so the exact best phase is among them.
    """
    g = philox_stream(900 + k)
    n = 60

    def cplx(*shape):
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)

    a = 10.0 ** g.uniform(-6, -4, (n, 1)) * cplx(n, k)
    b = 10.0 ** g.uniform(-6, -4, (n, 1)) * cplx(n, k)
    phase = np.exp(1j * g.uniform(0, 2 * math.pi, (n, 1)))
    b[::5] = -phase[::5] * a[::5] * (1.0 + 1e-9 * cplx(12, k))
    noise_over_p = 1e-10 * 10.0 ** g.uniform(-4, 2)
    for n_rot in (2, 3, 7, 48, 720):
        rot = np.exp(1j * np.arange(n_rot) * (2 * math.pi / n_rot))
        cells = optimizers._phase_cells(a, b, noise_over_p, n_rot)
        assert cells.shape == (n, 2)
        assert np.all((0 <= cells[:, 0]) & (cells[:, 0] < cells[:, 1]) & (cells[:, 1] < n_rot))
        h = rot[:, None] * a[:, None]
        h += b[:, None]
        ratio = np.square(np.abs(h.sum(axis=-1))) / (np.square(np.abs(h)).sum(axis=-1) + noise_over_p)
        for t in range(n):
            near = np.flatnonzero(ratio[t] >= ratio[t].max() * (1.0 - 1e-9)).tolist()
            best = max(near, key=lambda r: _exact_ratio(a[t], b[t], rot[r], noise_over_p))
            assert best in cells[t]


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_ss_and_pass_final_mse_equals_the_recomputation_exactly(kappa):
    """Grid rows and the recomputation go through one MSE kernel, bit for bit."""
    cfg = make_config(kappa=kappa)
    for seed in range(200):
        scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=seed)
        for rec in (ss_two_stage(cfg, scene, 40), pass_baseline(cfg, scene, 40)):
            assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)


@pytest.mark.parametrize("seed", [4, 11, 15])
@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_ss_final_mse_is_the_chosen_segments_grid_minimum(seed, kappa):
    """SS's final MSE is a recomputable grid minimum, even when its trace rises.

    The trace is (best midpoint probe, grid minimum); an even Q grid misses
    the midpoint, so the second entry can exceed the first (seeds 4 and 11).
    The probes, read from the drop's start rows, are ``ss_mse_objective``'s
    bits, with or without a shared table.
    """
    cfg = make_config(kappa=kappa)
    scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=seed)
    q = 40
    rec = ss_two_stage(cfg, scene, q)
    m = rec.placement.segment
    probes = [ss_mse_objective(cfg, scene, i, x) for i, x in enumerate(scene.layout.midpoints.tolist())]
    assert m == int(np.argmin(probes))
    assert rec.mse_trace[0] == probes[m]
    shared = ss_two_stage(cfg, scene, q, grids=DropGrids(scene, q, (make_config(kappa=0.03), cfg)))
    assert (shared.mse_trace, shared.placement.segment, shared.evaluations) == (
        rec.mse_trace, m, rec.evaluations)
    assert shared.placement.pa_x.tobytes() == rec.placement.pa_x.tobytes()
    grid = sa.grid_points(scene.layout, m, q)
    grid_min = min(ss_mse_objective(cfg, scene, m, float(x)) for x in grid)
    assert rec.final_mse == rec.mse_trace[-1]
    assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)
    assert rel_err(rec.final_mse, grid_min) < 1e-12
    assert float(rec.placement.pa_x[0]) in grid
    if seed in (4, 11):
        assert rec.mse_trace[1] > rec.mse_trace[0]


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_ao_applies_the_audited_phase_angle_bitwise(kappa):
    """The AO's phase pass applies exactly phase_update_closed's angle.

    The AO keeps its segment shares up to date row by row and asks the
    closed-form solve for the angle alone; the audit helper rebuilds the
    split from the placement.  Replaying the first sweep's phase pass with
    the audit helpers must give the AO's phases to the bit.
    """
    cfg = make_config(kappa=kappa)
    changed = 0
    for i in range(8):
        scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=derive_seed(90, i))
        init = random_init(scene, "SA2", seed=derive_seed(91, i), delta_min=cfg.delta_min)
        rec = sa2_ao(cfg, scene, 31, init=init, max_iters=1)
        phases = init.phases.copy()
        current = evaluate_placement(cfg, scene, init)
        for m in range(3):
            here = sa.Placement("SA2", init.pa_x, phases=phases)
            theta = phase_update_closed(cfg, scene, here, m)[0]
            trial = phases.copy()
            trial[m] = theta
            candidate = evaluate_placement(cfg, scene, sa.Placement("SA2", init.pa_x, phases=trial))
            if candidate <= current:
                current, phases = candidate, trial
                changed += theta != init.phases[m]
        assert rec.placement.phases.tobytes() == phases.tobytes()
    assert changed > 0


def test_fully_masked_grid_keeps_the_incumbent():
    """A segment whose every grid point is too close to a neighbour keeps its PA.

    Segment 1's two grid points (24.95 and 25.05) sit on its neighbours' PAs,
    so the spacing rule drops both and only the incumbent is scored.
    """
    cfg = make_config(delta_min=0.049)
    scene = make_scene(m_segments=3, seg_length=0.1, d_x=50.0)
    feed = scene.layout.feed_x
    init = sa.Placement("SA1", np.array([feed[1], feed[1] + 0.05, feed[2]]))
    rec = sa1_ao(cfg, scene, 2, init=init, max_iters=1)
    assert np.array_equal(rec.placement.pa_x, init.pa_x)
    assert np.allclose(rec.placement.pa_x, [24.95, 25.0, 25.05], rtol=0, atol=1e-12)
    assert rec.evaluations == 8  # 1 + (2 + 1) + (0 + 1) + (2 + 1)
    assert not sa.validate_placement(scene.layout, rec.placement, cfg.delta_min)
    _assert_same_run(rec, reference_ao(cfg, scene, 2, init.pa_x, max_iters=1))


P_TX = 0.01


def _full_scan(gains, rest, factor, incumbent, feasible, noise_var):
    """Every feasible grid row, then the incumbent, scored in one batch.

    Returns the chosen grid row (None for the incumbent) and its MSE.
    """
    idx = np.arange(len(gains)) if feasible is None else np.flatnonzero(feasible)
    raw = np.vstack([gains[idx], incumbent])
    h = raw * factor
    h += rest
    mses = optimizers.mse_rows(h, P_TX, noise_var)
    j = int(np.argmin(mses))
    return (int(idx[j]) if j < idx.size else None), mses[j]


def _screen_cases(seed, k):
    """Random position updates, including the edge cases the screen must survive."""
    g = philox_stream(seed)

    def cplx(*shape):
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)

    for case in range(120):
        q = int(g.integers(1, 120))
        gains = np.ascontiguousarray(10.0 ** g.uniform(-5, -3, (q, 1)) * cplx(q, k))
        m_seg = (1, 2, 5)[case % 3]
        scale = 1.0 / math.sqrt(m_seg)
        # SA1 passes a real factor, SA2 a rotated one
        factor = scale if g.random() < 0.25 else scale * np.exp(1j * g.uniform(0, 2 * math.pi))
        # M = 1 has no other segment, so the rest sum is zero
        rest = np.zeros(k, dtype=complex) if m_seg == 1 else 1e-3 * cplx(k) * 10.0 ** g.uniform(-2, 0)
        if m_seg > 1 and case % 5 == 1:
            # rows that nearly cancel the rest: h_q = rest + factor * g_q ~ 0
            for i in g.choice(q, size=min(q, 3), replace=False):
                gains[i] = -rest / factor * (1.0 + 1e-9 * g.standard_normal())
        if case % 5 == 2 and q > 2:
            # exact duplicates, so ties must go to the lowest index
            src = g.choice(q, size=q // 2)
            gains[g.choice(q, size=q // 2)] = gains[src]
        if case % 5 == 3:
            # rows within rounding of each other: only the margin tells them apart
            gains[:] = gains[0] * (1.0 + 1e-15 * cplx(q, 1))
            if m_seg == 1:
                # with no rest sum, permuted rows tie exactly but round apart
                gains[:] = np.array([g.permutation(gains[0]) for _ in range(q)])
        # the incumbent is often a grid row itself, held by the AO
        held = int(g.integers(q)) if case % 2 else None
        incumbent = 1e-4 * cplx(k) if held is None else gains[held].copy()
        # 80 dB SNR every third case, otherwise the suite's -90 dBm noise
        noise_var = P_TX * 1e-8 * float(np.mean(np.abs(gains) ** 2)) if case % 3 == 2 else 1e-12
        mask_kind = case % 4
        if mask_kind == 0:
            feasible = None
        elif mask_kind == 1:
            feasible = g.random(q) < 0.5
        elif mask_kind == 2:
            feasible = np.zeros(q, dtype=bool)
        else:
            feasible = np.ones(q, dtype=bool)
        yield gains, rest, factor, incumbent, held, feasible, noise_var
        j, _ = _full_scan(gains, rest, factor, incumbent, feasible, noise_var)
        if j is not None:
            # the AO's PA already sits on the winning row, often the only row kept
            yield gains, rest, factor, gains[j].copy(), j, feasible, noise_var
        if q > 1 and feasible is None and j is not None and j > 0:
            # make the winner a duplicate of a lower row
            gains = gains.copy()
            i = int(g.integers(j))
            gains[i] = gains[j]
            yield gains, rest, factor, incumbent, None if held == i else held, None, noise_var


_EPS = float(np.finfo(float).eps)


def _rounding_coef(k: int, n_rows: int) -> float:
    """c, with c T / (2 (1 + K)) a bound on the rounding of a candidate's sums.

    A candidate is a channel h over K users built left to right from
    ``n_rows`` rows (f times the first, then the others added one by one),
    with T bounding every channel term of its numerator |sum h|^2 and its
    denominator sum |h|^2.  Scored by ``mse_rows`` or from row statistics,
    each sum is within (8K + 4n + 8) eps T of its exact value: (8K + 8)
    eps T covers the sums over K and the squares and products, and each of
    the n rows, scaled by f or added in, moves a sum by at most 4 eps T
    more, however the additions are grouped.
    """
    return 2.0 * (8 * k + 4 * n_rows + 8) * _EPS * (1 + k)


def _margin(ct: float, low: float, k: int) -> float:
    """2E, with E = c T / D + 8 K eps for ``ct`` = c T and ``low`` = D.

    Two ratios num / den, each at most K, whose sums are each within the
    bound of ``_rounding_coef`` and whose denominators are at least D
    differ by at most E; the last term covers the roundings relative to the
    ratio (the noise term's among them) and to K minus it.
    """
    return 2.0 * (ct / low + 8 * k * _EPS)


@pytest.mark.parametrize("k", [1, 2, 20])
def test_position_screen_picks_the_full_scans_row(k):
    """The screen's row scores within a rounding margin of the full scan's first minimum.

    A candidate of a position update is the channel h = f a + b over K
    users, f times a grid row a plus the rest sum b, and ``mse_rows``
    scores it.  The screen gives it the alignment ratio num / den, with
    num = |f|^2 |A|^2 + |B|^2 + 2 Re(f A conj(B)) and
    den = |f|^2 E_a + E_b + 2 Re(f C) + noise_var / p_tx, where A = sum a,
    B = sum b, C = sum a conj(b), E_a = sum |a|^2 and E_b = sum |b|^2.
    With weight = ||b||_1 + |f| max_q ||g_q||_1, every channel term of the
    numerator and the denominator is at most T = weight^2, and
    ``_rounding_coef`` (n = 2) budgets (8K + 16) eps T for each sum.  The
    screen stays well inside that budget.  With u = eps / 2, its num is a
    5-term dot, in any order, of the stored (|A|^2, Re A, Im A, E_a, 1)
    with the coefficients (|f|^2, 2 Re w, -2 Im w, 0, |B|^2), w = f conj(B).
    The stored A and the computed B are K-term sums, each off by at most
    sqrt(2) K u times its row's 1-norm, which moves |f A + B|^2 by at most
    1.5 K eps T.  |A|^2, rounded from the stored A, adds eps T.  The
    coefficients, |f|^2 and |B|^2 within 5u of their values and 2 Re w and
    2 Im w within 2 eps |f| |B|, add 3.3 eps T.  The dot's terms sum in
    magnitude to at most sqrt(2) T, so it adds 5 sqrt(2) u T < 3.6 eps T.
    That is (1.5 K + 8) eps T in all.  Its den is |f|^2 E_a + E_b + noise
    from the same dot, plus the cross term 2 Re(f C) as a 2K-term real dot,
    in BLAS order, of the gains' floats with b conj(2 f).  E_a (K rounded
    squared moduli) and E_b (2K rounded squares) are within (K + 5) eps T.
    The cross term's products sum in magnitude to at most
    2 |f| ||a||_1 ||b||_1 <= T / 2, so it is within (K + 2) eps T / 2, its
    vector's rounding included.  The 5-term dot and the last addition add
    3 eps T.  So num and den are each within (2K + 9) eps T.  With
    D = min den - c T > 0, a row's screened and ``mse_rows`` ratios differ
    by at most E, and ``_margin`` is 2E: the screen's row scores at most
    2E above the full scan's first minimum.  In near-ties it may pick
    another row; the AO's accept rule then rescores the channel, so the
    screen need not be exact.

    Each case also runs without row statistics, the small-grid scan, which
    scores every row with ``mse_rows`` and so picks the full scan's first
    minimum among the grid rows, bit for bit.  The full scan also scores
    the incumbent; where that wins, the accept rule undoes the move.
    """
    same = other = incumbent = bounded = 0
    for gains, rest, factor, held_row, _, feasible, noise_var in _screen_cases(300 + k, k):
        want_row, _ = _full_scan(gains, rest, factor, held_row, feasible, noise_var)
        rows = np.arange(len(gains)) if feasible is None else np.flatnonzero(feasible)
        h = gains[rows] * factor
        h += rest
        mses = optimizers.mse_rows(h, P_TX, noise_var)
        scanned = optimizers._screened_scan(gains, None, rest, factor, feasible, P_TX, noise_var)
        row = optimizers._screened_scan(
            gains, DropGrids._row_stats(gains), rest, factor, feasible, P_TX, noise_var
        )
        if not rows.size:
            assert row is None and scanned is None
            continue
        first = int(np.argmin(mses))
        assert scanned == rows[first]
        assert want_row in (None, scanned)
        assert row in rows
        weight = np.abs(rest).sum() + abs(factor) * np.abs(gains).sum(axis=1).max()
        ct = _rounding_coef(k, 2) * weight * weight
        low = float((np.square(np.abs(h)).sum(axis=1) + noise_var / P_TX).min()) - ct
        if low > 0.0:
            assert mses[np.searchsorted(rows, row)] <= mses[first] + _margin(ct, low, k)
            bounded += 1
        if want_row is None:
            incumbent += 1
        elif row == want_row:
            same += 1
        else:
            other += 1
    assert same > 0 and incumbent > 0
    assert bounded > (same + other + incumbent) // 2


def _worst_row(gains, stats, rest, factor, feasible, p_tx, noise_var, work=None):
    """The first worst feasible row by ``mse_rows``, or None: a stand-in for ``_screened_scan``."""
    h = gains * factor
    h += rest
    mses = optimizers.mse_rows(h, p_tx, noise_var)
    if feasible is not None:
        if not feasible.any():
            return None
        mses[~feasible] = -np.inf
    return int(np.argmax(mses))


def _random_row(seed):
    """A stand-in for ``_screened_scan`` that picks a seeded random feasible row."""
    g = philox_stream(seed)

    def pick(gains, stats, rest, factor, feasible, p_tx, noise_var, work=None):
        rows = np.arange(len(gains)) if feasible is None else np.flatnonzero(feasible)
        return int(g.choice(rows)) if rows.size else None

    return pick


@pytest.mark.parametrize("pick", ["worst", "random"])
def test_ao_correctness_does_not_rest_on_the_screen(monkeypatch, pick):
    """Whatever row the position step proposes, the accept rule keeps the AO sound.

    With ``_screened_scan`` replaced by the worst feasible row or a seeded
    random one, SA1 and SA2 traces never increase, ``final_mse`` is
    ``evaluate_placement`` of the returned placement exactly, and the
    placement keeps the spacing rule, on sweep-k (M = 5, Q = 1000) and
    oracle-check (M = 2, K = 3, Q = 20) sized scenes.
    """
    stand_in = _worst_row if pick == "worst" else _random_row(77)
    asked = []

    def recording(gains, *args):
        asked.append(len(gains))
        return stand_in(gains, *args)

    monkeypatch.setattr(optimizers, "_screened_scan", recording)
    cases = [
        (make_config(kappa=kappa), make_scene(m_segments=5, seg_length=1.0, d_x=50.0, d_y=20.0,
                                              k=k, seed=derive_seed(1, k)), 1000)
        for k in (2, 6) for kappa in (0.0, 0.08)
    ] + [
        (make_config(kappa=kappa, delta_min=0.3),
         make_scene(m_segments=2, seg_length=1.0, d_x=20.0, k=3, seed=derive_seed(1, drop)), 20)
        for drop in range(4) for kappa in (0.0, 0.08)
    ]
    moved = 0
    for cfg, scene, q in cases:
        for run in (sa1_ao, sa2_ao):
            asked.clear()
            rec = run(cfg, scene, q, max_iters=8)
            # every position step of the run, on either grid size, asked the stand-in
            assert asked == [q] * (scene.layout.m_segments * rec.iterations)
            assert all(b <= a for a, b in zip(rec.mse_trace, rec.mse_trace[1:]))
            assert rec.final_mse == evaluate_placement(cfg, scene, rec.placement)
            assert not sa.validate_placement(scene.layout, rec.placement, cfg.delta_min)
            moved += not np.array_equal(rec.placement.pa_x, scene.layout.midpoints)
    if pick == "random":
        assert moved > 0  # the accept rule kept some of the proposed moves


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_small_grids_confirm_every_feasible_row_bitwise(monkeypatch, kappa):
    """Oracle-check's Q = 20, K = 3 is under the size rule: each update scores its grid in one batch.

    No update builds row statistics.  Each position update scores the
    whole grid with one ``mse_rows`` call, with no incumbent row, masks the
    infeasible rows and hands the first best to the accept rule.  SA1 and
    SA2 match the per-candidate reference to the bit, evaluations included.
    """
    batches = _count_batches(monkeypatch)
    monkeypatch.setattr(DropGrids, "_row_stats", None)  # any call fails
    assert 20 * 3 <= optimizers._FULL_SCAN_SIZE
    cfg = make_config(kappa=kappa, delta_min=0.3)
    dropped = 0
    for drop in range(4):
        scene = make_scene(m_segments=2, seg_length=1.0, d_x=20.0, k=3, seed=derive_seed(1, drop))
        for arch, run in (("SA1", sa1_ao), ("SA2", sa2_ao)):
            init = midpoint_init(scene, arch)
            batches.clear()
            rec = run(cfg, scene, 20, init=init)
            ref = reference_ao(cfg, scene, 20, init.pa_x, init.phases)
            _assert_same_run(rec, ref)
            assert batches == [20] * (2 * rec.iterations)
            dropped += ref["dropped"]
    assert dropped > 0  # the spacing mask was exercised


def _count_batches(monkeypatch):
    """Record the number of candidates of every batch ``mse_rows`` scores in the optimizers."""
    batches = []
    mse_rows = optimizers.mse_rows

    def counting(h, *args, **kwargs):
        if h.ndim == 2:  # a batch of candidates, not one channel
            batches.append(h.shape[0])
        return mse_rows(h, *args, **kwargs)

    monkeypatch.setattr(optimizers, "mse_rows", counting)
    return batches


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_large_grid_position_steps_score_no_batch_bitwise(monkeypatch, kappa):
    """M = 5, Q = 1000: a position step is the screen's row and one ``settle`` rescore.

    No update scores a batch of candidates with ``mse_rows``, on sweep-k
    scenes run to convergence, yet SA1 and SA2 match the per-candidate
    reference to the bit, evaluations included.  With every position move
    refused, each PA stays at its midpoint, off the grid, and every update
    still proposes its row.
    """
    batches = _count_batches(monkeypatch)
    cfg = make_config(kappa=kappa)
    for k in (2, 20):
        scene = make_scene(m_segments=5, seg_length=1.0, d_x=50.0, d_y=20.0, k=k, seed=derive_seed(1, k))
        sa1_ao(cfg, scene, 1000)
        sa2_ao(cfg, scene, 1000)
    scene = make_scene(m_segments=5, seg_length=1.0, d_x=50.0, d_y=20.0, k=2, seed=derive_seed(2, 2))
    for arch, run in (("SA1", sa1_ao), ("SA2", sa2_ao)):
        init = midpoint_init(scene, arch)
        rec = run(cfg, scene, 1000, max_iters=6)
        _assert_same_run(rec, reference_ao(cfg, scene, 1000, init.pa_x, init.phases, max_iters=6))
        assert rec.iterations > 2
    assert batches == []

    refused = []
    settle = optimizers._AOState.settle

    def refuse_moves(self, m, theta, psi=None, row=None):
        if psi is None:
            return settle(self, m, theta)
        refused.append(m)
        return False

    monkeypatch.setattr(optimizers._AOState, "settle", refuse_moves)
    rec = sa2_ao(cfg, scene, 1000, max_iters=3)
    assert rec.iterations > 1
    assert np.array_equal(rec.placement.pa_x, scene.layout.midpoints)
    assert refused == list(range(5)) * rec.iterations
    assert batches == []


def test_ao_settle_reports_whether_it_kept_the_change():
    """A move that raises the MSE is undone to the bit and reported as not kept."""
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=7)
    pts, gains = DropGrids(scene, 41, (cfg,)).grid(cfg, 1)
    state = optimizers._AOState(cfg, scene, midpoint_init(scene, "SA2"))
    mses = [evaluate_placement(cfg, scene, sa.Placement("SA2", np.array([state.psis[0], x, state.psis[2]]),
                                                        phases=state.thetas.copy()))
            for x in pts.tolist()]
    worst, best = int(np.argmax(mses)), int(np.argmin(mses))
    assert mses[worst] > state.current > mses[best]
    before = [a.tobytes() for a in (state.psis, state.thetas, state.unphased, state.shares)]
    assert not state.settle(1, state.thetas[1], pts[worst], gains[worst])
    assert not state.settle(1, state.thetas[1])  # a step that changes nothing
    assert [a.tobytes() for a in (state.psis, state.thetas, state.unphased, state.shares)] == before
    assert state.settle(1, state.thetas[1], pts[best], gains[best])
    assert state.current == mses[best] and state.psis[1] == pts[best]
