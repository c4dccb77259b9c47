import itertools
import math

import numpy as np
import pytest

import swan_aircomp as sa
from swan_aircomp import optimizers
from swan_aircomp.metrics import mse_min
from swan_aircomp.optimizers import (
    baseline_layout,
    baseline_scene,
    evaluate_placement,
    midpoint_init,
    pass_baseline,
    phase_update_closed,
    random_init,
    sa1_ao,
    sa1_joint_exhaustive,
    sa1_position_update,
    sa2_ao,
    sa2_joint_exhaustive,
    ss_exhaustive,
    ss_mse_objective,
    ss_two_stage,
)
from swan_aircomp.rng import derive_seed, philox_stream
from conftest import (
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
    h = sa.eff_channel_ss(cfg, scene, 0, 49.3)
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
    assert rel_err(rec.final_mse, evaluate_placement(cfg, scene, rec.placement)) < 1e-12


def test_ss_exhaustive_counters():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=15)
    rec = ss_exhaustive(cfg, scene, 333)
    assert rec.evaluations == 4 * 333
    assert rel_err(rec.final_mse, evaluate_placement(cfg, scene, rec.placement)) < 1e-12


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
    """SA1/SA2 record the MSE their placement recomputes to, bit for bit.

    Criterion 10's two-segment scenes, where SA2's closed-form angle often
    lands within rounding of 0; the reported phases must be the scored ones.
    """
    cfg = make_config(kappa=kappa)
    region = sa.ServiceRegion(12.0, 6.0)
    layout = sa.build_layout(2, 1.0, region, 3.0)
    for i in range(60):
        scene = sa.Scene(region, layout, sa.sample_users(region, 3, derive_seed(1, i)))
        r1, r2 = sa1_ao(cfg, scene, 20), sa2_ao(cfg, scene, 20)
        for rec in (r1, r2):
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
    cands = [sa.grid_points(scene.layout, m, q) for m in range(2)]
    best = (math.inf, None)
    for x0, x1 in itertools.product(*cands):
        if abs(x0 - x1) < cfg.delta_min:
            continue
        h = sa.eff_channel_sa1(cfg, scene, sa.Placement("SA1", np.array([x0, x1])))
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
    assert rec.evaluations < 11 * 11


def test_sa1_joint_exhaustive_caps_grid_size():
    cfg = make_config()
    scene = make_scene(m_segments=4, seg_length=1.0, d_x=40.0, k=2, seed=36)
    with pytest.raises(ValueError):
        sa1_joint_exhaustive(cfg, scene, 40)


def test_sa2_joint_exhaustive_contract():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=3, seed=37)
    rec = sa2_joint_exhaustive(cfg, scene, 12, theta_grid=360)
    assert rec.placement.phases[1] == 0.0
    assert rel_err(rec.final_mse, evaluate_placement(cfg, scene, rec.placement)) < 1e-12
    # shifting both phases by a constant leaves the MSE unchanged
    shifted = sa.Placement(
        "SA2", rec.placement.pa_x, phases=rec.placement.phases + 1.234
    )
    assert rel_err(evaluate_placement(cfg, scene, shifted), rec.final_mse) < 1e-12
    with pytest.raises(ValueError):
        sa2_joint_exhaustive(cfg, make_scene(m_segments=3), 10)


def test_sa2_joint_exhaustive_is_a_lower_bound_for_positions_on_grid():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, d_x=12.0, d_y=6.0, k=2, seed=38)
    rec = sa2_joint_exhaustive(cfg, scene, 10, theta_grid=240)
    # any on-grid placement with any scanned phase is dominated
    x0 = sa.grid_points(scene.layout, 0, 10)[3]
    x1 = sa.grid_points(scene.layout, 1, 10)[7]
    probe = sa.Placement(
        "SA2", np.array([x0, x1]), phases=np.array([2 * math.pi * 11 / 240, 0.0])
    )
    assert evaluate_placement(cfg, scene, probe) >= rec.final_mse - 1e-12


# Precomputed grid gains against the per-candidate reference path: the AO
# and the joint oracles must return bit-identical results and counters.

_WIDE_DELTA = 0.7  # m; with 2 m segments this drops grid points near neighbours


def _equivalence_case(m_seg, kappa, delta_min):
    cfg = make_config(kappa=kappa, delta_min=delta_min)
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
@pytest.mark.parametrize("init_kind", ["midpoint", "random"])
def test_ao_matches_per_candidate_reference_bitwise(m_seg, kappa, delta_min, init_kind):
    cfg, scene = _equivalence_case(m_seg, kappa, delta_min)
    q = 41
    runs = []
    for arch in ("SA1", "SA2"):
        if init_kind == "midpoint":
            init = midpoint_init(scene, arch)
        else:
            init = random_init(scene, arch, seed=3 + m_seg, delta_min=cfg.delta_min)
        if arch == "SA1":
            runs.append((sa1_ao(cfg, scene, q, init=init), reference_ao(cfg, scene, q, init.pa_x), init))
        else:
            runs.append((sa2_ao(cfg, scene, q, init=init),
                         reference_ao(cfg, scene, q, init.pa_x, init.phases), init))
    for rec, ref, init in runs:
        _assert_same_run(rec, ref)
        # the AO's incumbent channel and the recomputation share one assembly
        assert rec.mse_trace[0] == evaluate_placement(cfg, scene, init)
    if delta_min == _WIDE_DELTA and m_seg > 1:
        assert sum(ref["dropped"] for _, ref, _ in runs) > 0  # the spacing mask was exercised


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
    """The AO's screened step returns the full scan's position and MSE bits."""
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
                    got = sa1_position_update(cfg, scene, placement, seg, 60)
                    assert np.array(got).tobytes() == np.array([x, mse]).tobytes()
                    dropped += masked
    assert dropped > 0  # the spacing rule removed grid points


@pytest.mark.parametrize("m_seg,q", [(1, 30), (2, 15), (5, 3)])
@pytest.mark.parametrize("kappa", [0.0, 0.08])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_sa1_joint_matches_per_candidate_reference_bitwise(m_seg, q, kappa, delta_min):
    _check_sa1_joint(m_seg, q, kappa, delta_min)


def _check_sa1_joint(m_seg, q, kappa, delta_min):
    cfg, scene = _equivalence_case(m_seg, kappa, delta_min)
    extra = [[float(x)] for x in midpoint_init(scene, "SA1").pa_x]
    rec = sa1_joint_exhaustive(cfg, scene, q, extra_candidates=extra)
    cands = [np.append(sa.grid_points(scene.layout, m, q), extra[m]) for m in range(m_seg)]
    best, pa_x, count = reference_sa1_joint(cfg, scene, cands)
    assert rec.final_mse == best
    assert rec.mse_trace == (best,)
    assert np.array_equal(rec.placement.pa_x, pa_x)
    assert rec.evaluations == count


@pytest.mark.parametrize("kappa", [0.0, 0.08])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_sa2_joint_matches_per_candidate_reference_bitwise(kappa, delta_min):
    _check_sa2_joint(kappa, delta_min)


def _check_sa2_joint(kappa, delta_min):
    cfg, scene = _equivalence_case(2, kappa, delta_min)
    q, theta_grid = 12, 48
    extra = [[float(x)] for x in midpoint_init(scene, "SA2").pa_x]
    rec = sa2_joint_exhaustive(cfg, scene, q, theta_grid=theta_grid, extra_candidates=extra)
    cands = [np.append(sa.grid_points(scene.layout, m, q), extra[m]) for m in range(2)]
    best, pa_x, theta0, count = reference_sa2_joint(cfg, scene, cands, theta_grid)
    assert rec.final_mse == best
    assert rec.mse_trace == (best,)
    assert np.array_equal(rec.placement.pa_x, pa_x)
    assert np.array_equal(rec.placement.phases, [theta0, 0.0])
    assert rec.evaluations == count


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("delta_min", [None, _WIDE_DELTA])
def test_joint_oracles_do_not_depend_on_the_block_size(monkeypatch, block, delta_min):
    """Blocks smaller than the phase grid (1) and dividing no count (7)."""
    monkeypatch.setattr(optimizers, "_TUPLE_BLOCK", block)
    for m_seg, q in ((1, 30), (2, 15), (5, 3)):
        _check_sa1_joint(m_seg, q, 0.08, delta_min)
    _check_sa2_joint(0.08, delta_min)


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
    """
    cfg = make_config(kappa=kappa)
    scene = make_scene(m_segments=4, seg_length=1.5, k=5, seed=seed)
    q = 40
    rec = ss_two_stage(cfg, scene, q)
    m = rec.placement.segment
    grid = sa.grid_points(scene.layout, m, q)
    grid_min = min(ss_mse_objective(cfg, scene, m, float(x)) for x in grid)
    assert rec.final_mse == rec.mse_trace[-1]
    assert rel_err(rec.final_mse, evaluate_placement(cfg, scene, rec.placement)) < 1e-12
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
        # the incumbent is often a grid row itself
        incumbent = gains[int(g.integers(q))].copy() if case % 2 else 1e-4 * cplx(k)
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
        yield gains, rest, factor, incumbent, feasible, noise_var
        if q > 1 and feasible is None:
            # make the winner a duplicate of a lower row
            j, _ = _full_scan(gains, rest, factor, incumbent, None, noise_var)
            if j is not None and j > 0:
                gains = gains.copy()
                gains[int(g.integers(j))] = gains[j]
                yield gains, rest, factor, incumbent, None, noise_var


@pytest.mark.parametrize("k", [1, 2, 20])
def test_position_screen_picks_the_full_scans_row(k):
    """Screen-then-confirm chooses the full scan's row with the same MSE bits."""
    kept = 0
    for gains, rest, factor, incumbent, feasible, noise_var in _screen_cases(300 + k, k):
        want_row, want_mse = _full_scan(gains, rest, factor, incumbent, feasible, noise_var)
        rows, mses = optimizers._screened_scan(
            optimizers._grid_stats(gains), rest, factor, incumbent, feasible, P_TX, noise_var
        )
        j = int(np.argmin(mses))
        assert (int(rows[j]) if j < rows.size else None) == want_row
        assert mses[j].tobytes() == want_mse.tobytes()
        if feasible is not None:
            assert feasible[rows].all()
        kept += rows.size
    assert kept > 0


def test_position_screen_confirms_few_rows(monkeypatch):
    """On sweep-k scenes the exact path scores about one grid row per update.

    A loose screening margin would stay exact but score many rows, which
    shows only as a slowdown; this pins the mean rows confirmed per update.
    """
    confirmed = []
    mse_rows = optimizers.mse_rows

    def counting(h, *args, **kwargs):
        if h.ndim == 2:  # a position update's confirm batch, incumbent last
            confirmed.append(h.shape[0] - 1)
        return mse_rows(h, *args, **kwargs)

    monkeypatch.setattr(optimizers, "mse_rows", counting)
    for k in (2, 20):
        scene = make_scene(m_segments=5, seg_length=1.0, d_x=50.0, d_y=20.0, k=k, seed=derive_seed(1, k))
        for kappa in (0.0, 0.08):
            cfg = make_config(kappa=kappa)
            sa1_ao(cfg, scene, 1000)
            sa2_ao(cfg, scene, 1000)
    assert len(confirmed) > 100
    assert np.mean(confirmed) <= 2.0
