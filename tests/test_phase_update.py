import math

import numpy as np
import pytest

import swan_aircomp as sa
from swan_aircomp.audit import _closed_form_phase, mse_min, phase_objective, phase_update_closed
from swan_aircomp.optimizers import random_init
from swan_aircomp.rng import philox_stream, derive_seed
from conftest import make_config, make_scene, rel_err, scene_with_users

TWO_PI = 2.0 * math.pi


def random_split(g, k):
    a = g.standard_normal(k) + 1j * g.standard_normal(k)
    b = g.standard_normal(k) + 1j * g.standard_normal(k)
    scale = 10.0 ** g.uniform(-3, 0)
    return scale * a, scale * b


def phi_direct(a, b, noise_over_p, theta):
    h = b + np.exp(1j * theta) * a
    return abs(h.sum()) ** 2 / (float((np.abs(h) ** 2).sum()) + noise_over_p)


def test_single_user_aligns_the_two_terms():
    cfg = make_config()
    scene = scene_with_users([[5.9, 0.8]], m_segments=2, seg_length=1.0, d_x=12.0)
    placement = sa.Placement(
        "SA2", scene.layout.feed_x + 0.5, phases=np.zeros(2)
    )
    theta, inter = phase_update_closed(cfg, scene, placement, 0)
    want = (np.angle(inter.b.sum()) - np.angle(inter.a.sum())) % TWO_PI
    diff = abs(theta - want) % TWO_PI
    assert min(diff, TWO_PI - diff) < 1e-9


def test_zero_share_keeps_current_phase():
    g = philox_stream(3)
    b = g.standard_normal(4) + 1j * g.standard_normal(4)
    theta, inter = _closed_form_phase(np.zeros(4, dtype=complex), b, 1e-10, 1.234)
    assert theta == pytest.approx(1.234, abs=0.0)
    assert inter.candidates == (theta, theta)


def test_candidates_and_intermediates_are_consistent():
    g = philox_stream(4)
    for _ in range(100):
        k = int(g.integers(1, 9))
        a, b = random_split(g, k)
        nop = 10.0 ** g.uniform(-12, -2)
        theta, inter = _closed_form_phase(a, b, nop, 0.0)
        assert rel_err(inter.alpha, abs(inter.cap_a) ** 2 + abs(inter.cap_b) ** 2) < 1e-12
        assert inter.gamma > 0
        assert rel_err(inter.r_norm, math.hypot(inter.coef_a, inter.coef_b)) < 1e-12
        if inter.r_norm > 0:
            assert abs(inter.xi) <= inter.r_norm * (1 + 1e-9)
        assert 0.0 <= theta < TWO_PI
        for c in inter.candidates:
            assert 0.0 <= c < TWO_PI


def test_beats_dense_grid_on_random_instances():
    """Closed form matches a 20001 point grid to 1e-9 on synthetic splits."""
    g = philox_stream(5)
    grid = np.linspace(0.0, TWO_PI, 20001)
    rot = np.exp(1j * grid)
    for _ in range(200):
        k = int(g.integers(1, 9))
        a, b = random_split(g, k)
        nop = 10.0 ** g.uniform(-12, -2)
        theta, _ = _closed_form_phase(a, b, nop, 0.0)
        h = b[None, :] + rot[:, None] * a[None, :]
        num = np.abs(h.sum(axis=1)) ** 2
        den = (np.abs(h) ** 2).sum(axis=1) + nop
        grid_best = float(np.max(num / den))
        assert phi_direct(a, b, nop, theta) >= grid_best - 1e-9


def test_candidates_stay_below_two_pi_when_b_is_aligned_with_a():
    """With b a positive multiple of a the best phase is 0, and the candidate
    phi - arccos(xi / r_norm) lands a rounding error below it; ``%`` alone
    would round that up to exactly 2 pi, a phase the AO would then score."""
    a = np.array([1.0, np.exp(0.01j)])
    theta, inter = _closed_form_phase(a, 1.8 * a, 0.1, 1.0)
    assert inter.phi - math.acos(min(1.0, inter.xi / inter.r_norm)) < 0.0
    assert theta == 0.0
    assert all(0.0 <= t < TWO_PI for t in inter.candidates)


def test_stationarity_residual():
    g = philox_stream(6)
    for _ in range(100):
        a, b = random_split(g, int(g.integers(1, 9)))
        nop = 1e-10
        theta, inter = _closed_form_phase(a, b, nop, 0.0)
        if inter.r_norm == 0.0:
            continue
        resid = inter.xi - (
            inter.coef_a * math.sin(theta) + inter.coef_b * math.cos(theta)
        )
        assert abs(resid) <= 1e-8 * inter.r_norm


def test_update_never_worsens_the_placement_objective():
    cfg = make_config()
    g = philox_stream(7)
    for i in range(20):
        scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=derive_seed(70, i))
        phases = g.uniform(0, TWO_PI, 3)
        placement = sa.Placement("SA2", scene.layout.feed_x + 1.0, phases=phases)
        seg = int(g.integers(0, 3))
        before = mse_min(
            sa.eff_channel(cfg, scene, placement), cfg.p_tx, cfg.noise_var
        ).mse
        theta, _ = phase_update_closed(cfg, scene, placement, seg)
        new_phases = phases.copy()
        new_phases[seg] = theta
        after = mse_min(
            sa.eff_channel(
                cfg, scene, sa.Placement("SA2", placement.pa_x, phases=new_phases)
            ),
            cfg.p_tx,
            cfg.noise_var,
        ).mse
        assert after <= before + 1e-12


def test_phase_objective_matches_trig_rational_form():
    cfg = make_config()
    scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=71)
    placement = sa.Placement(
        "SA2", scene.layout.feed_x + 0.8, phases=np.array([0.4, 1.3, 5.1])
    )
    _, inter = phase_update_closed(cfg, scene, placement, 1)
    for theta in (0.0, 0.7, 2.0, 4.5, 6.1):
        got = phase_objective(cfg, scene, placement, 1, theta)
        want = (inter.alpha + 2 * inter.beta_mag * math.cos(theta + inter.p)) / (
            inter.gamma + 2 * inter.delta_mag * math.cos(theta + inter.q)
        )
        assert rel_err(got, want) < 1e-12


def test_phase_objective_periodicity():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0, k=3, seed=72)
    placement = sa.Placement(
        "SA2", scene.layout.feed_x + 0.5, phases=np.array([0.0, 2.0])
    )
    for theta in (0.0, 1.1, 3.3):
        a = phase_objective(cfg, scene, placement, 0, theta)
        b = phase_objective(cfg, scene, placement, 0, theta + TWO_PI)
        assert rel_err(a, b) < 1e-12


def test_phase_objective_flat_when_rest_is_empty():
    # M=1: the "rest" channel b is zero, so the ratio cannot depend on theta
    cfg = make_config()
    scene = make_scene(m_segments=1, seg_length=3.0, k=4, seed=73)
    placement = sa.Placement(
        "SA2", scene.layout.feed_x + 1.5, phases=np.array([0.0])
    )
    vals = [phase_objective(cfg, scene, placement, 0, t) for t in (0.0, 1.0, 2.5, 5.0)]
    assert max(vals) - min(vals) <= 1e-12 * max(vals)


def test_mse_equals_k_minus_phase_objective():
    cfg = make_config()
    scene = make_scene(m_segments=3, seg_length=2.0, k=6, seed=74)
    base = np.array([0.2, 1.9, 3.7])
    placement = sa.Placement("SA2", scene.layout.feed_x + 1.2, phases=base)
    for theta in (0.0, 0.9, 4.2):
        phases = base.copy()
        phases[2] = theta
        h = sa.eff_channel(
            cfg, scene, sa.Placement("SA2", placement.pa_x, phases=phases)
        )
        mse = mse_min(h, cfg.p_tx, cfg.noise_var).mse
        phi = phase_objective(cfg, scene, placement, 2, theta)
        assert rel_err(mse, scene.k - phi) < 1e-10


def test_phase_split_is_the_ao_split_bitwise():
    """a is the segment's scaled gain row, b the rest of the phased shares,
    each rounded as the AO reference rounds them."""
    cfg = make_config(kappa=0.08)
    m_seg = 4
    for i in range(30):
        scene = make_scene(m_segments=m_seg, seg_length=1.5, k=6, seed=derive_seed(75, i))
        placement = random_init(scene, "SA2", derive_seed(76, i), cfg.delta_min)
        gains = np.vstack(
            [sa.segment_gain_matrix(cfg, scene, m, [x])[0] for m, x in enumerate(placement.pa_x)]
        )
        scaled = gains * (1.0 / math.sqrt(m_seg))
        phased = scaled * np.exp(1j * placement.phases)[:, None]
        for m in range(m_seg):
            _, inter = phase_update_closed(cfg, scene, placement, m)
            assert np.array_equal(inter.a, scaled[m])
            assert np.array_equal(inter.b, phased[[j for j in range(m_seg) if j != m]].sum(axis=0))


def test_phase_update_requires_sa2():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0)
    sa1 = sa.Placement("SA1", scene.layout.feed_x + 0.5)
    with pytest.raises(ValueError):
        phase_update_closed(cfg, scene, sa1, 0)
    good = sa.Placement("SA2", scene.layout.feed_x + 0.5, phases=np.zeros(2))
    with pytest.raises(ValueError):
        phase_update_closed(cfg, scene, good, 5)
