import math

import numpy as np
import pytest

import swan_aircomp as sa
from swan_aircomp.optimizers import DropGrids
from conftest import (
    make_config,
    make_scene,
    naive_combined_channel,
    naive_user_gain,
    rel_err,
    scene_with_users,
)

TWO_PI = 2.0 * math.pi


def test_unit_conversions():
    assert sa.dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
    assert sa.dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)
    assert sa.dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert sa.watts_to_dbm(0.01) == pytest.approx(10.0, abs=1e-12)


def test_radio_config_derived_values():
    """Frozen constants for the 28 GHz / n_eff=1.4 operating point."""
    cfg = make_config()
    assert rel_err(cfg.wavelength, 0.0107068735) < 1e-12
    assert rel_err(cfg.eta, 7.2594817055401168e-07) < 1e-12
    assert rel_err(cfg.wavenumber, 586.8366061464709) < 1e-12
    assert rel_err(cfg.guided_wavelength, 0.0076477667857142865) < 1e-12
    assert rel_err(cfg.guided_phase_rate, 821.57124860505917) < 1e-12
    # cross-relations between the derived quantities
    assert rel_err(cfg.eta, (cfg.wavelength / (4 * math.pi)) ** 2) < 1e-12
    assert rel_err(cfg.guided_phase_rate, cfg.wavenumber * cfg.n_eff) < 1e-12


def test_radio_config_validation():
    good = dict(f_c=28e9, n_eff=1.4, kappa=0.0, delta_min=0.005,
                p_tx=0.01, noise_var=1e-12)
    for field, bad in (
        ("f_c", 0.0),
        ("n_eff", 0.9),
        ("kappa", -1.0),
        ("delta_min", 0.0),
        ("p_tx", 0.0),
        ("noise_var", 0.0),
    ):
        with pytest.raises(ValueError):
            sa.RadioConfig(**{**good, field: bad})


def test_freespace_gain_vertical_link():
    cfg = make_config()
    g = sa.freespace_gain(cfg, (0.0, 0.0, 0.0), (0.0, 0.0, 3.0))
    assert rel_err(abs(g), 0.00028400864043077041) < 1e-12
    want = (-cfg.wavenumber * 3.0) % TWO_PI
    assert abs(np.angle(g) % TWO_PI - want) < 1e-9


def test_freespace_gain_inverse_distance():
    cfg = make_config()
    g2 = sa.freespace_gain(cfg, (0.0, 0.0), (2.0, 0.0))
    g4 = sa.freespace_gain(cfg, (0.0, 0.0), (4.0, 0.0))
    assert rel_err(abs(g2), 2.0 * abs(g4)) < 1e-14


def test_freespace_gain_errors():
    cfg = make_config()
    with pytest.raises(ValueError):
        sa.freespace_gain(cfg, (1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        sa.freespace_gain(cfg, (1.0, 2.0), (1.0, 2.0, 3.0))


def test_inwaveguide_gain_zero_length_is_unity():
    assert sa.inwaveguide_gain(make_config(kappa=0.0), 5.0, 5.0) == 1.0 + 0.0j
    assert sa.inwaveguide_gain(make_config(kappa=0.08), 5.0, 5.0) == 1.0 + 0.0j


def test_inwaveguide_gain_full_guided_wavelength_wraps():
    cfg = make_config(kappa=0.0)
    g = sa.inwaveguide_gain(cfg, cfg.guided_wavelength, 0.0)
    assert abs(g - 1.0) < 1e-9


def test_inwaveguide_gain_attenuation():
    cfg = make_config(kappa=0.08)
    g = sa.inwaveguide_gain(cfg, 1.0, 0.0)
    assert rel_err(abs(g), 0.9908319448927676) < 1e-12
    # lossless modulus is exactly 1 regardless of length
    cfg0 = make_config(kappa=0.0)
    for ell in (0.1, 1.0, 37.5, 100.0):
        assert abs(abs(sa.inwaveguide_gain(cfg0, ell, 0.0)) - 1.0) < 1e-12


def test_inwaveguide_gain_rejects_backward_runs():
    with pytest.raises(ValueError):
        sa.inwaveguide_gain(make_config(), 1.0, 2.0)


def test_segment_gain_matrix_shape_and_errors():
    cfg = make_config()
    scene = make_scene(m_segments=2, k=3)
    feed = float(scene.layout.feed_x[1])
    mat = sa.segment_gain_matrix(cfg, scene, 1, [feed, feed + 0.5, feed + 1.0])
    assert mat.shape == (3, 3)
    assert np.all(np.isfinite(mat))
    with pytest.raises(ValueError):
        sa.segment_gain_matrix(cfg, scene, 9, [feed])
    with pytest.raises(ValueError):
        sa.segment_gain_matrix(cfg, scene, 1, [feed - 0.01])


def test_segment_gain_matrix_matches_naive():
    for kappa in (0.0, 0.08):
        cfg = make_config(kappa=kappa)
        scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=21)
        for seg in range(3):
            feed = float(scene.layout.feed_x[seg])
            psis = [feed + 0.13, feed + 1.7]
            mat = sa.segment_gain_matrix(cfg, scene, seg, psis)
            for i, psi in enumerate(psis):
                for k in range(scene.k):
                    want = naive_user_gain(cfg, scene, seg, psi, k)
                    assert abs(mat[i, k] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_segment_gain_matrix_rows_do_not_depend_on_the_batch(kappa):
    """Row i of a whole-grid call is bitwise the single-candidate call at grid[i].

    The optimizers build each segment's grid gains once and index rows, where
    they used to recompute candidates in smaller batches; their results stay
    byte-identical only because of this property.
    """
    cfg = make_config(kappa=kappa)
    scene = make_scene(m_segments=3, seg_length=2.0, k=20, seed=23)
    for seg in range(3):
        grid = sa.grid_points(scene.layout, seg, 257)
        mat = sa.segment_gain_matrix(cfg, scene, seg, grid)
        for i in range(grid.size):
            single = sa.segment_gain_matrix(cfg, scene, seg, [grid[i]])[0]
            assert np.array_equal(mat[i], single)


def test_drop_grids_are_the_grid_call_bitwise_in_any_kappa_order():
    """A table's gains equal segment_gain_matrix on the grid, however kappas interleave.

    One free-space pass per grid serves every config of the table, so neither
    the order of its configs nor the order in which scenario and design
    kappas ask for a grid may change a bit of any answer.  The PASS grid
    (segment None) is the baseline scene's one segment.
    """
    from swan_aircomp.harness import ExperimentSpec

    spec = ExperimentSpec(kind="sweep-k", sweep=(6,), design_kappa=0.03)
    design = spec.radio_config(spec.design_kappa)
    scene = make_scene(m_segments=3, seg_length=2.0, k=6, seed=29)
    for order in ((0.0, 0.08), (0.08, 0.0)):
        grids = DropGrids(scene, 101, [spec.radio_config(kappa) for kappa in order] + [design])
        for kappa in order:
            for cfg in (spec.radio_config(kappa), design):
                for seg in (0, 1, 2, None):
                    grid_scene = scene if seg is not None else sa.baseline_scene(scene)
                    grid = sa.grid_points(grid_scene.layout, seg or 0, 101)
                    pts, gains, _ = grids.grid(cfg, seg)
                    want = sa.segment_gain_matrix(cfg, grid_scene, seg or 0, grid)
                    assert pts.tobytes() == grid.tobytes()
                    assert gains.tobytes() == want.tobytes()
                    assert not gains.flags.writeable


@pytest.mark.parametrize("kappa", [0.0, 0.08])
def test_drop_start_rows_are_the_single_midpoint_call_bitwise(kappa):
    """Row m of a table's start rows is segment_gain_matrix at segment m's midpoint, to the bit.

    Each row is the last row of its segment's block, whose one free-space
    pass serves every config of the table, so neither the table's other
    configs nor the order they ask in may change a bit.
    """
    cfg, other = make_config(kappa=kappa), make_config(kappa=0.03)
    for m_seg, k in ((1, 1), (3, 6), (5, 20)):
        scene = make_scene(m_segments=m_seg, seg_length=2.0, k=k, seed=31 + m_seg)
        want = np.vstack([sa.segment_gain_matrix(cfg, scene, m, [x])[0]
                          for m, x in enumerate(scene.layout.midpoints.tolist())])
        for cfgs in ((cfg,), (other, cfg), (cfg, other)):
            grids = DropGrids(scene, 12, cfgs)
            if cfgs[0] is other:
                grids.starts(other)
            rows = grids.starts(cfg)
            assert rows.shape == (m_seg, k)
            assert rows.tobytes() == want.tobytes()
            assert not rows.flags.writeable
        # placement_gains is the same per-candidate-segment call at its PAs
        mids = sa.Placement("SA1", scene.layout.midpoints)
        assert sa.channel.placement_gains(cfg, scene, mids).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="out of range"):
            sa.segment_gain_matrix(cfg, scene, (0, m_seg), [0.0, 0.0])


def test_screen_statistics_read_the_grid_gains_in_place():
    """The position screen's table is the row sums, and its float view is the grid's gains.

    The view the screen takes of the gains shares their read-only memory,
    so a screen copies no (Q, K) gains; the read-only table holds
    (|S_q|^2, Re S_q, Im S_q, E_q, 1) per row, built once per grid with
    its block.  The PASS grid has none.
    """
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=3, seg_length=2.0, k=6, seed=29)
    grids = DropGrids(scene, 50, (cfg,))
    assert grids.grid(cfg, None)[2] is None
    for seg in range(3):
        _, gains, table = grids.grid(cfg, seg)
        flat = gains.view(np.float64)
        assert flat.shape == (50, 12) and np.shares_memory(flat, gains) and not flat.flags.writeable
        assert table.shape == (5, 50) and table.dtype == np.float64 and not table.flags.writeable
        assert grids.grid(cfg, seg)[2] is table
        sums = gains.sum(axis=1)
        want = [np.abs(sums) ** 2, sums.real, sums.imag, (np.abs(gains) ** 2).sum(axis=1), np.ones(50)]
        l1 = np.abs(gains).sum(axis=1).max()
        # sums may cancel, so each entry is held to its term sizes: l1 or l1^2
        for got, ref, size in zip(table, want, (l1 ** 2, l1, l1, l1 ** 2, 1.0)):
            assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * size)


def test_a_run_refuses_a_grid_table_built_for_another_run():
    """Another scene (even with the same users), another q, or a missing config is refused.

    A table that fits, with more configs than the run's, gives the bits of
    the run that builds its own.  Read directly, a table refuses a config
    it was not built for with the same error, before it builds anything.
    """
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=2, k=4, seed=41)
    lossless = make_config(kappa=0.0)
    refused = (
        DropGrids(make_scene(m_segments=2, k=4, seed=41), 12, (cfg,)),
        DropGrids(scene, 10, (cfg,)),
        DropGrids(scene, 12, (lossless,)),
    )
    runs = (
        sa.ss_two_stage, sa.pass_baseline, sa.sa1_ao, sa.sa2_ao,
        sa.sa1_joint_exhaustive, sa.sa2_joint_exhaustive,
    )
    for run in runs:
        for grids in refused:
            with pytest.raises(ValueError, match="is not for this run's scene, q=12 and config"):
                run(cfg, scene, 12, grids=grids)
        shared = run(cfg, scene, 12, grids=DropGrids(scene, 12, (lossless, cfg)))
        own = run(cfg, scene, 12)
        assert shared.final_mse.hex() == own.final_mse.hex()
        assert shared.placement.pa_x.tobytes() == own.placement.pa_x.tobytes()
    table = refused[2]
    reads = (lambda: table.grid(cfg, 0), lambda: table.starts(cfg), lambda: table.joint(cfg))
    for read in reads:
        with pytest.raises(ValueError, match="is not for this run's scene, q=12 and config"):
            read()
    assert not table._blocks
    with pytest.raises(ValueError, match="carrier"):
        DropGrids(scene, 12, (cfg, make_config(f_c=30e9)))


def test_a_widened_table_is_the_fresh_table_bitwise():
    """A table built from one for fewer users of the same drop answers as a fresh one, to the bit.

    The K = 2 table builds every block; the K = 4 table takes them over and
    widens only segment 1's; the K = 7 table takes them over again, so the
    other blocks skip K = 4 and gain five columns at once.  Each hand-over
    leaves the old table with no block.  Segment grids carry screen tables
    from K = 5 on (Q K > 128), so each is built from its widened block at
    K = 7.
    """
    cfgs = (make_config(kappa=0.0), make_config(kappa=0.08))
    region = sa.ServiceRegion(20.0, 8.0)
    layout = sa.build_layout(3, 2.0, region, 3.0)
    scenes = [sa.Scene(layout, sa.sample_users(region, k, 43)) for k in (2, 4, 7)]
    small = DropGrids(scenes[0], 30, cfgs)
    for cfg in cfgs:
        small.starts(cfg)
        small.grid(cfg, None)
        assert small.grid(cfg, 0)[2] is None
    middle = DropGrids(scenes[1], 30, cfgs, small)
    assert not small._blocks
    assert middle.grid(cfgs[1], 1)[1].shape == (30, 4)
    assert middle.grid(cfgs[1], 1)[2] is None
    wide = DropGrids(scenes[2], 30, cfgs, middle)
    assert not middle._blocks
    fresh = DropGrids(scenes[2], 30, cfgs)
    for cfg in cfgs:
        for seg in (0, 1, 2, None):
            got, want = wide.grid(cfg, seg), fresh.grid(cfg, seg)
            if seg is None:
                assert got[2] is want[2] is None
                got, want = got[:2], want[:2]
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
        assert wide.starts(cfg).tobytes() == fresh.starts(cfg).tobytes()
        for (pts, shares), (want_pts, want_shares) in zip(wide.joint(cfg), fresh.joint(cfg)):
            assert pts.tobytes() == want_pts.tobytes()
            assert shares.tobytes() == want_shares.tobytes()


def test_a_table_takes_over_only_a_table_for_its_first_users():
    """Another layout, q or config list, or users that are not the scene's first, are refused.

    A refused table keeps its blocks.
    """
    cfg = make_config(kappa=0.08)
    region = sa.ServiceRegion(20.0, 8.0)
    layout = sa.build_layout(2, 2.0, region, 3.0)
    scene = sa.Scene(layout, sa.sample_users(region, 5, 47))
    fits = sa.Scene(layout, sa.sample_users(region, 3, 47))
    priors = (
        DropGrids(sa.Scene(sa.build_layout(2, 2.0, region, 3.0), fits.users), 12, (cfg,)),
        DropGrids(fits, 10, (cfg,)),
        DropGrids(fits, 12, (cfg, make_config(kappa=0.0))),
        DropGrids(sa.Scene(layout, sa.sample_users(region, 3, 48)), 12, (cfg,)),
        DropGrids(sa.Scene(layout, sa.sample_users(region, 6, 47)), 12, (cfg,)),
    )
    for prior in priors:
        prior.starts(cfg)
        with pytest.raises(ValueError, match="takes over only"):
            DropGrids(scene, 12, (cfg,), prior)
        assert prior._blocks
    taken = DropGrids(fits, 12, (cfg,))
    taken.starts(cfg)
    assert DropGrids(scene, 12, (cfg,), taken).starts(cfg).shape == (2, 5)


def ss_channel(cfg, scene, segment, psi):
    """``eff_channel`` with only ``segment`` active, its PA at psi."""
    return sa.eff_channel(cfg, scene, sa.Placement("SS", [psi], segment=segment))


def test_eff_channel_ss_phase_structure():
    """Channel phase is -(k0 * r + guided_rate * ell) mod 2 pi."""
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=2, seg_length=1.0, k=4, seed=31)
    feed = float(scene.layout.feed_x[1])
    psi = feed + 0.37
    h = ss_channel(cfg, scene, 1, psi)
    for k in range(scene.k):
        r = math.sqrt((scene.user_x[k] - psi) ** 2 + scene.line_dist_sq[k])
        want = (-(cfg.wavenumber * r + cfg.guided_phase_rate * (psi - feed))) % TWO_PI
        got = np.angle(h[k]) % TWO_PI
        diff = abs(got - want) % TWO_PI
        assert min(diff, TWO_PI - diff) < 1e-9


def test_eff_channel_ss_pa_at_feed_reduces_to_freespace():
    cfg = make_config(kappa=0.0)
    scene = make_scene(m_segments=2, seg_length=1.0, k=3, seed=41)
    feed = float(scene.layout.feed_x[0])
    h = ss_channel(cfg, scene, 0, feed)
    height = scene.layout.height
    for k in range(scene.k):
        user = (scene.users.positions[k, 0], scene.users.positions[k, 1], 0.0)
        want = sa.freespace_gain(cfg, user, (feed, 0.0, height))
        assert abs(h[k] - want) <= 1e-12 * abs(want)


def test_eff_channel_ss_lossless_magnitude_only_from_distance():
    cfg = make_config(kappa=0.0)
    scene = make_scene(m_segments=1, seg_length=4.0, k=4, seed=51)
    feed = float(scene.layout.feed_x[0])
    for psi in (feed, feed + 1.3, feed + 4.0):
        h = ss_channel(cfg, scene, 0, psi)
        r = np.sqrt((scene.user_x - psi) ** 2 + scene.line_dist_sq)
        assert np.all(np.abs(np.abs(h) - math.sqrt(cfg.eta) / r) <= 1e-12 * np.abs(h))


def test_eff_channel_ss_mirror_symmetric_users():
    cfg = make_config()
    psi = 6.0
    scene = scene_with_users([[psi - 1.5, 2.0], [psi + 1.5, 2.0]],
                             m_segments=2, seg_length=1.0, d_x=12.0)
    # feeds at 5 and 6; psi = 6.0 is the feed of segment 1
    h = ss_channel(cfg, scene, 1, psi)
    assert rel_err(abs(h[0]), abs(h[1])) < 1e-14


def test_eff_channel_ss_bounds():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0)
    with pytest.raises(ValueError):
        ss_channel(cfg, scene, 0, float(scene.layout.feed_x[0]) - 0.5)
    with pytest.raises(ValueError):
        ss_channel(cfg, scene, 3, 1.0)


def test_eff_channel_sa1_matches_naive_and_triangle_bound():
    for kappa in (0.0, 0.08):
        cfg = make_config(kappa=kappa)
        scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=71)
        pa_x = scene.layout.feed_x + np.array([0.3, 1.1, 1.9])
        placement = sa.Placement("SA1", pa_x)
        h = sa.eff_channel(cfg, scene, placement)
        want = naive_combined_channel(cfg, scene, pa_x)
        assert np.all(np.abs(h - want) <= 1e-12 * np.abs(want))
        bound = np.zeros(scene.k)
        for m in range(3):
            bound += np.abs(sa.segment_gain_matrix(cfg, scene, m, [pa_x[m]])[0])
        bound /= math.sqrt(3)
        assert np.all(np.abs(h) <= bound * (1 + 1e-12))


def test_eff_channel_sa1_rejects_infeasible():
    cfg = make_config()
    scene = make_scene(m_segments=2, seg_length=1.0)
    bad = sa.Placement("SA1", scene.layout.feed_x - 0.5)
    with pytest.raises(ValueError):
        sa.eff_channel(cfg, scene, bad)


def _one_segment_sa1_and_ss():
    scene = make_scene(m_segments=1, seg_length=4.0, k=5, seed=61)
    psi = float(scene.layout.feed_x[0]) + 2.2
    return (scene, sa.Placement("SA1", [psi])), (scene, sa.Placement("SS", [psi], segment=0))


def _zero_phase_sa2_and_sa1():
    scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=81)
    pa_x = scene.layout.feed_x + 1.0
    return (scene, sa.Placement("SA2", pa_x, phases=np.zeros(3))), (scene, sa.Placement("SA1", pa_x))


def _pass_and_ss_on_the_baseline():
    scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=83)
    x = float(scene.layout.feed_x[1]) + 0.7
    return (scene, sa.Placement("PASS", [x], segment=0)), (
        sa.baseline_scene(scene), sa.Placement("SS", [x], segment=0)
    )


@pytest.mark.parametrize(
    "pair", [_one_segment_sa1_and_ss, _zero_phase_sa2_and_sa1, _pass_and_ss_on_the_baseline],
    ids=["sa1-one-segment-is-ss", "sa2-zero-phases-is-sa1", "pass-is-ss-on-the-baseline"],
)
def test_eff_channel_reductions_are_bitwise(pair):
    """The schemes share one signal model, so each reduction keeps every channel bit."""
    cfg = make_config(kappa=0.08)
    (scene_a, placement_a), (scene_b, placement_b) = pair()
    h_a = sa.eff_channel(cfg, scene_a, placement_a)
    assert h_a.tobytes() == sa.eff_channel(cfg, scene_b, placement_b).tobytes()


def test_zero_phases_keep_every_sa_mse_bit():
    """SA1 is SA2 with every phase held at zero: rotating each share by
    e^{j0} = 1 + 0j can flip at most the sign of a zero part, so the MSE of
    the summed shares keeps its bits, also where parts are exactly +-0."""
    from swan_aircomp.channel import segment_shares
    from swan_aircomp.metrics import mse_rows

    rng = np.random.default_rng(20261018)
    for trial in range(600):
        m, k = 1 + trial % 7, 1 + (trial // 7) % 13
        parts = rng.standard_normal((2, m, k)) * 10.0 ** rng.uniform(-7, 0, (2, m, k))
        zero = rng.random((2, m, k)) < 0.3
        parts[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
        base = np.empty((m, k), dtype=complex)
        base.real, base.imag = parts
        p_tx, noise_var = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-16, -6)
        phased = mse_rows(segment_shares(base, np.zeros(m)).sum(axis=0), p_tx, noise_var)
        plain = mse_rows(segment_shares(base).sum(axis=0), p_tx, noise_var)
        assert phased.tobytes() == plain.tobytes()


def test_eff_channel_sa2_global_phase():
    cfg = make_config()
    scene = make_scene(m_segments=3, seg_length=2.0, k=4, seed=91)
    pa_x = scene.layout.feed_x + 0.7
    phases = np.array([0.3, 1.1, 2.9])
    h = sa.eff_channel(cfg, scene, sa.Placement("SA2", pa_x, phases=phases))
    shift = 0.8
    h_shift = sa.eff_channel(
        cfg, scene, sa.Placement("SA2", pa_x, phases=phases + shift)
    )
    rot = np.exp(1j * shift)
    assert np.all(np.abs(h_shift - rot * h) <= 1e-12 * np.abs(h))
    assert np.all(np.abs(np.abs(h_shift) - np.abs(h)) <= 1e-12 * np.abs(h))


def test_eff_channel_sa2_alignment_single_user():
    """With the relative phase chosen to align both terms, moduli add."""
    cfg = make_config()
    scene = scene_with_users([[5.8, 1.0]], m_segments=2, seg_length=1.0, d_x=12.0)
    pa_x = np.array([5.4, 6.5])
    t0 = sa.segment_gain_matrix(cfg, scene, 0, [pa_x[0]])[0, 0]
    t1 = sa.segment_gain_matrix(cfg, scene, 1, [pa_x[1]])[0, 0]
    theta = np.angle(t1) - np.angle(t0)
    h = sa.eff_channel(
        cfg, scene, sa.Placement("SA2", pa_x, phases=np.array([theta, 0.0]))
    )
    want = (abs(t0) + abs(t1)) / math.sqrt(2)
    assert rel_err(abs(h[0]), want) < 1e-12


def test_eff_channel_sa2_matches_naive():
    cfg = make_config(kappa=0.08)
    scene = make_scene(m_segments=3, seg_length=2.0, k=5, seed=101)
    pa_x = scene.layout.feed_x + np.array([0.2, 1.0, 1.8])
    phases = np.array([0.5, 2.2, 4.4])
    h = sa.eff_channel(cfg, scene, sa.Placement("SA2", pa_x, phases=phases))
    want = naive_combined_channel(cfg, scene, pa_x, phases)
    assert np.all(np.abs(h - want) <= 1e-12 * np.abs(want))
