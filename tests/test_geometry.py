import itertools
import math

import numpy as np
import pytest

import swan_aircomp as sa
from swan_aircomp.rng import philox_stream
from conftest import WAVELENGTH


def test_region_rejects_nonpositive_sides():
    with pytest.raises(ValueError):
        sa.ServiceRegion(0.0, 20.0)
    with pytest.raises(ValueError):
        sa.ServiceRegion(100.0, -1.0)


def test_build_layout_centers_the_segment_block():
    region = sa.ServiceRegion(100.0, 20.0)
    lay = sa.build_layout(1, 100.0, region, 3.0)
    assert np.array_equal(lay.feed_x, [0.0])
    assert lay.span == (0.0, 100.0)

    lay = sa.build_layout(2, 1.0, region, 3.0)
    assert np.array_equal(lay.feed_x, [49.0, 50.0])
    assert lay.span == (49.0, 51.0)

    lay = sa.build_layout(5, 10.0, sa.ServiceRegion(50.0, 20.0), 3.0)
    assert np.array_equal(lay.feed_x, [0.0, 10.0, 20.0, 30.0, 40.0])


def test_build_layout_allows_overhang():
    # block longer than the region: feeds start at negative x
    lay = sa.build_layout(4, 10.0, sa.ServiceRegion(20.0, 20.0), 3.0)
    assert lay.feed_x[0] == -10.0
    assert lay.span == (-10.0, 30.0)


def test_build_layout_feeds_are_the_python_float_formula_bitwise():
    """feed_x is one numpy expression with the bits of x0 + m * L in Python floats.

    Random (M, L, d_x), M up to 10^6, overhanging blocks included; an
    infinite L, whose feeds would hold 0 * inf, is refused by the layout
    without a numpy warning.
    """
    rng = philox_stream(81)
    for i in range(12):
        m_seg = 10 ** 6 if i == 0 else int(rng.integers(1, 5000))
        seg_length = float(10.0 ** rng.uniform(-4.0, 1.0))
        d_x = float(10.0 ** rng.uniform(-1.0, 3.0))
        lay = sa.build_layout(m_seg, seg_length, sa.ServiceRegion(d_x, 20.0), 3.0)
        x0 = (d_x - m_seg * seg_length) / 2.0
        assert lay.feed_x.tobytes() == np.array([x0 + m * seg_length for m in range(m_seg)]).tobytes()
    for m_seg in (1, 3):
        with pytest.raises(ValueError, match="seg_length must be positive and finite"):
            sa.build_layout(m_seg, math.inf, sa.ServiceRegion(100.0, 20.0), 3.0)


def test_layout_validation():
    with pytest.raises(ValueError):
        sa.WaveguideLayout(2, 1.0, np.array([0.0, 0.5]), 3.0)  # overlapping
    with pytest.raises(ValueError):
        sa.WaveguideLayout(2, 1.0, np.array([1.0, 0.0]), 3.0)  # decreasing
    with pytest.raises(ValueError):
        sa.WaveguideLayout(2, 1.0, np.array([0.0]), 3.0)  # wrong count
    with pytest.raises(ValueError):
        sa.WaveguideLayout(1, -1.0, np.array([0.0]), 3.0)
    with pytest.raises(ValueError):
        sa.WaveguideLayout(1, 1.0, np.array([0.0]), 0.0)


def test_feed_gap_check_allows_rounding_at_the_feeds_scale():
    """At d_x = 100 m two 1 mm feeds are 50.0 - 49.999, 2.3e-12 short of 1 mm.

    The slack scales with the feeds' magnitude, so that layout builds as it
    does at d_x = 10 m; feeds 0.999 L apart, or not increasing, are refused.
    """
    for d_x in (100.0, 10.0):
        lay = sa.build_layout(2, 0.001, sa.ServiceRegion(d_x, 20.0), 3.0)
        assert lay.feed_x[1] - lay.feed_x[0] == pytest.approx(0.001, rel=1e-9)
    for feeds in ([49.999, 49.999 + 0.999 * 0.001], [50.0, 50.0]):
        with pytest.raises(ValueError, match="gaps >= seg_length"):
            sa.WaveguideLayout(2, 0.001, np.array(feeds), 3.0)


def test_user_drop_validation():
    with pytest.raises(ValueError):
        sa.UserDrop(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        sa.UserDrop(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sa.UserDrop(np.array([[0.0, np.nan]]))
    drop = sa.UserDrop(np.array([[1.0, 2.0]]))
    assert drop.k == 1
    with pytest.raises(ValueError):
        drop.positions[0, 0] = 5.0


def test_sample_users_deterministic_and_in_bounds():
    region = sa.ServiceRegion(100.0, 20.0)
    a = sa.sample_users(region, 50, 123)
    b = sa.sample_users(region, 50, 123)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, sa.sample_users(region, 50, 124).positions)
    assert np.all(a.positions[:, 0] >= 0.0) and np.all(a.positions[:, 0] <= 100.0)
    assert np.all(np.abs(a.positions[:, 1]) <= 10.0)


def test_sample_users_moments():
    """Uniform moments: mean near the center within 4 standard errors."""
    region = sa.ServiceRegion(100.0, 20.0)
    k = 4000
    drop = sa.sample_users(region, k, 2718)
    se_x = 100.0 / math.sqrt(12.0 * k)
    se_y = 20.0 / math.sqrt(12.0 * k)
    assert abs(drop.positions[:, 0].mean() - 50.0) < 4 * se_x
    assert abs(drop.positions[:, 1].mean() - 0.0) < 4 * se_y


def test_a_drops_first_users_do_not_depend_on_how_many_are_drawn():
    """sample_users(r, k, s) is the first k rows of sample_users(r, K, s), bit for bit."""
    region = sa.ServiceRegion(50.0, 20.0)
    for seed in (1, 7, 2**63 + 5, sa.derive_seed(1, 3)):
        draws = {k: sa.sample_users(region, k, seed).positions for k in range(1, 26)}
        for big in range(1, 26):
            for k in range(1, big + 1):
                assert draws[k].tobytes() == draws[big][:k].tobytes(), (seed, k, big)


def _own_scene(spec, v):
    return spec.m_segments, spec.seg_length, spec.k_users


@pytest.mark.parametrize("kind,overrides,want", [
    pytest.param("sweep-k", {"sweep": "2,3,5", "schemes": "SS"},
                 lambda spec, v: (spec.m_segments, spec.seg_length, v), id="sweep-k-2,3,5"),
    pytest.param("sweep-m-fixed-L", {"sweep": "1,3", "schemes": "SS"},
                 lambda spec, v: (v, spec.seg_length, spec.k_users), id="sweep-m-fixed-L-1,3"),
    pytest.param("sweep-m-fixed-span", {"sweep": "1,3", "schemes": "SS"},
                 lambda spec, v: (v, spec.d_x / v, spec.k_users), id="sweep-m-fixed-span-1,3"),
    pytest.param("convergence", {"schemes": "SA1"}, _own_scene, id="convergence"),
    pytest.param("oracle-check", {"schemes": "SA1"}, _own_scene, id="oracle-check"),
])
def test_the_harness_scene_of_each_drop_and_sweep_value_is_a_fresh_draw(
    monkeypatch, kind, overrides, want
):
    """Each (drop, sweep value) scene has the kind's (M, L, K), L bit for bit,
    and holds the users a draw of its K users gives."""
    from swan_aircomp import harness

    seen = []

    def recorded(tag, cfg, scene, spec, drop, grids, _run=harness._run):
        if not seen or seen[-1][1] is not scene:  # an oracle run shares its AO run's scene
            seen.append((drop, scene))
        return _run(tag, cfg, scene, spec, drop, grids)

    monkeypatch.setattr(harness, "_run", recorded)
    spec = sa.parse_config(kind=kind, overrides={
        "n_drops": 3, "k_users": 4, "m_segments": 2, "q_grid": 10, "master_seed": 9, **overrides,
    })
    harness.run_experiment(spec)
    region = sa.ServiceRegion(spec.d_x, spec.d_y)
    wants = [want(spec, v) for v in spec.sweep]
    got = [(drop, scene.layout.m_segments, scene.layout.seg_length.hex(), scene.k)
           for drop, scene in seen]
    assert got == [(d, m, float(seg_len).hex(), k) for d in range(3) for m, seg_len, k in wants]
    for drop, scene in seen:
        want_users = sa.sample_users(region, scene.k, sa.derive_seed(spec.master_seed, drop))
        assert scene.users.positions.tobytes() == want_users.positions.tobytes()


def test_placement_validation():
    with pytest.raises(ValueError):
        sa.Placement("XX", np.array([1.0]))
    with pytest.raises(ValueError):
        sa.Placement("SS", np.array([1.0]))  # missing segment
    with pytest.raises(ValueError):
        sa.Placement("SS", np.array([1.0, 2.0]), segment=0)  # one PA only
    with pytest.raises(ValueError):
        sa.Placement("SA2", np.array([1.0, 2.0]))  # missing phases
    with pytest.raises(ValueError):
        sa.Placement("SA2", np.array([1.0, 2.0]), phases=np.array([0.0]))
    p = sa.Placement("SA2", np.array([1.0, 2.0]), phases=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        p.phases[0] = 3.0
    # the segment each PA sits on: SS and PASS name theirs, SA has one PA per segment
    assert p.segments == (0, 1)
    assert sa.Placement("SA1", [1.0, 2.0, 3.0]).segments == (0, 1, 2)
    assert sa.Placement("SS", [1.0], segment=3).segments == (3,)
    assert sa.Placement("PASS", [1.0], segment=0).segments == (0,)


@pytest.mark.parametrize("build", [
    lambda: sa.Placement("SA1", [1.0, 2.0], phases=[1.0, 2.0]),
    lambda: sa.Placement("SS", [1.0], segment=0, phases=[0.0]),
    lambda: sa.Placement("PASS", [1.0], segment=0, phases=[0.0]),
], ids=["SA1", "SS", "PASS"])
def test_placement_refuses_phases_outside_sa2(build):
    """Every scorer would ignore them, so a phase-free scheme's placement carries none."""
    with pytest.raises(ValueError, match="carry no phases"):
        build()


def test_placement_refuses_a_segment_it_would_ignore():
    with pytest.raises(ValueError, match="PASS placements are on segment 0, got 3"):
        sa.Placement("PASS", [1.0], segment=3)
    for arch, phases in (("SA1", None), ("SA2", [0.0, 0.0])):
        with pytest.raises(ValueError, match="carry no segment index"):
            sa.Placement(arch, [1.0, 2.0], segment=1, phases=phases)
    assert sa.Placement("PASS", [1.0], segment=0).segment == 0


@pytest.mark.parametrize("build,field", [
    (lambda x: sa.UserDrop(x.reshape(1, 2)), "positions"),
    (lambda x: sa.WaveguideLayout(2, 1.0, x, 3.0), "feed_x"),
    (lambda x: sa.Placement("SA1", x), "pa_x"),
    (lambda x: sa.Placement("SA2", np.array([0.5, 2.0]), phases=x), "phases"),
], ids=["positions", "feed_x", "pa_x", "phases"])
def test_constructors_freeze_a_copy_not_the_callers_array(build, field):
    """A frozen field is the constructor's own copy: the caller's float64 array stays writable."""
    x = np.array([0.0, 1.5])
    obj = build(x)
    x[0] = 0.25
    assert getattr(obj, field).ravel()[0] == 0.0
    with pytest.raises(ValueError):
        getattr(obj, field)[..., 0] = 1.0


def test_validate_placement_flags_out_of_segment():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)  # feeds 49, 50
    p = sa.Placement("SA1", np.array([48.0, 50.5]))
    bad = sa.validate_placement(lay, p, 0.005)
    assert len(bad) == 1
    assert bad[0].kind == "out_of_segment"
    assert bad[0].segments == (0,)


def test_validate_placement_flags_spacing():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)
    delta = WAVELENGTH / 2.0  # about 5.35 mm
    p = sa.Placement("SA1", np.array([49.9995, 50.0005]))  # 1 mm apart
    bad = sa.validate_placement(lay, p, delta)
    assert [v.kind for v in bad] == ["spacing"]
    assert bad[0].segments == (0, 1)
    # widen the gap past delta and the report clears
    ok = sa.Placement("SA1", np.array([49.5, 50.5]))
    assert sa.validate_placement(lay, ok, delta) == []


def test_validate_placement_single_pa_paths():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)
    ss = sa.Placement("SS", np.array([49.5]), segment=0)
    assert sa.validate_placement(lay, ss, 0.005) == []
    off = sa.Placement("SS", np.array([50.5]), segment=0)
    assert [v.kind for v in sa.validate_placement(lay, off, 0.005)] == ["out_of_segment"]
    with pytest.raises(ValueError):
        sa.validate_placement(lay, sa.Placement("SS", np.array([49.5]), segment=5), 0.005)
    with pytest.raises(ValueError):
        sa.validate_placement(lay, sa.Placement("SA1", np.array([49.5])), 0.005)


def _all_pairs_violations(layout, placement, delta_min):
    """validate_placement's rules with every PA pair checked for spacing, not just neighbours."""
    on_segments = list(zip(placement.segments, placement.pa_x.tolist()))
    violations = []
    for m, x in on_segments:
        lo = float(layout.feed_x[m])
        hi = lo + layout.seg_length
        if not (lo <= x <= hi):
            violations.append(sa.Violation("out_of_segment", (m,), f"pa_x={x} outside [{lo}, {hi}]"))
    for (m, x), (mp, xp) in itertools.combinations(on_segments, 2):
        gap = abs(x - xp)
        if gap < delta_min:
            violations.append(
                sa.Violation("spacing", (m, mp), f"|pa_x[{m}] - pa_x[{mp}]| = {gap} < {delta_min}")
            )
    return violations


def test_validate_placement_checks_neighbours_to_the_all_pairs_verdict():
    """Segments run left to right, so checking each PA against the next one
    gives the all-pairs verdict: on random SA placements over build_layout
    layouts (M = 1 to 8, delta_min from 1e-9 L to 2.5 L, some PAs on segment
    ends and some off their segments) the list is empty exactly when the
    all-pairs list is, and it is always a subsequence of that list."""
    g = philox_stream(31)
    verdicts, shorter = set(), 0
    for _ in range(3000):
        m = int(g.integers(1, 9))
        seg_length = float(10.0 ** g.uniform(-3.0, 1.0))
        d_x = float(g.choice([0.05, 50.0, 1e4]))
        layout = sa.build_layout(m, seg_length, sa.ServiceRegion(d_x, 20.0), 3.0)
        delta = seg_length * float(10.0 ** g.uniform(-9.0, math.log10(2.5)))
        u = np.where(g.random(m) < 0.3, g.integers(0, 2, m), g.random(m))
        pa = layout.feed_x + u * seg_length
        off = g.random(m) < 0.1
        pa[off] += g.uniform(-2.0, 2.0, int(off.sum())) * seg_length
        placement = sa.Placement("SA1", pa)
        got = sa.validate_placement(layout, placement, delta)
        want = _all_pairs_violations(layout, placement, delta)
        assert (got == []) == (want == [])
        rest = iter(want)
        assert all(v in rest for v in got)
        verdicts.add(got == [])
        shorter += len(got) < len(want)
    # both verdicts occur, and some infeasible placements name fewer spacing pairs
    assert verdicts == {True, False} and shorter > 0


def test_grid_points_endpoints_and_spacing():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)
    pts = sa.grid_points(lay, 1, 11)
    assert len(pts) == 11
    assert pts[0] == 50.0 and pts[-1] == 51.0
    assert np.allclose(np.diff(pts), 0.1)
    with pytest.raises(ValueError):
        sa.grid_points(lay, 0, 1)
    with pytest.raises(ValueError):
        sa.grid_points(lay, 9, 5)


def test_feasible_grid_filters_by_distance():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)
    full = sa.feasible_grid(lay, 0, 21, [], 0.1)
    assert np.array_equal(full, sa.grid_points(lay, 0, 21))
    # a PA parked at the segment end knocks out nearby candidates
    kept = sa.feasible_grid(lay, 0, 21, [50.0], 0.1)
    assert np.all(np.abs(kept - 50.0) >= 0.1)
    assert 0 < len(kept) < 21


def test_feasible_grid_can_be_empty():
    lay = sa.build_layout(2, 1.0, sa.ServiceRegion(100.0, 20.0), 3.0)
    # blocking PA at the segment midpoint with delta wider than the segment
    kept = sa.feasible_grid(lay, 0, 21, [49.5], 2.0)
    assert len(kept) == 0


def test_scene_accessors():
    region = sa.ServiceRegion(100.0, 20.0)
    lay = sa.build_layout(2, 1.0, region, 3.0)
    users = sa.UserDrop(np.array([[10.0, 4.0], [20.0, -2.0]]))
    scene = sa.Scene(lay, users)
    assert scene.k == 2
    assert np.array_equal(scene.user_x, [10.0, 20.0])
    assert np.allclose(scene.line_dist_sq, [9.0 + 16.0, 9.0 + 4.0])
