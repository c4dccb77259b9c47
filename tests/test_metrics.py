import math

import numpy as np
import pytest

from swan_aircomp.metrics import (
    empirical_mse,
    mse_given_scaling,
    mse_min,
    mse_rows,
    optimal_scaling,
)
from swan_aircomp.rng import philox_stream
from conftest import naive_mse, rel_err

P = 0.01
NV = 1e-12


def random_channels(seed, count, k_max=8):
    g = philox_stream(seed)
    out = []
    for _ in range(count):
        k = int(g.integers(1, k_max + 1))
        scale = 10.0 ** g.uniform(-4, 0)
        out.append(scale * (g.standard_normal(k) + 1j * g.standard_normal(k)))
    return out


def test_zero_channel_limits():
    h = np.zeros(4, dtype=complex)
    assert optimal_scaling(h, P, NV) == 0j
    assert mse_min(h, P, NV).mse == 4.0
    assert mse_given_scaling(h, 0j, P, NV) == 4.0


def test_single_user_closed_forms():
    h = np.array([3.0 + 0j])
    r = optimal_scaling(h, P, NV)
    want = math.sqrt(P) * 3.0 / (P * 9.0 + NV)
    assert rel_err(r.real, want) < 1e-14 and r.imag == 0.0
    rep = mse_min(h, P, NV)
    # K - signal/denom cancels almost completely here, so bound the
    # absolute error (a few ulps of K), not the relative one
    assert abs(rep.mse - NV / (P * 9.0 + NV)) < 1e-15


def test_half_power_point_gives_half_mse():
    # K=1 with P |h|^2 = noise power: the minimum MSE is exactly 1/2
    h = np.array([complex(math.sqrt(NV / P), 0.0)])
    rep = mse_min(h, P, NV)
    assert rel_err(rep.mse, 0.5) < 1e-12
    assert rel_err(mse_given_scaling(h, rep.r_opt, P, NV), 0.5) < 1e-12


def test_mse_at_zero_scaling_is_k():
    for h in random_channels(1, 10):
        assert mse_given_scaling(h, 0j, P, NV) == pytest.approx(len(h), rel=1e-15)


def test_report_internal_consistency():
    for h in random_channels(2, 50):
        rep = mse_min(h, P, NV)
        assert rel_err(rep.mse, len(h) - rep.signal_term / rep.denom) < 1e-15
        assert 0.0 <= rep.mse <= len(h) + 1e-12
        # K - signal/denom can cancel to ~eps*K, hence the absolute term
        assert math.isclose(rep.mse, naive_mse(h, P, NV), rel_tol=1e-12, abs_tol=1e-13)


def test_mse_rows_is_the_plain_formula_bitwise():
    g = philox_stream(5)
    for shape in [(6,), (40, 3), (7, 5, 9)]:
        scale = 10.0 ** g.uniform(-4, 0, shape)
        h = scale * (g.standard_normal(shape) + 1j * g.standard_normal(shape))
        k = shape[-1]
        plain = k - P * np.abs(h.sum(axis=-1)) ** 2 / (P * (np.abs(h) ** 2).sum(axis=-1) + NV)
        assert np.array_equal(mse_rows(h, P, NV), plain)


def test_mse_rows_gives_a_row_the_same_bits_in_any_batch():
    """Scoring a subset of rows equals the matching entries of the full batch.

    The AO's position update scores only the candidates its screen keeps and
    relies on this to return the full scan's bits; the joint oracles score
    (tuple, rotation) batches of any shape.
    """
    g = philox_stream(7)
    for k in range(1, 33):
        n = 60
        scale = 10.0 ** g.uniform(-5, 0, (n, 1))
        h = scale * (g.standard_normal((n, k)) + 1j * g.standard_normal((n, k)))
        full = mse_rows(h, P, NV)
        for size in (1, 2, 3, 17, n - 1):
            rows = np.sort(g.choice(n, size=size, replace=False))
            assert full[rows].tobytes() == mse_rows(h[rows], P, NV).tobytes()
        for i in (0, n // 2, n - 1):
            assert full[i].tobytes() == mse_rows(h[i], P, NV).tobytes()
        assert full.tobytes() == mse_rows(h.reshape(12, 5, k), P, NV).tobytes()


def test_mse_min_matches_scaling_composition():
    for h in random_channels(3, 100):
        rep = mse_min(h, P, NV)
        via_r = mse_given_scaling(h, optimal_scaling(h, P, NV), P, NV)
        assert math.isclose(rep.mse, via_r, rel_tol=1e-12, abs_tol=1e-13)


def test_optimal_scaling_is_stationary():
    """Central finite differences over Re(r) and Im(r) vanish at r_opt."""
    for h in random_channels(4, 20, k_max=12):
        r0 = optimal_scaling(h, 1.0, 0.5)
        eps = 1e-6
        gr = (mse_given_scaling(h, r0 + eps, 1.0, 0.5)
              - mse_given_scaling(h, r0 - eps, 1.0, 0.5)) / (2 * eps)
        gi = (mse_given_scaling(h, r0 + 1j * eps, 1.0, 0.5)
              - mse_given_scaling(h, r0 - 1j * eps, 1.0, 0.5)) / (2 * eps)
        assert math.hypot(gr, gi) < 1e-6


def test_phase_rotation_invariance():
    g = philox_stream(5)
    for h in random_channels(6, 30):
        base = mse_min(h, P, NV).mse
        rot = np.exp(1j * g.uniform(0, 2 * math.pi))
        assert math.isclose(mse_min(rot * h, P, NV).mse, base, rel_tol=1e-12, abs_tol=1e-13)


def test_common_amplification_never_hurts():
    for h in random_channels(7, 30):
        base = mse_min(h, P, NV).mse
        boosted = mse_min(3.0 * h, P, NV).mse
        assert boosted <= base + 1e-15


def test_empirical_mse_deterministic():
    h = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    r = optimal_scaling(h, 1.0, 0.5)
    a = empirical_mse(h, r, 1.0, 0.5, 2000, seed=77)
    b = empirical_mse(h, r, 1.0, 0.5, 2000, seed=77)
    assert a == b
    assert a != empirical_mse(h, r, 1.0, 0.5, 2000, seed=78)


def test_empirical_mse_converges_to_analytic():
    g = philox_stream(8)
    n = 20000
    for i in range(5):
        k = int(g.integers(1, 7))
        h = (g.standard_normal(k) + 1j * g.standard_normal(k)) / math.sqrt(2)
        r = optimal_scaling(h, 1.0, 0.5)
        exact = mse_given_scaling(h, r, 1.0, 0.5)
        emp = empirical_mse(h, r, 1.0, 0.5, n, seed=900 + i)
        # the per-trial squared error is exponential with mean and sd = exact
        assert abs(emp - exact) < 5 * exact / math.sqrt(n)


def test_empirical_mse_zero_channel_zero_scaling():
    h = np.zeros(3, dtype=complex)
    emp = empirical_mse(h, 0j, P, NV, 20000, seed=12)
    assert rel_err(emp, 3.0) < 0.2


def test_empirical_mse_rejects_bad_trials():
    with pytest.raises(ValueError):
        empirical_mse(np.ones(2, dtype=complex), 0j, P, NV, 0, seed=1)


def test_channel_vector_validation():
    with pytest.raises(ValueError):
        mse_min(np.ones((2, 2)), P, NV)
