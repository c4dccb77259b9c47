"""Audit helpers: the forms of the model and the optimizer steps that tests check.

No run of the experiment harness reaches these, and no module of it imports
this one.  Each helper calls the core it audits rather than copying it, so
a check against a run compares the same bits: the phase update solves with
the AO's ``_phase_solution`` on the split that ``_AOState`` keeps, the
position update is the AO's position step and accept rule, and every MSE
is scored by ``mse_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RadioConfig, eff_channel
from .geometry import Placement, Scene
from .metrics import mse_rows
from .optimizers import (
    _DEGENERATE_RTOL,
    DropGrids,
    RunRecord,
    _a_terms,
    _AOState,
    _grid_search,
    _one_pass,
    _phase_solution,
    _wrap_phase,
)
from .rng import philox_stream


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def freespace_gain(cfg: RadioConfig, user, pa) -> complex:
    """Complex line-of-sight gain between two points (2-d or 3-d coordinates)."""
    u = np.asarray(user, dtype=float)
    p = np.asarray(pa, dtype=float)
    if u.shape != p.shape:
        raise ValueError(f"coordinate shapes differ: {u.shape} vs {p.shape}")
    r = float(np.linalg.norm(u - p))
    if r == 0.0:
        raise ValueError("free-space gain undefined for coincident points")
    return complex(math.sqrt(cfg.eta) / r * np.exp(-1j * cfg.wavenumber * r))


def inwaveguide_gain(cfg: RadioConfig, pa_x: float, feed_x: float) -> complex:
    """Complex gain from a segment feed to a PA at pa_x on the same segment."""
    ell = pa_x - feed_x
    if ell < 0:
        raise ValueError(f"pa_x={pa_x} lies before the feed at {feed_x}")
    amp = 10.0 ** (-cfg.kappa * ell / 20.0)
    return complex(amp * np.exp(-1j * cfg.guided_phase_rate * ell))


@dataclass(frozen=True)
class MseReport:
    """Minimum MSE together with the quantities that produce it.

    signal_term = P * |sum_k h_k|**2 and denom = P * sum_k |h_k|**2 + noise_var,
    so mse = K - signal_term / denom and 0 <= mse <= K.
    """

    mse: float
    r_opt: complex
    signal_term: float
    denom: float


def _as_channel(h) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(h, dtype=complex))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("channel vector must be 1-d with K >= 1 entries")
    return arr


def optimal_scaling(h, p_tx: float, noise_var: float) -> complex:
    """MSE-minimizing receive scaling for channel vector h."""
    return mse_min(h, p_tx, noise_var).r_opt


def mse_given_scaling(h, r: complex, p_tx: float, noise_var: float) -> float:
    """Aggregation MSE for an arbitrary receive scaling r."""
    arr = _as_channel(h)
    misalign = r * np.sqrt(p_tx) * arr - 1.0
    return float(np.sum(np.abs(misalign) ** 2) + abs(r) ** 2 * noise_var)


def mse_min(h, p_tx: float, noise_var: float) -> MseReport:
    """Minimum aggregation MSE over the receive scaling, with its terms."""
    arr = _as_channel(h)
    total = arr.sum()
    signal = p_tx * float(np.abs(total) ** 2)
    denom = p_tx * float(np.sum(np.abs(arr) ** 2)) + noise_var
    r_opt = complex(np.sqrt(p_tx) * np.conj(total) / denom)
    mse = float(mse_rows(arr, p_tx, noise_var))
    return MseReport(mse=mse, r_opt=r_opt, signal_term=signal, denom=denom)


def empirical_mse(
    h, r: complex, p_tx: float, noise_var: float, n_trials: int, seed: int
) -> float:
    """Monte-Carlo estimate of mse_given_scaling with circular Gaussian symbols.

    Each trial draws x_k ~ CN(0, 1) i.i.d. and n ~ CN(0, noise_var), forms
    x_hat = r * (sum_k sqrt(P) h_k x_k + n), and averages |x_hat - sum_k x_k|**2.
    Draw order is fixed: symbol real parts, symbol imaginary parts, noise real,
    noise imaginary.
    """
    arr = _as_channel(h)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    k = arr.size
    g = philox_stream(seed)
    xr = g.standard_normal((n_trials, k))
    xi = g.standard_normal((n_trials, k))
    nr = g.standard_normal(n_trials)
    ni = g.standard_normal(n_trials)
    x = (xr + 1j * xi) / np.sqrt(2.0)
    noise = np.sqrt(noise_var / 2.0) * (nr + 1j * ni)
    y = x @ (np.sqrt(p_tx) * arr) + noise
    err = r * y - x.sum(axis=1)
    return float(np.mean(np.abs(err) ** 2))


def ss_mse_objective(cfg: RadioConfig, scene: Scene, segment: int, pa_x: float) -> float:
    """MSE when only ``segment`` is active with its PA at pa_x."""
    h = eff_channel(cfg, scene, Placement("SS", [pa_x], segment=segment))
    return float(mse_rows(h, cfg.p_tx, cfg.noise_var))


def ss_exhaustive(cfg: RadioConfig, scene: Scene, q_grid: int) -> RunRecord:
    """Grid search over every segment's Q points: exactly M * Q evaluations."""
    grids = DropGrids(scene, q_grid, (cfg,))
    m_seg = scene.layout.m_segments
    final, x, m = min(((*_grid_search(cfg, grids, m), m) for m in range(m_seg)), key=lambda r: r[0])
    return _one_pass(Placement("SS", np.array([x]), segment=m), final, m_seg * q_grid)


def sa1_position_update(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, q_grid: int
) -> tuple[float, float]:
    """Best PA position for one segment with the others frozen.

    Runs the AO's position step and accept rule on the feasible grid and
    returns (new_pa_x, new_mse): the grid row's position if the move did
    not raise the MSE, else the incumbent's, and the MSE that
    evaluate_placement recomputes for it.  SA2 phases are held fixed.
    """
    if not (0 <= segment < scene.layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    state = _AOState(cfg, scene, placement, DropGrids(scene, q_grid, (cfg,)))
    state.position_step(segment)
    return float(state.psis[segment]), state.current


@dataclass(frozen=True)
class PhaseUpdateIntermediates:
    """Every intermediate of the closed-form phase update, for auditing.

    a, b are the per-user channel split for the updated segment: the channel
    is b_k + exp(1j * theta) * a_k.  cap_a = sum(a), cap_b = sum(b),
    cap_c = sum(a * conj(b)); alpha = |A|^2 + |B|^2 and
    gamma = sum(|a|^2 + |b|^2) + noise_var / p_tx.  beta_mag * exp(1j * p) is
    A * conj(B) and delta_mag * exp(1j * q) is C.  The stationarity condition
    is coef_a * sin(theta) + coef_b * cos(theta) = xi with norm
    r_norm = hypot(coef_a, coef_b) and angle phi = atan2(coef_a, coef_b);
    candidates are the two (or, when degenerate, one repeated) roots.
    """

    a: np.ndarray
    b: np.ndarray
    cap_a: complex
    cap_b: complex
    cap_c: complex
    alpha: float
    gamma: float
    beta_mag: float
    p: float
    delta_mag: float
    q: float
    coef_a: float
    coef_b: float
    xi: float
    r_norm: float
    phi: float
    candidates: tuple


def _closed_form_phase(
    a: np.ndarray, b: np.ndarray, noise_over_p: float, theta_current: float
) -> tuple[float, PhaseUpdateIntermediates]:
    """The closed-form phase update with its audit record.

    theta is ``_phase_solution``'s, to the bit; the record's fields are
    recomputed here from the formulas ``_phase_solution`` uses, so its
    candidates hold theta.
    """
    theta = _phase_solution(a, *_a_terms(a), b, noise_over_p, theta_current)
    cap_a = complex(a.sum())
    cap_b = complex(b.sum())
    cap_c = complex(np.vdot(b, a))
    alpha = abs(cap_a) ** 2 + abs(cap_b) ** 2
    gamma = float((np.abs(a) ** 2 + np.abs(b) ** 2).sum()) + noise_over_p
    ab = cap_a * cap_b.conjugate()
    coef_a = 2.0 * (gamma * ab.real - alpha * cap_c.real)
    coef_b = 2.0 * (gamma * ab.imag - alpha * cap_c.imag)
    xi = 4.0 * (cap_c * ab.conjugate()).imag
    r_norm = math.hypot(coef_a, coef_b)
    phi_ang = math.atan2(coef_a, coef_b)
    scale_ref = gamma * abs(ab) + alpha * abs(cap_c)
    if r_norm <= _DEGENERATE_RTOL * scale_ref or scale_ref == 0.0:
        candidates = (theta, theta)
    else:
        spread = math.acos(min(1.0, max(-1.0, xi / r_norm)))
        candidates = (_wrap_phase(phi_ang + spread), _wrap_phase(phi_ang - spread))
    return theta, PhaseUpdateIntermediates(
        a, b, cap_a, cap_b, cap_c, alpha, gamma, abs(ab), float(np.angle(ab)), abs(cap_c),
        float(np.angle(cap_c)), coef_a, coef_b, xi, r_norm, phi_ang, candidates,
    )


def _phase_split(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """An SA2 segment's unphased share a, the others' sum b and its phase: h = b + e^{j theta} a.

    a and b are the AO's own, from ``_AOState`` at the placement.
    """
    if placement.architecture != "SA2":
        raise ValueError("phase updates apply to SA2 placements")
    if not (0 <= segment < scene.layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    state = _AOState(cfg, scene, placement)
    return state.unphased_rows[segment], state._rest(segment), float(state.thetas[segment])


def phase_update_closed(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int
) -> tuple[float, PhaseUpdateIntermediates]:
    """Closed-form best phase for one segment, other segments held fixed."""
    a, b, theta = _phase_split(cfg, scene, placement, segment)
    return _closed_form_phase(a, b, cfg.noise_var / cfg.p_tx, theta)


def phase_objective(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, theta: float
) -> float:
    """Alignment ratio phi(theta) evaluated directly from the channel split.

    phi = |sum_k h_k|^2 / (sum_k |h_k|^2 + noise_var / p_tx) with
    h_k = b_k + exp(1j * theta) * a_k; the minimum MSE at this phase is
    K - phi(theta).
    """
    a, b, _ = _phase_split(cfg, scene, placement, segment)
    h = b + np.exp(1j * theta) * a
    num = abs(h.sum()) ** 2
    den = float((np.abs(h) ** 2).sum()) + cfg.noise_var / cfg.p_tx
    return float(num / den)
