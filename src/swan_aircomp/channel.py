"""Line-of-sight and in-waveguide channel models for pinching-antenna links.

A pinching antenna at x = psi on segment m radiates the signal that entered
the segment at its feed.  The end-to-end gain to a user at u = (u_x, u_y, 0)
is the product of two factors:

  free space   sqrt(eta) * exp(-1j * k0 * r) / r,   r = ||u - pa||
  in waveguide 10**(-kappa * ell / 20) * exp(-1j * 2 * pi * ell / lambda_g)

with eta = (lambda / (4 pi))**2, k0 = 2 pi / lambda, ell = psi - feed_x[m]
the traveled guide length, kappa the guide attenuation in dB per meter, and
lambda_g = lambda / n_eff the guided wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Placement, Scene, grid_points, validate_placement

SPEED_OF_LIGHT = 299792458.0

ChannelVector = np.ndarray  # complex128, shape (K,)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class RadioConfig:
    """Carrier, waveguide, and link-budget parameters.

    f_c        carrier frequency, Hz
    n_eff      effective refractive index of the dielectric waveguide
    kappa      in-waveguide attenuation, dB per meter (0 = lossless)
    delta_min  minimum spacing between activated PAs, meters
    p_tx       per-user transmit power, watts
    noise_var  receiver noise variance, watts
    """

    f_c: float
    n_eff: float
    kappa: float
    delta_min: float
    p_tx: float
    noise_var: float

    def __post_init__(self) -> None:
        for name in ("f_c", "n_eff", "kappa", "delta_min", "p_tx", "noise_var"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.f_c > 0:
            raise ValueError(f"f_c must be positive, got {self.f_c}")
        if not self.n_eff >= 1:
            raise ValueError(f"n_eff must be >= 1, got {self.n_eff}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not self.delta_min > 0:
            raise ValueError(f"delta_min must be positive, got {self.delta_min}")
        if not self.p_tx > 0:
            raise ValueError(f"p_tx must be positive, got {self.p_tx}")
        if not self.noise_var > 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")
        try:
            waves = (self.eta, self.wavenumber, self.guided_phase_rate)
        except OverflowError:  # eta squares a wavelength too long to square
            waves = (math.inf,)
        if not all(0 < w < math.inf for w in waves):
            raise ValueError(
                f"f_c={self.f_c} and n_eff={self.n_eff} give wave constants out of float range"
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def eta(self) -> float:
        """Free-space reference gain at 1 m: (lambda / (4 pi))**2."""
        return (self.wavelength / (4.0 * math.pi)) ** 2

    @property
    def guided_wavelength(self) -> float:
        return self.wavelength / self.n_eff

    @property
    def guided_phase_rate(self) -> float:
        """Phase accumulated per meter of guide: 2 pi / lambda_g."""
        return 2.0 * math.pi / self.guided_wavelength


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


def _free_space(cfg: RadioConfig, scene: Scene, psi: np.ndarray) -> np.ndarray:
    """(P, K) free-space factors sqrt(eta) * exp(-1j * k0 * r) / r; no kappa in them."""
    r = np.sqrt((scene.user_x[None, :] - psi[:, None]) ** 2 + scene.line_dist_sq[None, :])
    return (math.sqrt(cfg.eta) / r) * np.exp(-1j * cfg.wavenumber * r)


def _in_waveguide(cfg: RadioConfig, ell: np.ndarray) -> np.ndarray:
    """(P,) in-waveguide factors for traveled guide lengths ell."""
    return 10.0 ** (-cfg.kappa * ell / 20.0) * np.exp(-1j * cfg.guided_phase_rate * ell)


def segment_gain_matrix(
    cfg: RadioConfig, scene: Scene, segment: int, psi: Sequence[float]
) -> np.ndarray:
    """End-to-end gains for PA candidate positions on one segment.

    Returns a complex (P, K) matrix: entry (i, k) is the feed-to-user-k gain
    with the PA at psi[i].  Candidates must lie at or after the feed.
    """
    layout = scene.layout
    if not (0 <= segment < layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    psi_arr = np.atleast_1d(np.asarray(psi, dtype=float))
    feed = float(layout.feed_x[segment])
    ell = psi_arr - feed
    if np.any(ell < 0):
        raise ValueError("candidate positions must not precede the segment feed")
    return _free_space(cfg, scene, psi_arr) * _in_waveguide(cfg, ell)[:, None]


class _DropMemo:
    """Free-space grid factors of one user drop, keyed by the grid they cover.

    The key is (feed, seg_length, height, q, f_c): with the users, that fixes
    every input of ``_free_space``, so a hit returns the bits a miss would
    build and no caller can see whether it shared.  A call on another drop
    clears it first, so at most one drop's factors stay alive.  The factors
    are read-only and never handed out; callers get products of them.
    """

    def __init__(self) -> None:
        self.users = None
        self.free: dict = {}

    def free_space(self, cfg: RadioConfig, scene: Scene, segment: int, q: int, pts) -> np.ndarray:
        if scene.users is not self.users:
            self.free.clear()
            self.users = scene.users
        layout = scene.layout
        key = (float(layout.feed_x[segment]), layout.seg_length, layout.height, q, cfg.f_c)
        free = self.free.get(key)
        if free is None:
            free = self.free[key] = _free_space(cfg, scene, pts)
            free.setflags(write=False)
        return free


_DROP_MEMO = _DropMemo()


def grid_gains(cfg: RadioConfig, scene: Scene, segment: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and (Q, K) gains of one segment's Q-point search grid.

    Equal to ``segment_gain_matrix(cfg, scene, segment, grid_points(...))``
    bit for bit.  The kappa-free free-space factor is built once per grid
    and user drop and kept in a one-drop memo, so every scheme and kappa on
    the drop pays only the multiply by its in-waveguide factor.
    """
    layout = scene.layout
    pts = grid_points(layout, segment, q)
    free = _DROP_MEMO.free_space(cfg, scene, segment, q, pts)
    guide = _in_waveguide(cfg, pts - float(layout.feed_x[segment]))
    return pts, free * guide[:, None]


def eff_channel_ss(cfg: RadioConfig, scene: Scene, segment: int, pa_x: float) -> ChannelVector:
    """Per-user channel when only ``segment`` is active with its PA at pa_x."""
    layout = scene.layout
    if not (0 <= segment < layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    lo = float(layout.feed_x[segment])
    if not (lo <= pa_x <= lo + layout.seg_length):
        raise ValueError(f"pa_x={pa_x} outside segment {segment}")
    return segment_gain_matrix(cfg, scene, segment, [pa_x])[0]


def placement_gains(cfg: RadioConfig, scene: Scene, placement: Placement) -> np.ndarray:
    """Per-segment gain rows (M, K) at a feasible SA placement's PA positions."""
    bad = validate_placement(scene.layout, placement, cfg.delta_min)
    if bad:
        raise ValueError(f"infeasible placement: {[v.detail for v in bad]}")
    rows = [
        segment_gain_matrix(cfg, scene, m, [placement.pa_x[m]])[0]
        for m in range(scene.layout.m_segments)
    ]
    return np.vstack(rows)


def segment_shares(gains: np.ndarray, phases: Optional[np.ndarray] = None) -> np.ndarray:
    """Each segment's share of the combined SA channel, shape (M, K).

    The transmit signal splits evenly over the M segments, so each gain row
    is scaled by 1 / sqrt(M) and then, with phase shifters, rotated by
    exp(1j * phases[m]).  A placement's SA channel is
    ``segment_shares(...).sum(axis=0)`` wherever it is built (recomputation,
    phase split, position audit, the AO's incumbent), so all of them round
    alike.
    """
    shares = gains * (1.0 / math.sqrt(gains.shape[0]))
    if phases is not None:
        shares = shares * np.exp(1j * phases)[:, None]
    return shares


def eff_channel_sa1(cfg: RadioConfig, scene: Scene, placement: Placement) -> ChannelVector:
    """Per-user channel with all segments active and feeds fed equal shares."""
    return segment_shares(placement_gains(cfg, scene, placement)).sum(axis=0)


def eff_channel_sa2(cfg: RadioConfig, scene: Scene, placement: Placement) -> ChannelVector:
    """Like eff_channel_sa1 but each segment m is rotated by exp(1j * phases[m])."""
    if placement.phases is None:
        raise ValueError("SA2 channel needs phases")
    gains = placement_gains(cfg, scene, placement)
    return segment_shares(gains, placement.phases).sum(axis=0)
