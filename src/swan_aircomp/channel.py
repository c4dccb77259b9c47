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
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Placement, Scene, WaveguideLayout, baseline_scene, validate_placement

SPEED_OF_LIGHT = 299792458.0

ChannelVector = np.ndarray  # complex128, shape (K,)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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


def _free_space(cfg: RadioConfig, scene: Scene, psi: np.ndarray) -> np.ndarray:
    """(P, K) free-space factors sqrt(eta) * exp(-1j * k0 * r) / r; no kappa in them."""
    r = np.sqrt((scene.user_x[None, :] - psi[:, None]) ** 2 + scene.line_dist_sq[None, :])
    return (math.sqrt(cfg.eta) / r) * np.exp(-1j * cfg.wavenumber * r)


def _in_waveguide(cfg: RadioConfig, ell: np.ndarray) -> np.ndarray:
    """(P,) in-waveguide factors for traveled guide lengths ell."""
    return 10.0 ** (-cfg.kappa * ell / 20.0) * np.exp(-1j * cfg.guided_phase_rate * ell)


def segment_gain_matrix(
    cfg: RadioConfig,
    scene: Scene,
    segment: Union[int, Sequence[int]],
    psi: Sequence[float],
    free: Optional[np.ndarray] = None,
) -> np.ndarray:
    """End-to-end gains for PA candidate positions.

    Returns a complex (P, K) matrix: entry (i, k) is the feed-to-user-k gain
    with the PA at psi[i] on ``segment``, one segment index for every
    candidate or a sequence of one per candidate.  Candidates must lie at or
    after their feed.  ``free``, when given, is ``_free_space`` at psi under
    cfg's carrier, computed once for several configs; each row's bits do
    not depend on the batch it is computed in.
    """
    layout = scene.layout
    seg = np.asarray(segment)
    if not np.all((0 <= seg) & (seg < layout.m_segments)):
        raise ValueError(f"segment index {segment} out of range")
    psi_arr = np.atleast_1d(np.asarray(psi, dtype=float))
    ell = psi_arr - layout.feed_x[seg]
    if np.any(ell < 0):
        raise ValueError("candidate positions must not precede the segment feed")
    if free is None:
        free = _free_space(cfg, scene, psi_arr)
    return free * _in_waveguide(cfg, ell)[:, None]


def require_feasible(cfg: RadioConfig, layout: WaveguideLayout, placement: Placement) -> None:
    """Raise ValueError naming every violation if the placement is infeasible under cfg."""
    bad = validate_placement(layout, placement, cfg.delta_min)
    if bad:
        raise ValueError(f"infeasible placement: {[v.detail for v in bad]}")


def placement_gains(cfg: RadioConfig, scene: Scene, placement: Placement) -> np.ndarray:
    """Gain rows (N, K) at a feasible placement's PAs, one per segment in ``placement.segments``."""
    require_feasible(cfg, scene.layout, placement)
    return segment_gain_matrix(cfg, scene, placement.segments, placement.pa_x)


def segment_shares(gains: np.ndarray, phases: Optional[np.ndarray] = None) -> np.ndarray:
    """Each active segment's share of the channel, shape (N, K) for N gain rows.

    The transmit signal splits evenly over the N active segments, so each
    gain row is scaled by 1 / sqrt(N) and then, with phase shifters, rotated
    by exp(1j * phases[m]).  A placement's channel is
    ``segment_shares(...).sum(axis=0)`` wherever it is built (recomputation,
    phase split, position audit, the AO's incumbent), so all of them round
    alike.
    """
    shares = gains * (1.0 / math.sqrt(gains.shape[0]))
    if phases is not None:
        shares = shares * np.exp(1j * phases)[:, None]
    return shares


def eff_channel(cfg: RadioConfig, scene: Scene, placement: Placement) -> ChannelVector:
    """Per-user channel of any feasible placement: its segment shares, summed.

    SS is one active segment, SA1 is SA2 with no rotation, and PASS is SS on
    ``baseline_scene(scene)``.  A single row's share is the row times
    1 / sqrt(1) = 1.0 and its sum is that row, so an SS or PASS channel is
    exactly ``segment_gain_matrix``'s row.
    """
    if placement.architecture == "PASS":
        scene = baseline_scene(scene)
    return segment_shares(placement_gains(cfg, scene, placement), placement.phases).sum(axis=0)
