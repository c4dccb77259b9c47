"""Mean-squared-error metrics for over-the-air sum aggregation.

K users transmit unit-variance symbols x_k simultaneously; the receiver sees
y = sum_k sqrt(P) h_k x_k + n with n ~ CN(0, noise_var) and estimates the sum
x = sum_k x_k as x_hat = r * y.  For a scaling r the estimation error is

  mse(r) = sum_k |r sqrt(P) h_k - 1|**2 + |r|**2 * noise_var

which is minimized by r_opt = sqrt(P) * conj(sum_k h_k) / denom with
denom = P * sum_k |h_k|**2 + noise_var, giving

  mse_min = K - P * |sum_k h_k|**2 / denom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import philox_stream


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
    arr = _as_channel(h)
    denom = p_tx * float(np.sum(np.abs(arr) ** 2)) + noise_var
    return complex(np.sqrt(p_tx) * np.conj(arr.sum()) / denom)


def mse_given_scaling(h, r: complex, p_tx: float, noise_var: float) -> float:
    """Aggregation MSE for an arbitrary receive scaling r."""
    arr = _as_channel(h)
    misalign = r * np.sqrt(p_tx) * arr - 1.0
    return float(np.sum(np.abs(misalign) ** 2) + abs(r) ** 2 * noise_var)


def mse_rows(
    h: np.ndarray, p_tx: float, noise_var: float, work: Optional[np.ndarray] = None
) -> np.ndarray:
    """Minimum aggregation MSE of each channel vector along the last axis.

    ``h`` is a (..., K) complex array; the result has shape (...), so a (K,)
    vector gives a 0-d value.  This is the one implementation of the formula:
    every scheme, scan and oracle scores its candidates here, so a value
    found in a batch equals the recomputation from the same channel vector.
    ``work``, a float array of h's shape, holds |h|^2 instead of two fresh
    temporaries; the result is the same to the bit.
    """
    signal = p_tx * np.abs(h.sum(axis=-1)) ** 2
    mag2 = np.square(np.abs(h, out=work), out=work)
    denom = p_tx * mag2.sum(axis=-1) + noise_var
    return h.shape[-1] - signal / denom


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
