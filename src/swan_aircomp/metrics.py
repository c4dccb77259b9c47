"""Mean-squared-error metrics for over-the-air sum aggregation.

K users transmit unit-variance symbols x_k simultaneously; the receiver sees
y = sum_k sqrt(P) h_k x_k + n with n ~ CN(0, noise_var) and estimates the sum
x = sum_k x_k as x_hat = r * y.  For a scaling r the estimation error is

  mse(r) = sum_k |r sqrt(P) h_k - 1|**2 + |r|**2 * noise_var

which is minimized by r_opt = sqrt(P) * conj(sum_k h_k) / denom with
denom = P * sum_k |h_k|**2 + noise_var, giving

  mse_min = K - P * |sum_k h_k|**2 / denom.

Runs need only that minimum; ``audit`` keeps r_opt, the MSE at a given
scaling and a symbol-level Monte-Carlo estimate of it.
"""

from __future__ import annotations

import numpy as np


def mse_rows(h: np.ndarray, p_tx: float, noise_var: float) -> np.ndarray:
    """Minimum aggregation MSE of each channel vector along the last axis.

    ``h`` is a (..., K) complex array; the result has shape (...), so a (K,)
    vector gives a 0-d value.  This is the one implementation of the formula:
    every scheme, scan and oracle scores its candidates here, so a value
    found in a batch equals the recomputation from the same channel vector.
    """
    # np.add.reduce is what .sum() calls, without its Python wrapper
    signal = p_tx * np.abs(np.add.reduce(h, axis=-1)) ** 2
    denom = p_tx * np.add.reduce(np.square(np.abs(h)), axis=-1) + noise_var
    return h.shape[-1] - signal / denom
