"""Placement and phase optimizers for minimum-MSE over-the-air aggregation.

Four schemes are covered:

  SS    one segment active; a two-stage search picks the segment by its
        midpoint and then grid-searches that segment.
  SA1   every segment active through an equal power split; PA positions are
        optimized one segment at a time by 1-D grid search.
  SA2   like SA1 plus a phase shifter per segment; alternating sweeps apply a
        closed-form phase update and the 1-D position search.
  PASS  conventional baseline: a single unsegmented waveguide spanning the
        same aperture, fed at its left end, one PA found by grid search.

SA1 and SA2 keep an update only when it does not raise the MSE, so their
recorded MSE traces never increase.  The SS trace is (best midpoint probe,
grid minimum on that segment) and can rise, because the grid need not
contain the midpoint.  ``evaluations`` counts objective evaluations, one per
candidate probed (for the closed-form phase update: its two stationary
candidates plus the acceptance check).  An AO position update counts every
feasible grid point plus the incumbent: its screen scores each of them from
per-row statistics, and only the few that can still win are scored again on
the exact path.  Both AO passes keep a change only if the rescored whole
channel's MSE did not rise (a step that changes nothing is skipped, but still
counted), so the recorded MSE is the one evaluate_placement recomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel import (
    RadioConfig,
    eff_channel_sa1,
    eff_channel_sa2,
    eff_channel_ss,
    grid_gains,
    placement_gains,
    segment_gain_matrix,
    segment_shares,
)
from .geometry import (
    Placement,
    Scene,
    WaveguideLayout,
    feasible_grid,  # no caller here; perfbench's probe wraps optimizers.feasible_grid
    spacing_mask,
    validate_placement,
)
from .metrics import mse_rows
from .rng import philox_stream

TWO_PI = 2.0 * math.pi

# A stationary-point system with norm this small (relative to its natural
# scale) carries no phase information; the incumbent phase is kept.
_DEGENERATE_RTOL = 1e-15

# (position tuple, rotation) pairs the joint oracles score per kernel call,
# which bounds their memory at any grid size the tuple cap admits.
_TUPLE_BLOCK = 1 << 12

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one optimizer run.

    mse_trace holds the objective after the initial evaluation and then per
    sweep or stage (optimizer-dependent); final_mse is its last entry.
    evaluate_placement(cfg, scene, placement) recomputes it exactly for SS,
    PASS, SA1 and SA2, and to about 1e-12 relative for the joint oracles,
    whose best candidate's channel is summed in a different order.
    """

    placement: Placement
    mse_trace: tuple
    final_mse: float
    iterations: int
    evaluations: int


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


def _one_pass(placement: Placement, final: float, evaluations: int) -> RunRecord:
    """Record of a search that scores its candidates once: its trace is its result."""
    return RunRecord(placement, (final,), final, 1, evaluations)


def ss_mse_objective(cfg: RadioConfig, scene: Scene, segment: int, pa_x: float) -> float:
    """MSE when only ``segment`` is active with its PA at pa_x."""
    h = eff_channel_ss(cfg, scene, segment, pa_x)
    return float(mse_rows(h, cfg.p_tx, cfg.noise_var))


def _grid_search(cfg: RadioConfig, scene: Scene, segment: int, q_grid: int) -> tuple[float, float]:
    """First minimum of the MSE over one segment's Q-point grid: (MSE, position)."""
    pts, gains = grid_gains(cfg, scene, segment, q_grid)
    mses = mse_rows(gains, cfg.p_tx, cfg.noise_var)
    j = int(np.argmin(mses))
    return float(mses[j]), float(pts[j])


def ss_two_stage(cfg: RadioConfig, scene: Scene, q_grid: int) -> RunRecord:
    """Segment selection by midpoint probing, then a grid search on the winner.

    Stage 1 evaluates the MSE with the PA at each segment midpoint (M
    evaluations) and keeps the best segment; stage 2 grid-searches that
    segment with Q points (Q evaluations).  Exactly M + Q evaluations total;
    ties break toward the lowest segment index and lowest grid index.
    """
    layout = scene.layout
    probes = [ss_mse_objective(cfg, scene, m, x) for m, x in enumerate(layout.midpoints.tolist())]
    best_m = int(np.argmin(probes))
    final, x = _grid_search(cfg, scene, best_m, q_grid)
    placement = Placement("SS", np.array([x]), segment=best_m)
    return RunRecord(
        placement=placement,
        mse_trace=(probes[best_m], final),
        final_mse=final,
        iterations=1,
        evaluations=layout.m_segments + q_grid,
    )


def ss_exhaustive(cfg: RadioConfig, scene: Scene, q_grid: int) -> RunRecord:
    """Grid search over every segment's Q points: exactly M * Q evaluations."""
    layout = scene.layout
    best = (math.inf, 0, 0.0)
    for m in range(layout.m_segments):
        val, x = _grid_search(cfg, scene, m, q_grid)
        if val < best[0]:
            best = (val, m, x)
    final, m_star, x_star = best
    return _one_pass(Placement("SS", np.array([x_star]), segment=m_star), final,
                     layout.m_segments * q_grid)


def baseline_layout(scene: Scene) -> WaveguideLayout:
    """Single unsegmented waveguide covering the same aperture as the scene's."""
    lo, hi = scene.layout.span
    return WaveguideLayout(1, hi - lo, np.array([lo]), scene.layout.height)


def baseline_scene(scene: Scene) -> Scene:
    return Scene(scene.region, baseline_layout(scene), scene.users)


def pass_baseline(cfg: RadioConfig, scene: Scene, q_grid: int) -> RunRecord:
    """Conventional single-waveguide baseline, fed at the aperture's left end.

    The one PA is grid-searched over the full span, paying in-waveguide
    attenuation over the whole feed-to-PA run.  Q evaluations.
    """
    final, x = _grid_search(cfg, baseline_scene(scene), 0, q_grid)
    return _one_pass(Placement("PASS", np.array([x]), segment=0), final, q_grid)


def midpoint_init(scene: Scene, architecture: str) -> Placement:
    """Deterministic AO start: every PA at its segment midpoint, phases zero."""
    layout = scene.layout
    phases = np.zeros(layout.m_segments) if architecture == "SA2" else None
    return Placement(architecture, layout.midpoints, phases=phases)


def random_init(
    scene: Scene, architecture: str, seed: int, delta_min: float, max_tries: int = 100
) -> Placement:
    """Random feasible AO start: uniform positions per segment, uniform phases.

    Draw order per attempt: M position uniforms, then (SA2 only) M phase
    uniforms.  Draws violating the ``delta_min`` spacing are rejected and
    retried; raises if no feasible draw is found in ``max_tries``.
    """
    layout = scene.layout
    g = philox_stream(seed)
    for _ in range(max_tries):
        psis = layout.feed_x + layout.seg_length * g.random(layout.m_segments)
        phases = TWO_PI * g.random(layout.m_segments) if architecture == "SA2" else None
        p = Placement(architecture, psis, phases=phases)
        if not validate_placement(layout, p, delta_min):
            return p
    raise ValueError(f"no feasible random init found in {max_tries} tries")


def _wrap_phase(theta: float) -> float:
    """theta modulo 2 pi in [0, 2 pi); ``%`` alone rounds a tiny negative theta up to 2 pi."""
    theta %= TWO_PI
    return 0.0 if theta == TWO_PI else theta


def _phase_solution(
    a: np.ndarray, b: np.ndarray, noise_over_p: float, theta_current: float
) -> tuple[float, tuple]:
    """Maximize phi(theta) = |B + e^{j theta} A|^2 / (gamma + 2 Re(C e^{j theta})) terms.

    The objective is a ratio of two sinusoids in theta; its stationary points
    solve coef_a * sin(theta) + coef_b * cos(theta) = xi, giving at most two
    candidates phi +- arccos(xi / r_norm).  The better candidate is returned
    (ties toward the smaller angle); a degenerate system returns the incumbent.
    Returns (theta, terms) with terms the PhaseUpdateIntermediates fields
    after a and b but for the angles p and q, as a plain tuple: the AO uses
    theta only, and only the audit record pays for the two angles.
    """
    cap_a = complex(a.sum())
    cap_b = complex(b.sum())
    cap_c = complex(np.vdot(b, a))  # sum_k a_k * conj(b_k)
    alpha = abs(cap_a) ** 2 + abs(cap_b) ** 2
    gamma = float((np.abs(a) ** 2 + np.abs(b) ** 2).sum()) + noise_over_p
    ab = cap_a * np.conj(cap_b)
    beta_mag = abs(ab)
    delta_mag = abs(cap_c)
    coef_a = 2.0 * (gamma * ab.real - alpha * cap_c.real)
    coef_b = 2.0 * (gamma * ab.imag - alpha * cap_c.imag)
    # 4 |beta| |delta| sin(q - p) = 4 Im(C * conj(A * conj(B)))
    xi = 4.0 * float((cap_c * np.conj(ab)).imag)
    r_norm = math.hypot(coef_a, coef_b)
    phi_ang = math.atan2(coef_a, coef_b)
    scale_ref = gamma * beta_mag + alpha * delta_mag
    terms = (
        cap_a, cap_b, cap_c, alpha, gamma, beta_mag, delta_mag,
        coef_a, coef_b, xi, r_norm, phi_ang,
    )

    def phi_of(theta: float) -> float:
        rot = complex(math.cos(theta), math.sin(theta))
        num = alpha + 2.0 * (ab * rot).real
        den = gamma + 2.0 * (cap_c * rot).real
        return num / den

    if r_norm <= _DEGENERATE_RTOL * scale_ref or scale_ref == 0.0:
        theta = _wrap_phase(theta_current)
        return theta, terms + ((theta, theta),)

    acos_arg = min(1.0, max(-1.0, xi / r_norm))
    spread = math.acos(acos_arg)
    th1 = _wrap_phase(phi_ang + spread)
    th2 = _wrap_phase(phi_ang - spread)
    f1 = phi_of(th1)
    f2 = phi_of(th2)
    if f1 > f2:
        theta = th1
    elif f2 > f1:
        theta = th2
    else:
        theta = min(th1, th2)
    return theta, terms + ((th1, th2),)


def _closed_form_phase(
    a: np.ndarray, b: np.ndarray, noise_over_p: float, theta_current: float
) -> tuple[float, PhaseUpdateIntermediates]:
    """The closed-form phase update with its audit record (``_phase_solution``)."""
    theta, (cap_a, cap_b, cap_c, alpha, gamma, beta_mag, delta_mag, *rest) = _phase_solution(
        a, b, noise_over_p, theta_current
    )
    p_ang = float(np.angle(cap_a * np.conj(cap_b)))
    q_ang = float(np.angle(cap_c))
    return theta, PhaseUpdateIntermediates(
        a, b, cap_a, cap_b, cap_c, alpha, gamma, beta_mag, p_ang, delta_mag, q_ang, *rest
    )


class _AOState:
    """The AO's state at a feasible SA placement, its phases taken as given.

    SA1 is SA2 with every phase held at zero: e^{j0} = 1 + 0j leaves every
    MSE bit as it is.  ``base`` holds every segment's gain row (M, K) and
    ``shares`` is always ``segment_shares(base, thetas)``: a change to
    segment m's PA or phase recomputes row m alone, with segment_shares'
    arithmetic.  ``others[m]`` lists the segments but m in order, so
    ``shares[others[m]]`` is np.delete's array and rest sums keep their
    bits.  ``current`` is the MSE of the whole channel ``shares.sum(axis=0)``.
    """

    def __init__(self, cfg: RadioConfig, scene: Scene, placement: Placement) -> None:
        m_seg = scene.layout.m_segments
        self.cfg = cfg
        self.scale = 1.0 / math.sqrt(m_seg)
        self.psis = placement.pa_x.copy()
        self.thetas = placement.phases.copy() if placement.architecture == "SA2" else np.zeros(m_seg)
        self.base = placement_gains(cfg, scene, placement)
        self.shares = segment_shares(self.base, self.thetas)
        self.others = [np.delete(np.arange(m_seg), m) for m in range(m_seg)]
        self.current = self._mse()

    def _mse(self) -> float:
        return float(mse_rows(self.shares.sum(axis=0), self.cfg.p_tx, self.cfg.noise_var))

    def split(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Segment m's unphased share a and the others' sum b: h = b + e^{j theta_m} a."""
        return self.base[m] * self.scale, self.shares[self.others[m]].sum(axis=0)

    def solve_phase(self, m: int, solver=_phase_solution) -> tuple:
        """Segment m's closed-form best phase, every other segment frozen.

        Returns ``solver``'s (theta, terms): ``_phase_solution`` for the AO,
        ``_closed_form_phase`` for the audit record.
        """
        return solver(*self.split(m), self.cfg.noise_var / self.cfg.p_tx, float(self.thetas[m]))

    def position_step(
        self, m: int, pts: np.ndarray, stats: _GridStats
    ) -> tuple[Optional[int], float, int]:
        """Best point of segment m's grid ``pts`` for its PA, every other segment frozen.

        ``_screened_scan`` scores the feasible grid points in grid order, then
        the incumbent, so ties go to the lowest grid index.  Returns the first
        minimum's grid row (None for the incumbent), its MSE and the
        candidates counted: every feasible grid point plus the incumbent.
        """
        cfg = self.cfg
        fixed = self.psis[self.others[m]]
        lo, hi = pts[0], pts[-1]
        # a fixed PA delta_min clear of the grid's nearer end is clear of
        # every grid point (rounding is monotone), so no mask is needed
        if all(lo - x >= cfg.delta_min or x - hi >= cfg.delta_min for x in fixed.tolist()):
            feasible, n_feasible = None, pts.size
        else:
            feasible = spacing_mask(pts, fixed, cfg.delta_min)
            n_feasible = int(np.count_nonzero(feasible))
        factor = self.scale * np.exp(1j * self.thetas[m])
        rest = self.shares[self.others[m]].sum(axis=0)
        rows, mses = _screened_scan(stats, rest, factor, self.base[m], feasible, cfg.p_tx, cfg.noise_var)
        j = int(np.argmin(mses))
        return (int(rows[j]) if j < rows.size else None), float(mses[j]), n_feasible + 1

    def settle(self, m: int, psi: float, row: np.ndarray, theta: float) -> None:
        """The one accept rule of both AO passes.

        A change that moves neither m's PA nor its phase costs nothing; any
        other is undone if it raised the whole channel's MSE, which is what
        evaluate_placement computes.
        """
        if psi == self.psis[m] and theta == self.thetas[m]:
            return
        undo = (float(self.psis[m]), self.base[m].copy(), float(self.thetas[m]))
        self._move(m, psi, row, theta)
        candidate = self._mse()
        if candidate <= self.current:
            self.current = candidate
        else:
            self._move(m, *undo)

    def _move(self, m: int, psi: float, row: np.ndarray, theta: float) -> None:
        self.psis[m] = psi
        self.base[m] = row
        self.thetas[m] = theta
        self.shares[m] = self.base[m] * self.scale * np.exp(1j * self.thetas)[m]


def _require_sa2_segment(scene: Scene, placement: Placement, segment: int) -> None:
    if placement.architecture != "SA2":
        raise ValueError("phase updates apply to SA2 placements")
    if not (0 <= segment < scene.layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")


def phase_update_closed(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int
) -> tuple[float, PhaseUpdateIntermediates]:
    """Closed-form best phase for one segment, other segments held fixed."""
    _require_sa2_segment(scene, placement, segment)
    return _AOState(cfg, scene, placement).solve_phase(segment, _closed_form_phase)


def phase_objective(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, theta: float
) -> float:
    """Alignment ratio phi(theta) evaluated directly from the channel split.

    phi = |sum_k h_k|^2 / (sum_k |h_k|^2 + noise_var / p_tx) with
    h_k = b_k + exp(1j * theta) * a_k; the minimum MSE at this phase is
    K - phi(theta).
    """
    _require_sa2_segment(scene, placement, segment)
    a, b = _AOState(cfg, scene, placement).split(segment)
    h = b + np.exp(1j * theta) * a
    num = abs(h.sum()) ** 2
    den = float((np.abs(h) ** 2).sum()) + cfg.noise_var / cfg.p_tx
    return float(num / den)


class _GridStats(NamedTuple):
    """What the position screen reads of one segment's (Q, K) grid gains G.

    Per row q: ``sums`` holds S_q = sum_k g_qk and ``energy`` holds
    E_q = sum_k |g_qk|^2; ``l1`` is the largest row 1-norm sum_k |g_qk|.
    """

    gains: np.ndarray
    sums: np.ndarray
    energy: np.ndarray
    l1: float


def _grid_stats(gains: np.ndarray) -> _GridStats:
    ones = np.ones(gains.shape[1])
    mag = np.abs(gains)
    return _GridStats(gains, gains @ ones, np.square(mag) @ ones, float((mag @ ones).max()))


def _screened_scan(
    stats: _GridStats,
    rest: np.ndarray,
    factor: complex,
    incumbent: np.ndarray,
    feasible: Optional[np.ndarray],
    p_tx: float,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the candidates of one position update that can win.

    The candidates are h_q = rest + factor * g_q for the grid rows that
    ``feasible`` keeps (all of them when None), then the incumbent gain row.
    The first MSE minimum of the scored candidates is, to the bit, the first
    minimum of scoring every candidate with ``mse_rows``:

    * screen: with f = factor and b = rest, each row's alignment ratio
      r_q = |sum b + f S_q|^2 / (sum |b|^2 + |f|^2 E_q + 2 Re(f X_q)
      + noise_var / p_tx), with X_q = sum_k g_qk conj(b_k), comes from the
      row statistics and one matrix-vector product.  MSE_q = K - r_q.
    * margin: every channel term of r_q's numerator and denominator is at
      most T = (sqrt(K) ||b||_2 + |f| L)^2, and the screen and ``mse_rows``
      each get the sums of them within (8K + 16) eps T.  As r_q <= K, the
      two ratios differ by at most E = c T / D + 8 K eps, with
      c = 2 (8K + 16) eps (1 + K) and D = min_q den_q - c T; the last term
      covers the roundings relative to r (the noise term's among them) and
      to K - r.  So the exact first minimum has r_q >= max r - 2E, and
      every feasible row that close to the maximum is kept.  If D <= 0,
      rounding could swamp a denominator, and every feasible row is kept.
    * confirm: the kept rows, in grid order, and then the incumbent are
      built as ``raw * factor + rest`` and scored by ``mse_rows``, which
      gives a row the same bits in any batch.  Every dropped row scores
      strictly above the winner, so the first minimum does not move.

    Returns (rows, mses): the kept grid row indices and the MSEs of their
    candidates followed by the incumbent's.
    """
    k = stats.gains.shape[1]
    if feasible is not None and not feasible.any():
        rows = np.empty(0, dtype=np.intp)
    else:
        f = complex(factor)
        f_sq = abs(f) ** 2
        sum_b = complex(rest.sum())
        energy_b = float(np.vdot(rest, rest).real)
        z = stats.sums * f
        z += sum_b
        num = z.real ** 2
        num += z.imag ** 2
        den = f_sq * stats.energy
        den += (stats.gains @ (rest.conjugate() * (2.0 * f))).real
        den += energy_b + noise_var / p_tx
        t = (math.sqrt(k * energy_b) + math.sqrt(f_sq) * stats.l1) ** 2
        c = 2.0 * (8 * k + 16) * _EPS * (1 + k)
        low = float(den.min()) - c * t
        if low > 0.0:
            ratio = num / den
            if feasible is not None:
                ratio[~feasible] = -np.inf
            margin = 2.0 * (c * t / low + 8 * k * _EPS)
            rows = (ratio >= ratio.max() - margin).nonzero()[0]
        else:
            rows = np.arange(len(den)) if feasible is None else feasible.nonzero()[0]
    raw = np.concatenate((stats.gains[rows], incumbent[None, :]))
    h = raw * factor
    h += rest
    return rows, mse_rows(h, p_tx, noise_var)


def _ao_engine(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement],
    architecture: str,
    max_iters: int,
    tol: float,
) -> RunRecord:
    """Alternating sweeps of closed-form phase updates and 1-D position search.

    Runs SA1 (positions only, phases held at zero) or SA2 (phases, then
    positions) from ``init``, by default every PA at its segment midpoint
    with zero phases.  The trace holds the initial MSE, then one entry per
    sweep.
    """
    if init is None:
        init = midpoint_init(scene, architecture)
    if init.architecture != architecture:
        raise ValueError(f"expected a {architecture} placement, got {init.architecture}")
    phased = architecture == "SA2"
    if phased:
        # phases wrapped once here, so the placement returned is the one scored
        init = Placement("SA2", init.pa_x, phases=[_wrap_phase(t) for t in init.phases.tolist()])
    state = _AOState(cfg, scene, init)
    # Each segment's grid gains and the row statistics that screen them are
    # built once per call; an update scores only the rows that can win, so
    # the loop builds no (Q, K) temporaries.
    grids = [grid_gains(cfg, scene, m, q_grid) for m in range(scene.layout.m_segments)]
    stats = [_grid_stats(gains) for _, gains in grids]

    evaluations = 1
    trace = [state.current]
    for _ in range(max_iters):
        sweep_start = state.current
        if phased:
            for m in range(len(grids)):
                theta = state.solve_phase(m)[0]
                evaluations += 3
                state.settle(m, state.psis[m], state.base[m], theta)
        for m, ((pts, _), st) in enumerate(zip(grids, stats)):
            row, _, n = state.position_step(m, pts, st)
            evaluations += n
            if row is not None:
                state.settle(m, pts[row], st.gains[row], state.thetas[m])
        trace.append(state.current)
        if sweep_start - state.current < tol:
            break
    return RunRecord(
        placement=Placement(architecture, state.psis, phases=state.thetas if phased else None),
        mse_trace=tuple(trace),
        final_mse=trace[-1],
        iterations=len(trace) - 1,
        evaluations=evaluations,
    )


def sa1_position_update(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, q_grid: int
) -> tuple[float, float]:
    """Best PA position for one segment with the others frozen.

    Runs the AO's position step on the feasible grid plus the incumbent
    position and returns (new_pa_x, new_mse); never worse than the
    incumbent.  SA2 phases are held fixed.
    """
    pts, gains = grid_gains(cfg, scene, segment, q_grid)
    row, mse, _ = _AOState(cfg, scene, placement).position_step(segment, pts, _grid_stats(gains))
    return float(placement.pa_x[segment] if row is None else pts[row]), mse


def sa1_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> RunRecord:
    """Element-wise position optimization for the phase-free combined feed.

    Sweeps the segments in index order, each time grid-searching one PA with
    the others frozen, until a full sweep improves the MSE by less than
    ``tol`` or ``max_iters`` sweeps complete.
    """
    return _ao_engine(cfg, scene, q_grid, init, "SA1", max_iters, tol)


def sa2_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> RunRecord:
    """Alternating optimization with per-segment phase shifters.

    Each sweep first refreshes every phase with the closed-form update, then
    grid-searches every position; both passes keep a change only when it does
    not raise the MSE.
    """
    return _ao_engine(cfg, scene, q_grid, init, "SA2", max_iters, tol)


def evaluate_placement(cfg: RadioConfig, scene: Scene, placement: Placement) -> float:
    """Recompute the minimum MSE of a finished placement from scratch."""
    arch = placement.architecture
    if arch == "SS":
        h = eff_channel_ss(cfg, scene, placement.segment, float(placement.pa_x[0]))
    elif arch == "SA1":
        h = eff_channel_sa1(cfg, scene, placement)
    elif arch == "SA2":
        h = eff_channel_sa2(cfg, scene, placement)
    elif arch == "PASS":
        bscene = baseline_scene(scene)
        h = eff_channel_ss(cfg, bscene, 0, float(placement.pa_x[0]))
    else:  # pragma: no cover - Placement rejects unknown tags
        raise ValueError(f"unknown architecture {arch!r}")
    return float(mse_rows(h, cfg.p_tx, cfg.noise_var))


def _joint_scan(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    extra_candidates: Optional[Sequence[Sequence[float]]],
    rot: np.ndarray,
) -> tuple[float, np.ndarray, int, int]:
    """First MSE minimum over feasible (position tuple, segment-0 rotation) pairs.

    Tuples run over each segment's Q grid (extended by ``extra_candidates``)
    in itertools.product order, last segment fastest; within a tuple the
    rotations ``rot`` run in order.  Pairs are scored in blocks of at most
    ``_TUPLE_BLOCK``.  Returns (MSE, positions, rotation index, pairs scored).
    """
    m_seg = scene.layout.m_segments
    scale = 1.0 / math.sqrt(m_seg)
    extras = [
        np.asarray([] if extra_candidates is None else extra_candidates[m], dtype=float).ravel()
        for m in range(m_seg)
    ]
    shape = tuple(q_grid + e.size for e in extras)
    n_tuples = math.prod(shape)
    if n_tuples > 2_000_000:
        raise ValueError(f"joint grid of {n_tuples} tuples is too large")
    cands = []
    shares = []
    for m in range(m_seg):
        pts, gains = grid_gains(cfg, scene, m, q_grid)
        if extras[m].size:
            # gain rows do not depend on the batch, so appending the extra
            # candidates' rows equals one call over the extended grid
            pts = np.append(pts, extras[m])
            gains = np.vstack([gains, segment_gain_matrix(cfg, scene, m, extras[m])])
        cands.append(pts)
        shares.append(gains * scale)
    pairs = np.triu_indices(m_seg, 1)
    # a block holds whole tuples with all their rotations, or, when the
    # rotations alone exceed a block, one tuple with a run of rotations
    n_rot = len(rot)
    tuples_per_block = max(1, _TUPLE_BLOCK // n_rot)
    rots_per_block = min(n_rot, _TUPLE_BLOCK)
    # every block is scored in the same two buffers (see _ao_engine)
    h_buf = np.empty((tuples_per_block * rots_per_block, scene.k), dtype=complex)
    mag_buf = np.empty(h_buf.shape)
    best = (math.inf, None, 0)
    count = 0
    for start in range(0, n_tuples, tuples_per_block):
        idx = np.unravel_index(np.arange(start, min(start + tuples_per_block, n_tuples)), shape)
        pos = np.stack([c[i] for c, i in zip(cands, idx)], axis=1)
        if m_seg > 1:
            keep = np.abs(pos[:, pairs[0]] - pos[:, pairs[1]]).min(axis=1) >= cfg.delta_min
            pos = pos[keep]
            idx = [i[keep] for i in idx]
        if pos.shape[0] == 0:
            continue
        rows = [shares[m][idx[m]][:, None, :] for m in range(m_seg)]
        for r0 in range(0, n_rot, rots_per_block):
            block_rot = rot[r0:r0 + rots_per_block]
            n = pos.shape[0] * block_rot.size
            h = h_buf[:n].reshape(pos.shape[0], block_rot.size, scene.k)
            np.multiply(block_rot[None, :, None], rows[0], out=h)
            for row in rows[1:]:
                h += row
            mses = mse_rows(h_buf[:n], cfg.p_tx, cfg.noise_var, work=mag_buf[:n])
            count += mses.size
            j = int(np.argmin(mses))
            if float(mses[j]) < best[0]:
                t, r = divmod(j, block_rot.size)
                best = (float(mses[j]), pos[t].copy(), r0 + r)
    if best[1] is None:
        raise ValueError("no feasible joint tuple on the grid")
    return (*best, count)


def sa1_joint_exhaustive(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    extra_candidates: Optional[Sequence[Sequence[float]]] = None,
) -> RunRecord:
    """Global grid minimum over all feasible joint PA position tuples.

    Brute force over the Q^M product grid (optionally extended per segment by
    ``extra_candidates``); intended for tiny instances as an optimizer oracle.
    Ties resolve to the first tuple in itertools.product order.
    """
    final, pa_x, _, count = _joint_scan(cfg, scene, q_grid, extra_candidates, np.ones(1, dtype=complex))
    return _one_pass(Placement("SA1", pa_x), final, count)


def sa2_joint_exhaustive(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    theta_grid: int = 720,
    extra_candidates: Optional[Sequence[Sequence[float]]] = None,
) -> RunRecord:
    """Joint position-and-phase oracle for two segments.

    A common phase on all segments cancels in the MSE, so the second phase is
    pinned to zero and only the first is scanned over ``theta_grid`` points.
    Brute force; intended for tiny oracle instances (M = 2 only).
    """
    if scene.layout.m_segments != 2:
        raise ValueError("the reduced phase oracle supports exactly two segments")
    thetas = np.arange(theta_grid) * (TWO_PI / theta_grid)
    final, pa_x, j, count = _joint_scan(cfg, scene, q_grid, extra_candidates, np.exp(1j * thetas))
    return _one_pass(Placement("SA2", pa_x, phases=np.array([thetas[j], 0.0])), final, count)
