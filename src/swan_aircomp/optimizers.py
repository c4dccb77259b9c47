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
candidates plus the acceptance check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import (
    RadioConfig,
    eff_channel_sa1,
    eff_channel_sa2,
    eff_channel_ss,
    placement_gains,
    segment_gain_matrix,
    segment_shares,
)
from .geometry import (
    Placement,
    Scene,
    WaveguideLayout,
    feasible_grid,
    grid_points,
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


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one optimizer run.

    mse_trace holds the objective after the initial evaluation and then per
    accepted update or per sweep (optimizer-dependent); final_mse is its last
    entry.  evaluate_placement(cfg, scene, placement) recomputes it exactly
    for SS and PASS, and to about 1e-12 relative for SA1, SA2 and the joint
    oracles, whose best candidate's channel is summed in a different order.
    """

    placement: Placement
    mse_trace: tuple
    final_mse: float
    iterations: int
    evaluations: int
    seed: int = 0


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


def ss_mse_objective(cfg: RadioConfig, scene: Scene, segment: int, pa_x: float) -> float:
    """MSE when only ``segment`` is active with its PA at pa_x."""
    h = eff_channel_ss(cfg, scene, segment, pa_x)
    return float(mse_rows(h, cfg.p_tx, cfg.noise_var))


def _grid_search(cfg: RadioConfig, scene: Scene, segment: int, q_grid: int) -> tuple[float, float]:
    """First minimum of the MSE over one segment's Q-point grid: (MSE, position)."""
    pts = grid_points(scene.layout, segment, q_grid)
    mses = mse_rows(segment_gain_matrix(cfg, scene, segment, pts), cfg.p_tx, cfg.noise_var)
    j = int(np.argmin(mses))
    return float(mses[j]), float(pts[j])


def ss_two_stage(cfg: RadioConfig, scene: Scene, q_grid: int, seed: int = 0) -> RunRecord:
    """Segment selection by midpoint probing, then a grid search on the winner.

    Stage 1 evaluates the MSE with the PA at each segment midpoint (M
    evaluations) and keeps the best segment; stage 2 grid-searches that
    segment with Q points (Q evaluations).  Exactly M + Q evaluations total;
    ties break toward the lowest segment index and lowest grid index.
    """
    layout = scene.layout
    best_m = 0
    best_mid = math.inf
    for m in range(layout.m_segments):
        mid = float(layout.feed_x[m]) + layout.seg_length / 2.0
        h = segment_gain_matrix(cfg, scene, m, [mid])[0]
        val = float(mse_rows(h, cfg.p_tx, cfg.noise_var))
        if val < best_mid:
            best_mid = val
            best_m = m
    final, x = _grid_search(cfg, scene, best_m, q_grid)
    placement = Placement("SS", np.array([x]), segment=best_m)
    return RunRecord(
        placement=placement,
        mse_trace=(best_mid, final),
        final_mse=final,
        iterations=1,
        evaluations=layout.m_segments + q_grid,
        seed=seed,
    )


def ss_exhaustive(cfg: RadioConfig, scene: Scene, q_grid: int, seed: int = 0) -> RunRecord:
    """Grid search over every segment's Q points: exactly M * Q evaluations."""
    layout = scene.layout
    best = (math.inf, 0, 0.0)
    for m in range(layout.m_segments):
        val, x = _grid_search(cfg, scene, m, q_grid)
        if val < best[0]:
            best = (val, m, x)
    final, m_star, x_star = best
    placement = Placement("SS", np.array([x_star]), segment=m_star)
    return RunRecord(
        placement=placement,
        mse_trace=(final,),
        final_mse=final,
        iterations=1,
        evaluations=layout.m_segments * q_grid,
        seed=seed,
    )


def baseline_layout(scene: Scene) -> WaveguideLayout:
    """Single unsegmented waveguide covering the same aperture as the scene's."""
    lo, hi = scene.layout.span
    return WaveguideLayout(1, hi - lo, np.array([lo]), scene.layout.height)


def baseline_scene(scene: Scene) -> Scene:
    return Scene(scene.region, baseline_layout(scene), scene.users)


def pass_baseline(cfg: RadioConfig, scene: Scene, q_grid: int, seed: int = 0) -> RunRecord:
    """Conventional single-waveguide baseline, fed at the aperture's left end.

    The one PA is grid-searched over the full span, paying in-waveguide
    attenuation over the whole feed-to-PA run.  Q evaluations.
    """
    final, x = _grid_search(cfg, baseline_scene(scene), 0, q_grid)
    placement = Placement("PASS", np.array([x]), segment=0)
    return RunRecord(
        placement=placement,
        mse_trace=(final,),
        final_mse=final,
        iterations=1,
        evaluations=q_grid,
        seed=seed,
    )


def midpoint_init(scene: Scene, architecture: str) -> Placement:
    """Deterministic AO start: every PA at its segment midpoint, phases zero."""
    layout = scene.layout
    psis = layout.feed_x + layout.seg_length / 2.0
    phases = np.zeros(layout.m_segments) if architecture == "SA2" else None
    return Placement(architecture, psis, phases=phases)


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


def _closed_form_phase(
    a: np.ndarray, b: np.ndarray, noise_over_p: float, theta_current: float
) -> tuple[float, PhaseUpdateIntermediates]:
    """Maximize phi(theta) = |B + e^{j theta} A|^2 / (gamma + 2 Re(C e^{j theta})) terms.

    The objective is a ratio of two sinusoids in theta; its stationary points
    solve coef_a * sin(theta) + coef_b * cos(theta) = xi, giving at most two
    candidates phi +- arccos(xi / r_norm).  The better candidate is returned
    (ties toward the smaller angle); a degenerate system returns the incumbent.
    """
    cap_a = complex(a.sum())
    cap_b = complex(b.sum())
    cap_c = complex(np.vdot(b, a))  # sum_k a_k * conj(b_k)
    alpha = abs(cap_a) ** 2 + abs(cap_b) ** 2
    gamma = float((np.abs(a) ** 2 + np.abs(b) ** 2).sum()) + noise_over_p
    ab = cap_a * np.conj(cap_b)
    beta_mag = abs(ab)
    p_ang = float(np.angle(ab))
    delta_mag = abs(cap_c)
    q_ang = float(np.angle(cap_c))
    coef_a = 2.0 * (gamma * ab.real - alpha * cap_c.real)
    coef_b = 2.0 * (gamma * ab.imag - alpha * cap_c.imag)
    # 4 |beta| |delta| sin(q - p) = 4 Im(C * conj(A * conj(B)))
    xi = 4.0 * float((cap_c * np.conj(ab)).imag)
    r_norm = math.hypot(coef_a, coef_b)
    phi_ang = math.atan2(coef_a, coef_b)
    scale_ref = gamma * beta_mag + alpha * delta_mag

    def phi_of(theta: float) -> float:
        rot = complex(math.cos(theta), math.sin(theta))
        num = alpha + 2.0 * (ab * rot).real
        den = gamma + 2.0 * (cap_c * rot).real
        return num / den

    if r_norm <= _DEGENERATE_RTOL * scale_ref or scale_ref == 0.0:
        theta = theta_current % TWO_PI
        inter = PhaseUpdateIntermediates(
            a, b, cap_a, cap_b, cap_c, alpha, gamma, beta_mag, p_ang, delta_mag,
            q_ang, coef_a, coef_b, xi, r_norm, phi_ang, (theta, theta),
        )
        return theta, inter

    acos_arg = min(1.0, max(-1.0, xi / r_norm))
    spread = math.acos(acos_arg)
    th1 = (phi_ang + spread) % TWO_PI
    th2 = (phi_ang - spread) % TWO_PI
    f1 = phi_of(th1)
    f2 = phi_of(th2)
    if f1 > f2:
        theta = th1
    elif f2 > f1:
        theta = th2
    else:
        theta = min(th1, th2)
    inter = PhaseUpdateIntermediates(
        a, b, cap_a, cap_b, cap_c, alpha, gamma, beta_mag, p_ang, delta_mag,
        q_ang, coef_a, coef_b, xi, r_norm, phi_ang, (th1, th2),
    )
    return theta, inter


def _rest(shares: np.ndarray, segment: int) -> np.ndarray:
    """Sum of every segment's share but ``segment``'s (zero when M = 1)."""
    return np.delete(shares, segment, axis=0).sum(axis=0)


def _split_shares(
    gains: np.ndarray, phases: np.ndarray, segment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Segment's unphased share a and the phased rest b of an SA2 channel."""
    return segment_shares(gains)[segment], _rest(segment_shares(gains, phases), segment)


def _split_channel(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the SA2 channel into segment's unphased share a and the rest b."""
    if placement.architecture != "SA2" or placement.phases is None:
        raise ValueError("phase updates apply to SA2 placements")
    if not (0 <= segment < scene.layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    return _split_shares(placement_gains(cfg, scene, placement), placement.phases, segment)


def phase_update_closed(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int
) -> tuple[float, PhaseUpdateIntermediates]:
    """Closed-form best phase for one segment, other segments held fixed."""
    a, b = _split_channel(cfg, scene, placement, segment)
    return _closed_form_phase(
        a, b, cfg.noise_var / cfg.p_tx, float(placement.phases[segment])
    )


def phase_objective(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, theta: float
) -> float:
    """Alignment ratio phi(theta) evaluated directly from the channel split.

    phi = |sum_k h_k|^2 / (sum_k |h_k|^2 + noise_var / p_tx) with
    h_k = b_k + exp(1j * theta) * a_k; the minimum MSE at this phase is
    K - phi(theta).
    """
    a, b = _split_channel(cfg, scene, placement, segment)
    h = b + np.exp(1j * theta) * a
    num = abs(h.sum()) ** 2
    den = float((np.abs(h) ** 2).sum()) + cfg.noise_var / cfg.p_tx
    return float(num / den)


def _ao_engine(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement],
    architecture: str,
    update_phases: bool,
    max_iters: int,
    tol: float,
    seed: int,
    trace_granularity: str,
) -> RunRecord:
    """Alternating sweeps of closed-form phase updates and 1-D position search.

    Runs SA1 (positions only) or SA2 (phases, then positions) from ``init``,
    by default every PA at its segment midpoint with zero phases.
    """
    if init is None:
        init = midpoint_init(scene, architecture)
    if init.architecture != architecture:
        raise ValueError(f"expected a {architecture} placement, got {init.architecture}")
    layout = scene.layout
    m_seg = layout.m_segments
    scale = 1.0 / math.sqrt(m_seg)
    psis = init.pa_x.copy()
    thetas = init.phases.copy() if architecture == "SA2" else None
    # The grid and the users are fixed for the whole run, so each segment's
    # (Q, K) grid gains are built once; position updates index their rows.
    grids = [grid_points(layout, m, q_grid) for m in range(m_seg)]
    gains = [segment_gain_matrix(cfg, scene, m, grids[m]) for m in range(m_seg)]
    base = placement_gains(cfg, scene, init)
    # Position updates score in these buffers: fresh (Q+1, K) temporaries sit
    # near glibc's mmap threshold from K = 8 at Q = 1000, so whether each one
    # page-faults in anew depends on heap layout and varies between processes.
    raw_buf = np.empty((max(g.size for g in grids) + 1, scene.k), dtype=complex)
    h_buf = np.empty_like(raw_buf)
    mag_buf = np.empty(raw_buf.shape)

    def incumbent_mse() -> float:
        h = segment_shares(base, thetas).sum(axis=0)
        return float(mse_rows(h, cfg.p_tx, cfg.noise_var))

    current = incumbent_mse()
    evaluations = 1
    trace = [current]
    iterations = 0
    per_update = trace_granularity == "update"

    for sweep in range(max_iters):
        sweep_start = current
        if thetas is not None and update_phases:
            for m in range(m_seg):
                a, b = _split_shares(base, thetas, m)
                theta_new, _ = _closed_form_phase(
                    a, b, cfg.noise_var / cfg.p_tx, float(thetas[m])
                )
                theta_old = thetas[m]
                thetas[m] = theta_new
                candidate = incumbent_mse()
                evaluations += 3
                if candidate <= current:
                    current = candidate
                else:
                    thetas[m] = theta_old
                if per_update:
                    trace.append(current)
        for m in range(m_seg):
            b = _rest(segment_shares(base, thetas), m)
            keep = spacing_mask(grids[m], np.delete(psis, m), cfg.delta_min)
            # feasible grid points in grid order, then the incumbent, so
            # argmin ties resolve toward the lowest grid index
            cand_arr = np.append(grids[m][keep], psis[m])
            n = cand_arr.size
            raw = raw_buf[:n]
            np.compress(keep, gains[m], axis=0, out=raw[:-1])
            raw[-1] = base[m]
            factor = scale if thetas is None else scale * np.exp(1j * thetas[m])
            h = np.multiply(raw, factor, out=h_buf[:n])
            h += b
            mses = mse_rows(h, cfg.p_tx, cfg.noise_var, work=mag_buf[:n])
            j = int(np.argmin(mses))
            evaluations += cand_arr.size
            if float(mses[j]) <= current:
                psis[m] = cand_arr[j]
                base[m] = raw[j]
                current = float(mses[j])
            if per_update:
                trace.append(current)
        iterations = sweep + 1
        if not per_update:
            trace.append(current)
        if sweep_start - current < tol:
            break
    phases = None if thetas is None else thetas % TWO_PI
    return RunRecord(
        placement=Placement(architecture, psis, phases=phases),
        mse_trace=tuple(trace),
        final_mse=trace[-1],
        iterations=iterations,
        evaluations=evaluations,
        seed=seed,
    )


def sa1_position_update(
    cfg: RadioConfig, scene: Scene, placement: Placement, segment: int, q_grid: int
) -> tuple[float, float]:
    """Best PA position for one segment with the others frozen.

    Scans the feasible grid plus the incumbent position and returns
    (new_pa_x, new_mse); never worse than the incumbent.
    """
    layout = scene.layout
    if not (0 <= segment < layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    gains = placement_gains(cfg, scene, placement)
    b = _rest(segment_shares(gains, placement.phases), segment)
    others = np.delete(placement.pa_x, segment)
    cands = feasible_grid(layout, segment, q_grid, others, cfg.delta_min)
    cand_arr = np.append(cands, placement.pa_x[segment])
    raw = segment_gain_matrix(cfg, scene, segment, cand_arr)
    factor = 1.0 / math.sqrt(layout.m_segments)
    if placement.phases is not None:
        factor = factor * np.exp(1j * placement.phases[segment])
    mses = mse_rows(b[None, :] + raw * factor, cfg.p_tx, cfg.noise_var)
    j = int(np.argmin(mses))
    return float(cand_arr[j]), float(mses[j])


def sa1_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
    trace_granularity: str = "sweep",
) -> RunRecord:
    """Element-wise position optimization for the phase-free combined feed.

    Sweeps the segments in index order, each time grid-searching one PA with
    the others frozen, until a full sweep improves the MSE by less than
    ``tol`` or ``max_iters`` sweeps complete.
    """
    return _ao_engine(
        cfg, scene, q_grid, init, "SA1", False, max_iters, tol, seed, trace_granularity
    )


def sa2_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
    trace_granularity: str = "sweep",
    update_phases: bool = True,
) -> RunRecord:
    """Alternating optimization with per-segment phase shifters.

    Each sweep first refreshes every phase with the closed-form update, then
    grid-searches every position; both passes keep a change only when it does
    not raise the MSE.  ``update_phases=False`` freezes the phases, which with
    a zero-phase init reproduces sa1_ao exactly.
    """
    return _ao_engine(
        cfg, scene, q_grid, init, "SA2", update_phases, max_iters, tol, seed, trace_granularity
    )


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
    layout = scene.layout
    m_seg = layout.m_segments
    scale = 1.0 / math.sqrt(m_seg)
    cands = []
    for m in range(m_seg):
        pts = grid_points(layout, m, q_grid)
        if extra_candidates is not None:
            pts = np.append(pts, np.asarray(extra_candidates[m], dtype=float))
        cands.append(pts)
    shape = tuple(len(c) for c in cands)
    n_tuples = math.prod(shape)
    if n_tuples > 2_000_000:
        raise ValueError(f"joint grid of {n_tuples} tuples is too large")
    shares = [segment_gain_matrix(cfg, scene, m, cands[m]) * scale for m in range(m_seg)]
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
    seed: int = 0,
) -> RunRecord:
    """Global grid minimum over all feasible joint PA position tuples.

    Brute force over the Q^M product grid (optionally extended per segment by
    ``extra_candidates``); intended for tiny instances as an optimizer oracle.
    Ties resolve to the first tuple in itertools.product order.
    """
    final, pa_x, _, count = _joint_scan(cfg, scene, q_grid, extra_candidates, np.ones(1, dtype=complex))
    placement = Placement("SA1", pa_x)
    return RunRecord(
        placement=placement,
        mse_trace=(final,),
        final_mse=final,
        iterations=1,
        evaluations=count,
        seed=seed,
    )


def sa2_joint_exhaustive(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    theta_grid: int = 720,
    extra_candidates: Optional[Sequence[Sequence[float]]] = None,
    seed: int = 0,
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
    placement = Placement("SA2", pa_x, phases=np.array([thetas[j], 0.0]))
    return RunRecord(
        placement=placement,
        mse_trace=(final,),
        final_mse=final,
        iterations=1,
        evaluations=count,
        seed=seed,
    )
