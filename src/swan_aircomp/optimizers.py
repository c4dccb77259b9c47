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
feasible grid point plus the incumbent.  It ranks the feasible rows by a
screen, one real table of per-row statistics per grid (small grids are
scored with ``mse_rows`` instead), takes the first best row, and hands it
to the accept rule.  A spacing mask is built only when a fixed PA lies
within ``delta_min`` of the grid.  Both AO passes keep a change only if the
rescored whole channel's MSE did not rise (a step that changes nothing is
skipped, but still counted), so the recorded MSE is the one
evaluate_placement recomputes.
The joint oracles count every feasible (position tuple, rotation) pair.
SA1 scores every feasible tuple.  SA2 scores, per feasible tuple, the two
grid phases around the tuple's closed-form best phase, one of which is its
best grid phase.  Every grid search reads the drop's ``DropGrids`` table
passed as ``grids``, or builds one for its own config when none is passed.
Its blocks (each segment's grid, then its midpoint) hold every candidate:
SS probes and midpoint AO starts read their midpoint rows and the joint
oracles all of them, so none of them builds a gain row of its own.  This
module holds only what a run executes: the audit forms of single steps and
``ss_exhaustive`` are in ``audit``, which calls the code here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import (
    DropGrids,
    RadioConfig,
    eff_channel,
    placement_gains,
    require_feasible,
    segment_gain_matrix,  # no caller here; perfbench's probe wraps optimizers.segment_gain_matrix
    segment_shares,
)
from .geometry import (
    Placement,
    Scene,
    feasible_grid,  # no caller here; perfbench's probe wraps optimizers.feasible_grid
    spacing_mask,
)
from .metrics import mse_rows
from .rng import philox_stream

TWO_PI = 2.0 * math.pi

# A stationary-point system with norm this small (relative to its natural
# scale) carries no phase information: the AO keeps the incumbent phase, and
# the SA2 oracle scores phases 0 and 1.
_DEGENERATE_RTOL = 1e-15

# Position tuples a joint oracle gathers and scores at once, at most two
# (tuple, rotation) pairs each.
_TUPLE_BLOCK = 1 << 13

# The tuple cap: a joint oracle refuses a grid of more position tuples.
MAX_JOINT_TUPLES = 2_000_000

# Segment-0 phases the SA2 joint oracle scans, evenly spaced over [0, 2 pi).
_THETA_GRID = 720

# A position update on a grid of at most this many gains (Q K) scores every
# row with mse_rows, without building the screen's row statistics: up to
# here that costs less than the screen.
_FULL_SCAN_SIZE = 128


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one optimizer run.

    mse_trace holds the objective after the initial evaluation and then per
    sweep or stage (optimizer-dependent); final_mse is its last entry.
    evaluate_placement(cfg, scene, placement) recomputes it exactly, bit for
    bit, for every scheme and both joint oracles.
    """

    placement: Placement
    mse_trace: tuple
    final_mse: float
    iterations: int
    evaluations: int


def _one_pass(placement: Placement, final: float, evaluations: int) -> RunRecord:
    """Record of a search that scores its candidates once: its trace is its result."""
    return RunRecord(placement, (final,), final, 1, evaluations)


def _grid_search(cfg: RadioConfig, grids: DropGrids, segment: Optional[int]) -> tuple[float, float]:
    """First minimum of the MSE over one grid of ``grids``: (MSE, position)."""
    pts, gains = grids.grid(cfg, segment)
    mses = mse_rows(gains, cfg.p_tx, cfg.noise_var)
    j = int(np.argmin(mses))
    return float(mses[j]), float(pts[j])


def ss_two_stage(
    cfg: RadioConfig, scene: Scene, q_grid: int, grids: Optional[DropGrids] = None
) -> RunRecord:
    """Segment selection by midpoint probing, then a grid search on the winner.

    Stage 1 evaluates the MSE with the PA at each segment midpoint (M
    evaluations, one ``mse_rows`` call over the drop's start rows) and
    keeps the best segment; stage 2 grid-searches that segment with Q
    points (Q evaluations).  Exactly M + Q evaluations total; ties break
    toward the lowest segment index and lowest grid index.
    """
    grids = DropGrids.for_run(cfg, scene, q_grid, grids)
    probes = mse_rows(grids.starts(cfg), cfg.p_tx, cfg.noise_var)
    best_m = int(np.argmin(probes))
    final, x = _grid_search(cfg, grids, best_m)
    placement = Placement("SS", np.array([x]), segment=best_m)
    return RunRecord(placement, (float(probes[best_m]), final), final, 1, len(probes) + q_grid)


def pass_baseline(
    cfg: RadioConfig, scene: Scene, q_grid: int, grids: Optional[DropGrids] = None
) -> RunRecord:
    """Conventional single-waveguide baseline, fed at the aperture's left end.

    The one PA is grid-searched over the full span, paying in-waveguide
    attenuation over the whole feed-to-PA run.  Q evaluations.
    """
    final, x = _grid_search(cfg, DropGrids.for_run(cfg, scene, q_grid, grids), None)
    return _one_pass(Placement("PASS", np.array([x]), segment=0), final, q_grid)


def midpoint_init(scene: Scene, architecture: str) -> Placement:
    """Deterministic AO start: every PA at its segment midpoint, phases zero."""
    layout = scene.layout
    phases = np.zeros(layout.m_segments) if architecture == "SA2" else None
    return Placement(architecture, layout.midpoints, phases=phases)


def random_init(scene: Scene, architecture: str, seed: int, delta_min: float) -> Placement:
    """Random feasible AO start: PAs drawn left to right, uniform phases.

    Draw order: M position uniforms, then (SA2 only) M phase uniforms.  PA m
    is uniform on the part of its segment at least ``delta_min`` past PA
    m - 1, [max(feed_m, psi_{m-1} + delta_min), feed_m + L], whose lower end
    is nudged up until its gap to PA m - 1, computed as
    ``validate_placement`` computes it, is ``delta_min``.  Rounding is
    monotone, so every pair of PAs then keeps its gap and every draw is
    feasible.  Raises if a segment has no such part, which on a tiled layout
    needs delta_min to reach L.
    """
    layout = scene.layout
    g = philox_stream(seed)
    draws = g.random(layout.m_segments).tolist()
    phases = TWO_PI * g.random(layout.m_segments) if architecture == "SA2" else None
    psis, prev = [], -math.inf
    for m, (feed, u) in enumerate(zip(layout.feed_x.tolist(), draws)):
        lo, hi = max(feed, prev + delta_min), feed + layout.seg_length
        while lo - prev < delta_min:
            lo = math.nextafter(lo, math.inf)
        if not lo <= hi:
            raise ValueError(f"no feasible random init: segment {m} has no point {delta_min} past PA {m - 1}")
        prev = min(hi, lo + (hi - lo) * u)
        psis.append(prev)
    return Placement(architecture, psis, phases=phases)


def _wrap_phase(theta: float) -> float:
    """theta modulo 2 pi in [0, 2 pi); ``%`` alone rounds a tiny negative theta up to 2 pi."""
    theta %= TWO_PI
    return 0.0 if theta == TWO_PI else theta


def _phase_solution(
    a: np.ndarray, sum_a: complex, a_sq: np.ndarray, b: np.ndarray, noise_over_p: float,
    theta_current: float,
) -> float:
    """Maximize phi(theta) = |B + e^{j theta} A|^2 / (gamma + 2 Re(C e^{j theta})) terms.

    The objective is a ratio of two sinusoids in theta; its stationary points
    solve coef_a * sin(theta) + coef_b * cos(theta) = xi, giving at most two
    candidates phi +- arccos(xi / r_norm).  The better candidate is returned
    (ties toward the smaller angle); a degenerate system returns the incumbent.
    ``sum_a`` and ``a_sq`` are a's terms ``_a_terms(a)``, which the AO keeps
    while a is unchanged; ``audit._closed_form_phase`` recomputes every
    intermediate of its audit record from the same formulas.
    """
    cap_b = complex(np.add.reduce(b))
    cap_c = complex(np.vdot(b, a))  # sum_k a_k * conj(b_k)
    alpha = abs(sum_a) ** 2 + abs(cap_b) ** 2
    gamma = float(np.add.reduce(a_sq + np.square(np.abs(b)))) + noise_over_p
    ab = sum_a * cap_b.conjugate()
    coef_a = 2.0 * (gamma * ab.real - alpha * cap_c.real)
    coef_b = 2.0 * (gamma * ab.imag - alpha * cap_c.imag)
    r_norm = math.hypot(coef_a, coef_b)
    scale_ref = gamma * abs(ab) + alpha * abs(cap_c)
    if r_norm <= _DEGENERATE_RTOL * scale_ref or scale_ref == 0.0:
        return _wrap_phase(theta_current)
    # 4 |beta| |delta| sin(q - p) = 4 Im(C * conj(A * conj(B)))
    xi = 4.0 * (cap_c * ab.conjugate()).imag
    phi_ang = math.atan2(coef_a, coef_b)
    spread = math.acos(min(1.0, max(-1.0, xi / r_norm)))
    th1 = _wrap_phase(phi_ang + spread)
    th2 = _wrap_phase(phi_ang - spread)
    rot1 = complex(math.cos(th1), math.sin(th1))
    rot2 = complex(math.cos(th2), math.sin(th2))
    f1 = (alpha + 2.0 * (ab * rot1).real) / (gamma + 2.0 * (cap_c * rot1).real)
    f2 = (alpha + 2.0 * (ab * rot2).real) / (gamma + 2.0 * (cap_c * rot2).real)
    if f1 > f2:
        return th1
    if f2 > f1:
        return th2
    return min(th1, th2)


def _a_terms(a: np.ndarray) -> tuple[complex, np.ndarray]:
    """The phase solve's terms of the updated segment's share a alone: (sum a, |a|^2)."""
    return complex(np.add.reduce(a)), np.square(np.abs(a))


class _ScreenWork:
    """The buffers ``_screened_scan`` fills for a (5, Q) table and K users.

    coef is the (2, 5) coefficient matrix (its entries that are always zero
    stay zero), num_den the (2, Q) product and num, den its rows, cross
    the (Q,) cross term, and vec the (K,) complex vector b conj(2 f) with
    vec_floats its float view.
    """

    def __init__(self, q: int, k: int) -> None:
        self.coef = np.zeros((2, 5))
        self.num_den = np.empty((2, q))
        self.num, self.den = self.num_den
        self.cross = np.empty(q)
        self.vec = np.empty(k, dtype=complex)
        self.vec_floats = self.vec.view(np.float64)


class _AOState:
    """The AO's state at a feasible SA placement, its phases taken as given.

    SA1 is SA2 with every phase held at zero: e^{j0} = 1 + 0j leaves every
    MSE bit as it is.  ``unphased`` is every segment's gain row (M, K)
    times ``scale`` and ``shares`` is always ``segment_shares(rows,
    thetas)``: a change to segment m's PA or phase recomputes row m alone,
    with segment_shares' arithmetic, and a phase change leaves
    ``unphased[m]`` as it is.  ``others[m]`` is an intp array of the
    segments but m in order, so ``shares.take(others[m], axis=0)`` stacks
    the other rows in segment order and rest sums keep their bits.
    ``current`` is the MSE of the whole channel ``shares.sum(axis=0)``.

    Per segment it also caches what a step would otherwise recompute, each
    with the bits of its recomputation:

    * ``rots[m]``, the rotation e^{j theta_m}: recomputed only when
      theta_m changes, and restored with theta_m on an undo;
    * ``a_terms[m]``, the phase solve's ``_a_terms(unphased[m])``: built
      by the first phase step that needs it, and dropped whenever
      ``unphased[m]`` changes, an undo included;
    * ``psi_list``, the PA positions as Python floats, which the spacing
      shortcut reads.

    ``unphased_rows`` and ``share_rows`` are row views of ``unphased`` and
    ``shares``, made once, so a step indexes neither array to read or
    write a segment's row.  ``work`` holds the screen's buffers, allocated by the first position
    step on a grid with a screen table (all of a state's grids have one
    size), so small grids, scored without a table, allocate none.
    """

    def __init__(
        self, cfg: RadioConfig, scene: Scene, placement: Placement, rows: Optional[np.ndarray] = None
    ) -> None:
        """``rows``, when given, are the feasible placement's gain rows; else they are built."""
        m_seg = scene.layout.m_segments
        self.cfg = cfg
        self.noise_over_p = cfg.noise_var / cfg.p_tx
        self.scale = 1.0 / math.sqrt(m_seg)
        self.psis = placement.pa_x.copy()
        self.psi_list = self.psis.tolist()
        self.thetas = placement.phases.copy() if placement.architecture == "SA2" else np.zeros(m_seg)
        self.rots = [np.exp(1j * theta) for theta in self.thetas.tolist()]
        if rows is None:
            rows = placement_gains(cfg, scene, placement)
        self.unphased = rows * self.scale
        self.shares = segment_shares(rows, self.thetas)
        self.unphased_rows = list(self.unphased)
        self.share_rows = list(self.shares)
        self.p_tx, self.noise_var = cfg.p_tx, cfg.noise_var
        self.a_terms: list = [None] * m_seg
        self.others = [
            np.array([j for j in range(m_seg) if j != m], dtype=np.intp) for m in range(m_seg)
        ]
        self.work: Optional[_ScreenWork] = None
        self.current = self._mse()

    def _mse(self) -> float:
        return float(mse_rows(np.add.reduce(self.shares, 0), self.p_tx, self.noise_var))

    def _rest(self, m: int) -> np.ndarray:
        """The other segments' shares summed in segment order: the b of h = b + e^{j theta_m} a."""
        return np.add.reduce(self.shares.take(self.others[m], 0), 0)

    def solve_phase(self, m: int) -> float:
        """Segment m's closed-form best phase (``_phase_solution``), every other segment frozen."""
        a = self.unphased_rows[m]
        if self.a_terms[m] is None:
            self.a_terms[m] = _a_terms(a)
        return _phase_solution(a, *self.a_terms[m], self._rest(m), self.noise_over_p, float(self.thetas[m]))

    def _spacing(self, m: int, pts: np.ndarray) -> tuple[Optional[np.ndarray], int]:
        """Segment m's spacing mask on its grid ``pts`` (None: every point) and its feasible count."""
        delta = self.cfg.delta_min
        lo, hi = float(pts[0]), float(pts[-1])
        for j, x in enumerate(self.psi_list):
            # a fixed PA delta_min clear of the grid's nearer end is clear of
            # every grid point (rounding is monotone), so it needs no mask
            if j != m and not (lo - x >= delta or x - hi >= delta):
                feasible = spacing_mask(pts, self.psis[self.others[m]], delta)
                return feasible, int(np.count_nonzero(feasible))
        return None, pts.size

    def position_step(
        self, m: int, pts: np.ndarray, gains: np.ndarray, table: Optional[np.ndarray]
    ) -> int:
        """Move segment m's PA to its grid row, every other segment frozen; count the candidates.

        ``pts``, ``gains`` and ``table`` are segment m's ``_scan_tables``,
        the same on every call.  The row is ``_screened_scan``'s, handed to
        ``settle``, which keeps the move only if the MSE did not rise; when
        the spacing rule leaves no grid point nothing moves.  The count is
        every feasible grid point plus the incumbent.
        """
        feasible, n_feasible = self._spacing(m, pts)
        if table is not None and self.work is None:
            self.work = _ScreenWork(*gains.shape)
        row = _screened_scan(
            gains, table, self._rest(m), self.scale * self.rots[m], feasible,
            self.p_tx, self.noise_var, self.work,
        )
        if row is not None:
            self.settle(m, self.thetas[m], pts[row], gains[row])
        return n_feasible + 1

    def settle(
        self, m: int, theta: float, psi: Optional[float] = None, row: Optional[np.ndarray] = None
    ) -> bool:
        """The one accept rule of both AO passes; returns whether the change was kept.

        A phase step passes theta alone, a position step also the PA's new
        position psi and its gain row.  A change that moves neither m's PA
        nor its phase costs nothing and is not kept; any other is undone if
        it raised the whole channel's MSE, which is what evaluate_placement
        computes.
        """
        same_phase = theta == self.thetas[m]
        if (psi is None or psi == self.psi_list[m]) and same_phase:
            return False
        undo = (float(self.thetas[m]), self.rots[m])
        if psi is not None:
            undo += (self.psi_list[m], self.unphased_rows[m].copy())
            row = row * self.scale
        self._move(m, theta, self.rots[m] if same_phase else np.exp(1j * theta), psi, row)
        candidate = self._mse()
        if candidate <= self.current:
            self.current = candidate
            return True
        self._move(m, *undo)
        return False

    def _move(
        self, m: int, theta: float, rot: complex, psi: Optional[float] = None,
        unphased: Optional[np.ndarray] = None,
    ) -> None:
        """Set segment m's phase and rotation and, with psi, its PA and unphased row; rewrite its share."""
        if psi is not None:
            self.psis[m] = self.psi_list[m] = float(psi)
            self.unphased_rows[m][...] = unphased
            self.a_terms[m] = None
        self.thetas[m] = theta
        self.rots[m] = rot
        np.multiply(self.unphased_rows[m], rot, self.share_rows[m])


def _scan_tables(
    grids: DropGrids, cfg: RadioConfig, segment: int
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """A segment grid's points, gains and, above ``_FULL_SCAN_SIZE`` gains, its screen table."""
    pts, gains = grids.grid(cfg, segment)
    return pts, gains, (grids.stats(cfg, segment) if gains.size > _FULL_SCAN_SIZE else None)


def _screened_scan(
    gains: np.ndarray,
    table: Optional[np.ndarray],
    rest: np.ndarray,
    factor: complex,
    feasible: Optional[np.ndarray],
    p_tx: float,
    noise_var: float,
    work: Optional[_ScreenWork] = None,
) -> Optional[int]:
    """The grid row one position update moves to: the first best feasible candidate.

    The candidates are h_q = rest + factor * g_q for the rows g_q of
    ``gains`` that ``feasible`` keeps (all of them when None).  A grid
    without ``table`` (one of at most ``_FULL_SCAN_SIZE`` gains, see
    ``_scan_tables``) scores every row with ``mse_rows``.  Otherwise each
    row is screened by its alignment ratio r_q = num_q / den_q, with
    f = factor, b = rest, B = sum b and E_b = sum |b|^2:
    num_q = |f|^2 |S_q|^2 + |B|^2 + 2 Re(f S_q conj(B)) and
    den_q = |f|^2 E_q + E_b + noise_var / p_tx + 2 Re(f X_q),
    X_q = sum_k g_qk conj(b_k), from one (2, 5) @ (5, Q) product with the
    grid's ``DropGrids.stats`` table and, for 2 Re(f X_q), one real
    matrix-vector product of the gains' zero-copy float view (real and
    imaginary parts interleaved) with b conj(2 f) viewed as 2K floats;
    MSE_q = K - r_q.  These fill the buffers of ``work`` (new ones when
    None).  Returns the first row of the best score among the feasible
    rows, or None when no row is feasible.  The row need not beat the
    incumbent: the caller's accept rule rescores the channel.
    """
    if feasible is not None and not feasible.any():
        return None
    if table is None:
        h = gains * factor
        h += rest
        score = -mse_rows(h, p_tx, noise_var)
    else:
        if work is None:
            work = _ScreenWork(*gains.shape)
        f = complex(factor)
        f_sq = abs(f) ** 2
        sum_b = complex(np.add.reduce(rest))
        # 2 Re(f S conj(B)) = Re S Re w - Im S Im w, w = 2 f conj(B)
        w = 2.0 * f * sum_b.conjugate()
        coef = work.coef
        coef[0, 0] = coef[1, 3] = f_sq
        coef[0, 1] = w.real
        coef[0, 2] = -w.imag
        coef[0, 4] = abs(sum_b) ** 2
        coef[1, 4] = float(np.vdot(rest, rest).real) + noise_var / p_tx
        np.dot(coef, table, out=work.num_den)
        # Re(g conj(v)) = g.re v.re + g.im v.im with v = b conj(2 f)
        np.multiply(rest, (2.0 * f).conjugate(), out=work.vec)
        np.dot(gains.view(np.float64), work.vec_floats, out=work.cross)
        np.add(work.den, work.cross, out=work.den)
        score = np.divide(work.num, work.den, out=work.num)
    if feasible is not None:
        score[~feasible] = -np.inf
    return int(score.argmax())


def _ao_engine(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement],
    architecture: str,
    max_iters: int,
    tol: float,
    grids: Optional[DropGrids],
) -> RunRecord:
    """Alternating sweeps of closed-form phase updates and 1-D position search.

    Runs SA1 (positions only, phases held at zero) or SA2 (phases, then
    positions) from ``init``, by default every PA at its segment midpoint
    with zero phases, whose gain rows are the drop's start rows.  The trace
    holds the initial MSE, then one entry per sweep.
    """
    grids = DropGrids.for_run(cfg, scene, q_grid, grids)
    rows = None
    if init is None:
        init = midpoint_init(scene, architecture)
        require_feasible(cfg, scene.layout, init)
        rows = grids.starts(cfg)
    if init.architecture != architecture:
        raise ValueError(f"expected a {architecture} placement, got {init.architecture}")
    phased = architecture == "SA2"
    if phased:
        # phases wrapped once here, so the placement returned is the one scored
        init = Placement("SA2", init.pa_x, phases=[_wrap_phase(t) for t in init.phases.tolist()])
    state = _AOState(cfg, scene, init, rows)
    segments = range(scene.layout.m_segments)
    scans = [_scan_tables(grids, cfg, m) for m in segments]

    evaluations = 1
    trace = [state.current]
    for _ in range(max_iters):
        sweep_start = state.current
        if phased:
            for m in segments:
                evaluations += 3
                state.settle(m, state.solve_phase(m))
        for m, (pts, gains, st) in enumerate(scans):
            evaluations += state.position_step(m, pts, gains, st)
        trace.append(state.current)
        if sweep_start - state.current < tol:
            break
    placement = Placement(architecture, state.psis, phases=state.thetas if phased else None)
    return RunRecord(placement, tuple(trace), trace[-1], len(trace) - 1, evaluations)


def sa1_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
    grids: Optional[DropGrids] = None,
) -> RunRecord:
    """Element-wise position optimization for the phase-free combined feed.

    Sweeps the segments in index order, each time grid-searching one PA with
    the others frozen, until a full sweep improves the MSE by less than
    ``tol`` or ``max_iters`` sweeps complete.
    """
    return _ao_engine(cfg, scene, q_grid, init, "SA1", max_iters, tol, grids)


def sa2_ao(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    init: Optional[Placement] = None,
    max_iters: int = 100,
    tol: float = 1e-8,
    grids: Optional[DropGrids] = None,
) -> RunRecord:
    """Alternating optimization with per-segment phase shifters.

    Each sweep first refreshes every phase with the closed-form update, then
    grid-searches every position; both passes keep a change only when it does
    not raise the MSE.
    """
    return _ao_engine(cfg, scene, q_grid, init, "SA2", max_iters, tol, grids)


def evaluate_placement(cfg: RadioConfig, scene: Scene, placement: Placement) -> float:
    """Recompute the minimum MSE of a finished placement from scratch."""
    return float(mse_rows(eff_channel(cfg, scene, placement), cfg.p_tx, cfg.noise_var))


def _phase_cells(a: np.ndarray, b: np.ndarray, noise_over_p: float, n_rot: int) -> np.ndarray:
    """Per tuple t, the two grid phases around the best phase of e^{j theta} a[t] + b[t].

    On the grid theta_r = 2 pi r / n_rot, with A = sum a, B = sum b,
    C = sum a conj(b), alpha = |A|^2 + |B|^2, beta = A conj(B) and
    gamma = sum |a|^2 + sum |b|^2 + noise_over_p, the alignment ratio is
    f(theta) = (alpha + 2 Re(e^{j theta} beta)) / (gamma + 2 Re(e^{j theta} C)).
    With c = 2 (gamma beta - alpha C), phi = atan2(Re c, Im c) and
    xi = 4 Im(C conj(beta)), f' has the sign of xi - |c| cos(theta - phi),
    so of ``_phase_solution``'s stationary points phi +- arccos(xi / |c|)
    the maximum is theta* = phi - arccos(xi / |c|).  f has one maximum per
    period, so the best grid phase is one of the two cells that bracket
    theta*: floor(theta* n_rot / 2 pi) and the next, mod n_rot.  A
    degenerate tuple (``_phase_solution``'s test) gets cells 0 and 1; with
    a = 0 every phase scores the same bits, and a full scan's tie-break
    picks phase 0 too.  Returns an (N, 2) intp array, each row in
    ascending order.
    """
    sum_a = a.sum(axis=1)
    sum_b = b.sum(axis=1)
    cap_c = (a * b.conj()).sum(axis=1)
    alpha = np.square(np.abs(sum_a)) + np.square(np.abs(sum_b))
    gamma = np.square(np.abs(a)).sum(axis=1) + np.square(np.abs(b)).sum(axis=1) + noise_over_p
    beta = sum_a * sum_b.conj()
    coef = 2.0 * (gamma * beta - alpha * cap_c)
    r_norm = np.abs(coef)
    scale_ref = gamma * np.abs(beta) + alpha * np.abs(cap_c)
    degenerate = (r_norm <= _DEGENERATE_RTOL * scale_ref) | (scale_ref == 0.0)
    xi = 4.0 * (cap_c * beta.conj()).imag
    spread = np.arccos(np.clip(xi / np.where(degenerate, 1.0, r_norm), -1.0, 1.0))
    best = np.arctan2(coef.real, coef.imag) - spread
    j = np.where(degenerate, 0, np.floor(best * (n_rot / TWO_PI)).astype(np.intp) % n_rot)
    return np.sort(np.stack([j, (j + 1) % n_rot], axis=1), axis=1)


def _joint_scan(
    cfg: RadioConfig, cands: list[tuple[np.ndarray, np.ndarray]], rot: np.ndarray
) -> tuple[float, np.ndarray, int, int]:
    """First MSE minimum over feasible (position tuple, segment-0 rotation) pairs.

    ``cands`` holds each segment's (points, share rows), as
    ``DropGrids.joint`` builds them, and ``rot`` the rotations
    e^{j 2 pi r / R}, r = 0 .. R - 1, evenly spaced.  Tuples run over each
    segment's points in itertools.product order, last segment fastest;
    within a tuple the rotations run in order.  A pair's channel is built
    as a * rot + r_1 + ... + r_{M-1}, with a segment 0's share row and r_m
    segment m's, and scored by ``mse_rows``.  The product is share times
    rotation, the operand order ``segment_shares`` uses: numpy need not
    round the two orders alike, and in this one the winner's MSE is
    ``evaluate_placement``'s, bit for bit.  Feasible tuples are gathered
    up to ``_TUPLE_BLOCK`` at a time; with one rotation (SA1) every
    gathered tuple is scored, and with more (SA2) only the two rotations
    ``_phase_cells`` names, of which one is the tuple's best.  A block
    replaces the incumbent only when its first minimum is strictly lower,
    so ties go to the first pair in product order.  Returns (MSE,
    positions, rotation index, pairs counted): every feasible pair is
    counted, scored or not.
    """
    points, shares = zip(*cands)
    m_seg = len(cands)
    shape = tuple(len(pts) for pts in points)
    n_tuples = math.prod(shape)
    if n_tuples > MAX_JOINT_TUPLES:
        raise ValueError(f"joint grid of {n_tuples} tuples is too large")
    n_rot = len(rot)
    pairs = [list(p) for p in zip(*itertools.combinations(range(m_seg), 2))]
    best = (math.inf, None, 0)
    count = 0
    for start in range(0, n_tuples, _TUPLE_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _TUPLE_BLOCK, n_tuples)), shape)
        pos = np.stack([pts[i] for pts, i in zip(points, idx)], axis=1)
        if m_seg > 1:
            keep = np.abs(pos[:, pairs[0]] - pos[:, pairs[1]]).min(axis=1) >= cfg.delta_min
            pos = pos[keep]
            idx = [i[keep] for i in idx]
        count += len(pos) * n_rot
        if not len(pos):
            continue
        a, *others = [share[i] for share, i in zip(shares, idx)]
        if n_rot > 1:
            cells = _phase_cells(a, sum(others, np.zeros_like(a)), cfg.noise_var / cfg.p_tx, n_rot)
        else:
            cells = np.zeros((len(pos), 1), dtype=np.intp)
        h = a[:, None] * rot[cells][..., None]
        for row in others:
            h += row[:, None]
        mses = mse_rows(h, cfg.p_tx, cfg.noise_var)
        t, c = np.unravel_index(np.argmin(mses), mses.shape)
        if mses[t, c] < best[0]:
            best = (float(mses[t, c]), pos[t].copy(), int(cells[t, c]))
    if best[1] is None:
        raise ValueError("no feasible joint tuple on the grid")
    return (*best, count)


def sa1_joint_exhaustive(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    grids: Optional[DropGrids] = None,
) -> RunRecord:
    """Global minimum over all feasible joint PA position tuples.

    Brute force over each segment's Q grid points and its midpoint (the
    AO's default start), (Q + 1)^M tuples; intended for tiny instances as an
    optimizer oracle.  Ties resolve to the first tuple in itertools.product
    order.
    """
    cands = DropGrids.for_run(cfg, scene, q_grid, grids).joint(cfg)
    final, pa_x, _, count = _joint_scan(cfg, cands, np.ones(1, dtype=complex))
    return _one_pass(Placement("SA1", pa_x), final, count)


def sa2_joint_exhaustive(
    cfg: RadioConfig,
    scene: Scene,
    q_grid: int,
    grids: Optional[DropGrids] = None,
) -> RunRecord:
    """Joint position-and-phase oracle for two segments.

    Positions run over each segment's Q grid points and its midpoint, as
    for ``sa1_joint_exhaustive``.  A common phase on all segments cancels in
    the MSE, so the second phase is pinned to zero and the first runs over
    ``_THETA_GRID`` points.  Per position tuple only the two grid phases
    around its closed-form best phase are scored (``_phase_cells``), one of
    which is its best grid phase; every feasible pair is counted.
    Intended for tiny oracle instances (M = 2 only).
    """
    if scene.layout.m_segments != 2:
        raise ValueError("the reduced phase oracle supports exactly two segments")
    thetas = np.arange(_THETA_GRID) * (TWO_PI / _THETA_GRID)
    cands = DropGrids.for_run(cfg, scene, q_grid, grids).joint(cfg)
    final, pa_x, j, count = _joint_scan(cfg, cands, np.exp(1j * thetas))
    return _one_pass(Placement("SA2", pa_x, phases=np.array([thetas[j], 0.0])), final, count)
