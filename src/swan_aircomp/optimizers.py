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
candidate probed (3 for the closed-form phase update: the two stationary
points of its closed form, of which it returns the maximum, plus the
acceptance check).  An AO position update counts every feasible grid point
plus the incumbent.  It ranks the feasible rows by a screen, one real table
of per-row statistics per grid (small grids are scored with ``mse_rows``
instead), takes the first best row, and hands it to the accept rule.  The
one spacing rule is that each PA is at least ``delta_min`` from the next PA
in segment order: segments run left to right, so only PAs m - 1 and m + 1
can come that close to segment m's grid, and a spacing mask is built only
when one of them does.  Both AO passes keep a change only if the rescored
whole channel's MSE did not rise (a step that changes nothing is skipped,
but still counted), so the recorded MSE is the one evaluate_placement
recomputes.
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

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .channel import (
    RadioConfig,
    _free_space,
    eff_channel,
    placement_gains,
    require_feasible,
    segment_gain_matrix,
    segment_shares,
)
from .geometry import (
    Placement,
    Scene,
    UserDrop,
    baseline_scene,
    feasible_grid,  # no caller here; perfbench's probe wraps optimizers.feasible_grid
    grid_points,
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
# row with mse_rows, and DropGrids builds no screen table for it: up to here
# that costs less than the screen.
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
    pts, gains, _ = grids.grid(cfg, segment)
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
    candidates phi +- arccos(xi / r_norm).  phi - arccos(xi / r_norm) is the
    maximum (``_phase_cells`` derives why) and is returned; a degenerate
    system returns the incumbent.
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
    spread = math.acos(min(1.0, max(-1.0, xi / r_norm)))
    return _wrap_phase(math.atan2(coef_a, coef_b) - spread)


def _a_terms(a: np.ndarray) -> tuple[complex, np.ndarray]:
    """The phase solve's terms of the updated segment's share a alone: (sum a, |a|^2)."""
    return complex(np.add.reduce(a)), np.square(np.abs(a))


class DropGrids:
    """The PA search candidates of one user drop, under each config it runs with.

    Per (segment, config) the table holds one read-only block: the
    segment's Q grid points ``grid_points(layout, m, q)``, then its
    midpoint, where the AO starts, with their gains, and the AO position
    screen's ``_row_stats`` table of its Q grid rows when they hold more
    than ``_FULL_SCAN_SIZE`` gains (else None).  Segment None is the PASS
    baseline's grid over the whole aperture, with no screen table; its
    midpoint row goes unused.  A block is built on first request, for every
    config in ``cfgs`` at once: one kappa-free free-space pass over its
    Q + 1 points, then one ``segment_gain_matrix`` call per config that
    takes it as ``free``, so every gain the table holds is that function's,
    bit for bit.  ``grid`` is a block's first Q rows and its screen table,
    ``starts`` its last row per segment (the midpoint AO starts and the SS
    probes), and ``joint`` the joint oracles' candidates, every row of it.
    Each of the three refuses a config not in ``cfgs`` with ``for_run``'s
    error, before building anything.  The table belongs to the loop over
    drops that builds it and is dropped with the drop, or handed to the
    drop's next table; ``drop_search_bytes`` is what it holds.

    ``prior``, a table on the same layout object, with the same q and
    configs, whose users are the first users of ``scene``, hands its blocks
    over and keeps none; any other is refused.  A block with fewer user
    columns than the scene is widened on first request: the same two steps
    over only the users it lacks, their columns appended to its own, and
    its screen table built afresh.  A new block is the case of no columns
    yet.  Each gain is a product of two elementwise factors of its (point,
    user) pair, so a widened block is the fresh one, bit for bit.
    """

    def __init__(
        self, scene: Scene, q: int, cfgs: Iterable[RadioConfig], prior: Optional[DropGrids] = None
    ) -> None:
        self.scene, self.q, self.cfgs = scene, q, tuple(cfgs)
        if len({cfg.f_c for cfg in self.cfgs}) != 1:
            raise ValueError("a grid table needs configs that share one carrier frequency")
        self._blocks: dict = {}
        if prior is not None:
            first = prior.scene.users.positions
            if (prior.scene.layout is not scene.layout or prior.q != q or prior.cfgs != self.cfgs
                    or first.tobytes() != scene.users.positions[:len(first)].tobytes()):
                raise ValueError("a grid table takes over only a table of its layout, q and "
                                 "configs whose users come first in its scene")
            self._blocks, prior._blocks = prior._blocks, {}

    @classmethod
    def for_run(cls, cfg: RadioConfig, scene: Scene, q: int, grids: Optional[DropGrids]) -> DropGrids:
        """The table a run on (cfg, scene, q) reads: ``grids``, checked, or a new one for cfg."""
        if grids is None:
            return cls(scene, q, (cfg,))
        if grids.scene is not scene or grids.q != q or cfg not in grids.cfgs:
            raise ValueError(f"the grid table (q={grids.q}) is not for this run's scene, q={q} and config")
        return grids

    def _block(self, cfg: RadioConfig, segment: Optional[int]) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Points, (Q + 1, K) gains and screen table under cfg of one segment's grid, then its midpoint."""
        self.for_run(cfg, self.scene, self.q, self)
        pts, gains, _ = self._blocks.get((segment, cfg), (None, None, None))
        have = 0 if gains is None else gains.shape[1]
        if have < self.scene.k:
            scene = self.scene if segment is not None else baseline_scene(self.scene)
            m = segment or 0
            if pts is None:
                pts = np.append(grid_points(scene.layout, m, self.q), scene.layout.midpoints[m])
                pts.setflags(write=False)
            if have:
                scene = Scene(scene.layout, UserDrop(scene.users.positions[have:]))
            free = _free_space(self.cfgs[0], scene, pts)
            screened = segment is not None and self.q * self.scene.k > _FULL_SCAN_SIZE
            for c in self.cfgs:
                gains = segment_gain_matrix(c, scene, m, pts, free)
                if have:
                    gains = np.concatenate((self._blocks[segment, c][1], gains), axis=1)
                gains.setflags(write=False)
                table = self._row_stats(gains[:self.q]) if screened else None
                self._blocks[segment, c] = pts, gains, table
        return self._blocks[segment, cfg]

    def grid(self, cfg: RadioConfig, segment: Optional[int]) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Points and (Q, K) gains of one grid under cfg, views of its block, and its screen table."""
        pts, gains, table = self._block(cfg, segment)
        return pts[:self.q], gains[:self.q], table

    def starts(self, cfg: RadioConfig) -> np.ndarray:
        """(M, K) gain rows under cfg with each segment's PA at its midpoint."""
        rows = np.stack([self._block(cfg, m)[1][-1] for m in range(self.scene.layout.m_segments)])
        rows.setflags(write=False)
        return rows

    def joint(self, cfg: RadioConfig) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each segment's joint-oracle candidates under cfg: its block's points and share rows.

        A segment's candidates are its Q grid points, then its midpoint, the
        AO's default start; their share rows are the block's gains times
        1 / sqrt(M).  Both joint oracles read them.
        """
        m_segments = self.scene.layout.m_segments
        scale = 1.0 / math.sqrt(m_segments)
        return [(pts, gains * scale) for pts, gains, _ in (self._block(cfg, m) for m in range(m_segments))]

    @staticmethod
    def _row_stats(gains: np.ndarray) -> np.ndarray:
        """The screen's read-only (5, Q) table: column q is (|S_q|^2, Re S_q, Im S_q, E_q, 1).

        S_q = sum_k g_qk, |S_q|^2 rounded from the stored S_q, and
        E_q = sum_k |g_qk|^2 for gain row g_q, so one (2, 5) @ (5, Q) product
        gives every row's screen numerator and its denominator but the cross
        term.
        """
        ones = np.ones(gains.shape[1])
        sums = gains @ ones
        table = np.stack([
            np.square(sums.real) + np.square(sums.imag), sums.real, sums.imag,
            np.square(np.abs(gains)) @ ones, np.ones(len(gains)),
        ])
        table.setflags(write=False)
        return table


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
    """The one object an AO run reads: its state at a feasible SA placement, and its scans.

    SA1 is SA2 with every phase held at zero: e^{j0} = 1 + 0j leaves every
    MSE bit as it is; SA2's phases are wrapped (``_wrap_phase``), so a run
    returns the placement it scored.  ``unphased`` is every segment's gain
    row (M, K) times ``scale`` and ``shares`` is always
    ``segment_shares(rows, thetas)``: a change to segment m's PA or phase
    recomputes row m alone, with segment_shares' arithmetic, and a phase
    change leaves ``unphased[m]`` as it is.  ``others[m]`` is row m of one
    (M, M - 1) intp table, the segments but m in order, so
    ``shares.take(others[m], axis=0)`` stacks the other rows in segment
    order and rest sums keep their bits.  ``current`` is the MSE of the
    whole channel ``shares.sum(axis=0)``.

    Per segment it also caches what a step would otherwise recompute, each
    with the bits of its recomputation:

    * ``rots[m]``, the rotation e^{j theta_m}: recomputed only when
      theta_m changes, and restored with theta_m on an undo;
    * ``a_terms[m]``, the phase solve's ``_a_terms(unphased[m])``: built
      by the first phase step that needs it, and dropped whenever
      ``unphased[m]`` changes, an undo included;
    * ``psi_list``, the PA positions as Python floats, which the spacing
      check reads.

    ``unphased_rows`` and ``share_rows`` are row views of ``unphased`` and
    ``shares``, made once, so a step indexes neither array to read or
    write a segment's row.  ``scans[m]`` is ``grids.grid(cfg, m)`` (none
    without ``grids``), and ``work`` the screen's buffers, allocated once
    when the scans carry screen tables.
    """

    def __init__(
        self, cfg: RadioConfig, scene: Scene, placement: Placement,
        grids: Optional[DropGrids] = None, rows: Optional[np.ndarray] = None,
    ) -> None:
        """``rows``, when given, are the feasible placement's gain rows; else they are built."""
        m_seg = scene.layout.m_segments
        self.cfg = cfg
        self.noise_over_p = cfg.noise_var / cfg.p_tx
        self.scale = 1.0 / math.sqrt(m_seg)
        self.psis = placement.pa_x.copy()
        self.psi_list = self.psis.tolist()
        phases = placement.phases.tolist() if placement.architecture == "SA2" else [0.0] * m_seg
        self.thetas = np.array([_wrap_phase(t) for t in phases])
        self.rots = [np.exp(1j * theta) for theta in self.thetas.tolist()]
        if rows is None:
            rows = placement_gains(cfg, scene, placement)
        self.unphased = rows * self.scale
        self.shares = segment_shares(rows, self.thetas)
        self.unphased_rows = list(self.unphased)
        self.share_rows = list(self.shares)
        self.p_tx, self.noise_var = cfg.p_tx, cfg.noise_var
        self.a_terms: list = [None] * m_seg
        idx = np.arange(m_seg - 1, dtype=np.intp)
        self.others = list(idx + (idx >= np.arange(m_seg)[:, None]))
        self.scans = [] if grids is None else [grids.grid(cfg, m) for m in range(m_seg)]
        self.work = _ScreenWork(grids.q, scene.k) if self.scans and self.scans[0][2] is not None else None
        self.current = self._mse()

    def _mse(self) -> float:
        return float(mse_rows(np.add.reduce(self.shares, 0), self.p_tx, self.noise_var))

    def _rest(self, m: int) -> np.ndarray:
        """The other segments' shares summed in segment order: the b of h = b + e^{j theta_m} a."""
        return np.add.reduce(self.shares.take(self.others[m], 0), 0)

    def phase_step(self, m: int) -> int:
        """Hand segment m's closed-form best phase (``_phase_solution``) to ``settle``: 3 evaluations."""
        a = self.unphased_rows[m]
        if self.a_terms[m] is None:
            self.a_terms[m] = _a_terms(a)
        theta = _phase_solution(a, *self.a_terms[m], self._rest(m), self.noise_over_p, float(self.thetas[m]))
        self.settle(m, theta)
        return 3

    def _spacing(self, m: int, pts: np.ndarray) -> tuple[Optional[np.ndarray], int]:
        """Segment m's spacing mask on its grid ``pts`` (None: every point) and its feasible count.

        Only PA m - 1 on the left and PA m + 1 on the right are read: the
        other PAs lie beyond them, already ``delta_min`` apart.
        """
        delta = self.cfg.delta_min
        left = self.psi_list[m - 1] if m > 0 else -math.inf
        right = self.psi_list[m + 1] if m + 1 < len(self.psi_list) else math.inf
        # a neighbour delta_min clear of the grid's nearer end is clear of
        # every grid point (rounding is monotone), so it needs no mask
        if float(pts[0]) - left >= delta and right - float(pts[-1]) >= delta:
            return None, pts.size
        feasible = (pts - left >= delta) & (right - pts >= delta)
        return feasible, int(np.count_nonzero(feasible))

    def position_step(self, m: int) -> int:
        """Move segment m's PA to its grid row, every other segment frozen; count the candidates.

        The row is ``_screened_scan``'s on ``scans[m]``, handed to
        ``settle``, which keeps the move only if the MSE did not rise; when
        the spacing rule leaves no grid point nothing moves.  The count is
        every feasible grid point plus the incumbent.
        """
        pts, gains, table = self.scans[m]
        feasible, n_feasible = self._spacing(m, pts)
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


def drop_search_bytes(m: int, q: int, k: int, n_cfgs: int, ao: bool) -> int:
    """Bytes of a ``DropGrids`` with every block built for n_cfgs configs, with ao plus an ``_AOState``.

    Floats for M, Q and K give the same value while it is below 2**53.
    """
    blocks = (m + 1) * (q + 1)  # M segment blocks and PASS, of Q grid points and a midpoint each
    per_cfg = 16 * blocks * k + (8 * 5 * m * q if q * k > _FULL_SCAN_SIZE else 0)  # gains, screen tables
    index = np.dtype(np.intp).itemsize * m * (m - 1) if ao else 0  # the state's (M, M - 1) table
    return 8 * blocks + n_cfgs * per_cfg + index  # every config shares the blocks' points


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
    ``DropGrids``) scores every row with ``mse_rows``.  Otherwise each
    row is screened by its alignment ratio r_q = num_q / den_q, with
    f = factor, b = rest, B = sum b and E_b = sum |b|^2:
    num_q = |f|^2 |S_q|^2 + |B|^2 + 2 Re(f S_q conj(B)) and
    den_q = |f|^2 E_q + E_b + noise_var / p_tx + 2 Re(f X_q),
    X_q = sum_k g_qk conj(b_k), from one (2, 5) @ (5, Q) product with the
    grid's screen table (``DropGrids._row_stats``) and, for 2 Re(f X_q), one real
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
    state = _AOState(cfg, scene, init, grids, rows)
    phased = architecture == "SA2"
    segments = range(scene.layout.m_segments)

    evaluations = 1
    trace = [state.current]
    for _ in range(max_iters):
        sweep_start = state.current
        if phased:
            for m in segments:
                evaluations += state.phase_step(m)
        for m in segments:
            evaluations += state.position_step(m)
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
    within a tuple the rotations run in order.  A tuple is feasible when
    each position is at least ``delta_min`` past the one before it.  A
    pair's channel is built as a * rot + r_1 + ... + r_{M-1}, with a
    segment 0's share row and r_m segment m's, and scored by ``mse_rows``.
    The product is share times rotation, the operand order
    ``segment_shares`` uses: numpy need not round the two orders alike,
    and in this one the winner's MSE is ``evaluate_placement``'s, bit for
    bit.  Feasible tuples are gathered up to ``_TUPLE_BLOCK`` at a time; with one rotation (SA1) every
    gathered tuple is scored, and with more (SA2) only the two rotations
    ``_phase_cells`` names, of which one is the tuple's best.  A block
    replaces the incumbent only when its first minimum is strictly lower,
    so ties go to the first pair in product order.  Returns (MSE,
    positions, rotation index, pairs counted): every feasible pair is
    counted, scored or not.
    """
    points, shares = zip(*cands)
    shape = tuple(len(pts) for pts in points)
    n_tuples = math.prod(shape)
    if n_tuples > MAX_JOINT_TUPLES:
        raise ValueError(f"joint grid of {n_tuples} tuples is too large")
    n_rot = len(rot)
    best = (math.inf, None, 0)
    count = 0
    for start in range(0, n_tuples, _TUPLE_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _TUPLE_BLOCK, n_tuples)), shape)
        pos = np.stack([pts[i] for pts, i in zip(points, idx)], axis=1)
        keep = (np.diff(pos, axis=1) >= cfg.delta_min).all(axis=1)
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
