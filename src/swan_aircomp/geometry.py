"""Service-region geometry, segmented-waveguide layouts, and antenna placements.

Coordinate convention: users live in the horizontal rectangle
x in [0, d_x], y in [-d_y/2, +d_y/2] at height z = 0.  The waveguide runs
along the x axis at y = 0, z = height.  Each of the M segments has length
``seg_length`` and is fed at its left end; one pinching antenna (PA) may be
activated per segment at a point psi with feed_x[m] <= psi <= feed_x[m] + L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import philox_stream

ARCHITECTURES = ("SS", "SA1", "SA2", "PASS")

# Relative slack for validating that segment feeds are at least one segment
# length apart.  build_layout's feeds are x0 + m L, each rounded to the
# feeds' own scale, so the slack is relative to the largest feed magnitude
# as well as to the segment length: 50.0 - 49.999 is 2.3e-12 short of 1 mm.
_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class ServiceRegion:
    """Rectangular user region: x in [0, d_x], y in [-d_y/2, +d_y/2]."""

    d_x: float
    d_y: float

    def __post_init__(self) -> None:
        if not (0 < self.d_x < math.inf and 0 < self.d_y < math.inf):
            raise ValueError(
                f"region sides must be positive and finite, got d_x={self.d_x}, d_y={self.d_y}"
            )


@dataclass(frozen=True, eq=False)
class UserDrop:
    """One realization of K user positions, shape (K, 2) with columns (u_x, u_y)."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (K, 2) with K >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("user positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def k(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class WaveguideLayout:
    """A segmented waveguide: M segments of length seg_length fed at feed_x.

    ``feed_x`` must be strictly increasing with consecutive feeds at least one
    segment length apart, so segments never overlap.  ``height`` is the
    vertical clearance between the waveguide and the user plane.
    """

    m_segments: int
    seg_length: float
    feed_x: np.ndarray
    height: float

    def __post_init__(self) -> None:
        if self.m_segments < 1:
            raise ValueError(f"m_segments must be >= 1, got {self.m_segments}")
        if not 0 < self.seg_length < math.inf:
            raise ValueError(f"seg_length must be positive and finite, got {self.seg_length}")
        if not 0 < self.height < math.inf:
            raise ValueError(f"height must be positive and finite, got {self.height}")
        feeds = np.array(self.feed_x, dtype=float)
        if feeds.shape != (self.m_segments,):
            raise ValueError(
                f"feed_x must have shape ({self.m_segments},), got {feeds.shape}"
            )
        gaps = np.diff(feeds)
        min_gap = self.seg_length - _SPACING_RTOL * (self.seg_length + float(np.abs(feeds).max()))
        if self.m_segments > 1 and not np.all((gaps > 0) & (gaps >= min_gap)):
            raise ValueError("feed_x must be strictly increasing with gaps >= seg_length")
        feeds.setflags(write=False)
        object.__setattr__(self, "feed_x", feeds)

    @property
    def midpoints(self) -> np.ndarray:
        """Each segment's midpoint feed_x + seg_length / 2."""
        return self.feed_x + self.seg_length / 2.0

    @property
    def span(self) -> tuple[float, float]:
        """Leftmost feed to rightmost segment end (the aperture hull)."""
        return float(self.feed_x[0]), float(self.feed_x[-1]) + self.seg_length


@dataclass(frozen=True, eq=False)
class Placement:
    """Activated PA positions (and, for SA2, per-segment phase shifts).

    architecture:
        "SS"   - one segment active; pa_x has one entry, ``segment`` says which.
        "SA1"  - all segments active, no phase shifters; pa_x has M entries.
        "SA2"  - all segments active with phase shifts; ``phases`` has M entries.
        "PASS" - conventional single-waveguide baseline; pa_x has one entry on
                 the spanning segment (``segment`` is 0).

    Only SS and PASS carry a segment and only SA2 carries phases; any other
    combination is refused rather than ignored.
    """

    architecture: str
    pa_x: np.ndarray
    segment: Optional[int] = None
    phases: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, expected one of {ARCHITECTURES}"
            )
        pa = np.atleast_1d(np.array(self.pa_x, dtype=float))
        if pa.ndim != 1 or pa.size < 1:
            raise ValueError("pa_x must be a non-empty 1-d array")
        pa.setflags(write=False)
        object.__setattr__(self, "pa_x", pa)
        if self.architecture in ("SS", "PASS"):
            if pa.size != 1:
                raise ValueError(f"{self.architecture} placements carry exactly one PA")
            if self.segment is None:
                raise ValueError(f"{self.architecture} placements need a segment index")
            if self.architecture == "PASS" and self.segment != 0:
                raise ValueError(f"PASS placements are on segment 0, got {self.segment}")
        elif self.segment is not None:
            raise ValueError(f"{self.architecture} placements carry no segment index")
        if self.architecture == "SA2" and self.phases is None:
            raise ValueError("SA2 placements need phases")
        if self.architecture != "SA2" and self.phases is not None:
            raise ValueError(f"{self.architecture} placements carry no phases")
        if self.phases is not None:
            ph = np.atleast_1d(np.array(self.phases, dtype=float))
            if ph.shape != pa.shape:
                raise ValueError("phases must match pa_x in shape")
            if not np.isfinite(ph).all():
                raise ValueError(f"phases must be finite, got {ph.tolist()}")
            ph.setflags(write=False)
            object.__setattr__(self, "phases", ph)

    @property
    def segments(self) -> tuple:
        """The segment of each PA, in pa_x order: (segment,) for SS and PASS, 0 .. M - 1 for SA."""
        return tuple(range(self.pa_x.size)) if self.segment is None else (self.segment,)


@dataclass(frozen=True)
class Violation:
    """One violated placement rule.

    kind is "out_of_segment" (PA off its segment) or "spacing" (two PAs closer
    than the minimum spacing); ``segments`` lists the offending segment indices.
    """

    kind: str
    segments: tuple
    detail: str


@dataclass(frozen=True, eq=False)
class Scene:
    """A waveguide layout and one user drop below it."""

    layout: WaveguideLayout
    users: UserDrop

    @property
    def k(self) -> int:
        return self.users.k

    @property
    def user_x(self) -> np.ndarray:
        return self.users.positions[:, 0]

    @property
    def line_dist_sq(self) -> np.ndarray:
        """Squared distance of each user from the waveguide line: height^2 + u_y^2."""
        return self.layout.height**2 + self.users.positions[:, 1] ** 2


def baseline_layout(scene: Scene) -> WaveguideLayout:
    """Single unsegmented waveguide covering the same aperture as the scene's."""
    lo, hi = scene.layout.span
    return WaveguideLayout(1, hi - lo, np.array([lo]), scene.layout.height)


def baseline_scene(scene: Scene) -> Scene:
    return Scene(baseline_layout(scene), scene.users)


def build_layout(
    m_segments: int, seg_length: float, region: ServiceRegion, height: float
) -> WaveguideLayout:
    """Build an M-segment waveguide centered over the region.

    Segments tile contiguously; the block of total length M * seg_length is
    centered on [0, d_x], so feed_x[m] = (d_x - M * L) / 2 + m * L.  The block
    may overhang the region when M * L > d_x.
    """
    x0 = (region.d_x - m_segments * seg_length) / 2.0
    # the bits of Python's x0 + m * seg_length; WaveguideLayout refuses the
    # inf or nan feeds of an inf seg_length (0 * inf) or an overflowing one
    with np.errstate(invalid="ignore", over="ignore"):
        feeds = x0 + np.arange(m_segments) * seg_length
    return WaveguideLayout(m_segments, seg_length, feeds, height)


def sample_users(region: ServiceRegion, k: int, seed: int) -> UserDrop:
    """Draw K users i.i.d. uniform over the region from a Philox stream.

    Draw order is fixed: one (K, 2) block of unit uniforms, column 0 scaled to
    [0, d_x] and column 1 to [-d_y/2, +d_y/2], so a given seed always yields
    the same drop.  The block is filled user by user from the stream, so a
    drop's first k users do not depend on how many are drawn:
    ``sample_users(region, k, seed)`` is the first k rows of any larger draw,
    bit for bit, and sweep-k draws each drop once at its largest K.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = philox_stream(seed)
    u = g.random((k, 2))
    pos = np.empty((k, 2))
    pos[:, 0] = u[:, 0] * region.d_x
    pos[:, 1] = (u[:, 1] - 0.5) * region.d_y
    return UserDrop(pos)


def validate_placement(
    layout: WaveguideLayout, placement: Placement, delta_min: float
) -> list[Violation]:
    """Report every violated placement rule; an empty list means feasible.

    Rules: each PA must sit on its own segment, and each PA must be at least
    ``delta_min`` from the next PA in segment order.  A placement without a
    segment index (SA1, SA2) must carry one PA per segment of ``layout``.
    Segments run left to right, so PAs on their segments are in position
    order and only consecutive ones can be closer than ``delta_min``.
    """
    on_segments = list(zip(placement.segments, placement.pa_x.tolist()))
    if placement.segment is None and len(on_segments) != layout.m_segments:
        raise ValueError(f"expected {layout.m_segments} PA positions, got {len(on_segments)}")
    violations: list[Violation] = []
    for m, x in on_segments:
        if not 0 <= m < layout.m_segments:
            raise ValueError(f"segment index {m} out of range")
        lo = float(layout.feed_x[m])
        hi = lo + layout.seg_length
        if not (lo <= x <= hi):
            violations.append(
                Violation("out_of_segment", (m,), f"pa_x={x} outside [{lo}, {hi}]")
            )
    for (m, x), (mp, xp) in zip(on_segments, on_segments[1:]):
        gap = abs(x - xp)
        if gap < delta_min:
            violations.append(
                Violation("spacing", (m, mp), f"|pa_x[{m}] - pa_x[{mp}]| = {gap} < {delta_min}")
            )
    return violations


def grid_points(layout: WaveguideLayout, segment: int, q: int) -> np.ndarray:
    """Uniform Q-point search grid on one segment, both endpoints included."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if not (0 <= segment < layout.m_segments):
        raise ValueError(f"segment index {segment} out of range")
    lo = float(layout.feed_x[segment])
    return np.linspace(lo, lo + layout.seg_length, q)


def feasible_grid(
    layout: WaveguideLayout,
    segment: int,
    q: int,
    other_pa_x: Sequence[float],
    delta_min: float,
) -> np.ndarray:
    """Grid points on ``segment`` at least ``delta_min`` from every fixed PA.

    May be empty; callers keep the incumbent position in that case.  No run
    calls it (the AO masks its grids against the neighbouring PAs alone): it
    is the tests' all-pairs reference filter, and perfbench's probe wraps
    the name ``optimizers`` imports it under.
    """
    pts = grid_points(layout, segment, q)
    others = np.asarray(other_pa_x, dtype=float).reshape(-1)
    return pts[(np.abs(pts[:, None] - others) >= delta_min).all(axis=1)]
