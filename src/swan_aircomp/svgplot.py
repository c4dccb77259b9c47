"""Minimal deterministic SVG line charts.

Only fixed-format numbers go into the markup, so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 42
MARGIN_BOTTOM = 56

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
    "#17becf", "#bcbd22",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _expand(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = 0.5 if lo == 0 else abs(lo) * 0.05
    return lo - pad, hi + pad


def render_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """Render (label, xs, ys) series to an SVG document string."""
    if not series:
        raise ValueError("no series to plot")
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {label!r} must have matching non-empty x and y")
        if log_y and any(y <= 0 for y in ys):
            raise ValueError(f"series {label!r} has non-positive values; log scale impossible")

    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [ty(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = _expand(min(all_x), max(all_x))
    y_lo, y_hi = _expand(min(all_y), max(all_y))

    px0, px1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    py0, py1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (ty(y) - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    # axes and ticks
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="#333" stroke-width="1"/>'
    )
    n_ticks = 5
    for i in range(n_ticks):
        xv = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        xp = sx(xv)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{py0}" x2="{_fmt(xp)}" y2="{py0 + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{py0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333">{_tick_label(xv)}</text>'
        )
    if log_y:
        lo_dec = math.floor(y_lo)
        hi_dec = math.ceil(y_hi)
        tick_vals = [10.0**d for d in range(int(lo_dec), int(hi_dec) + 1)]
        tick_vals = [v for v in tick_vals if y_lo <= math.log10(v) <= y_hi] or [
            10.0**y_lo,
            10.0**y_hi,
        ]
    else:
        tick_vals = [y_lo + (y_hi - y_lo) * i / (n_ticks - 1) for i in range(n_ticks)]
    for tv in tick_vals:
        yp = sy(tv)
        parts.append(
            f'<line x1="{px0 - 5}" y1="{_fmt(yp)}" x2="{px0}" y2="{_fmt(yp)}" stroke="#333"/>'
        )
        parts.append(
            f'<line x1="{px0}" y1="{_fmt(yp)}" x2="{px1}" y2="{_fmt(yp)}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{px0 - 9}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333">{_tick_label(tv)}</text>'
        )

    # axis labels
    if x_label:
        parts.append(
            f'<text x="{(px0 + px1) / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#222">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="18" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#222" '
            f'transform="rotate(-90 18 {(py0 + py1) / 2:.2f})">{y_label}</text>'
        )

    # series
    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>'
            )

    # legend
    lx = px1 + 14
    for idx, (label, _, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = MARGIN_TOP + 10 + idx * 20
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12" fill="#222">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
