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


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def _text(x, y, body: str, style: str) -> str:
    return f'<text x="{x}" y="{y}" {style}>{body}</text>'


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
    axis = 'stroke="#333" stroke-width="1"'
    tick = 'text-anchor="{}" font-family="sans-serif" font-size="11" fill="#333"'
    parts.append(_line(px0, py0, px1, py0, axis))
    parts.append(_line(px0, py0, px0, py1, axis))
    n_ticks = 5
    for i in range(n_ticks):
        xv = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        xp = _fmt(sx(xv))
        parts.append(_line(xp, py0, xp, py0 + 5, 'stroke="#333"'))
        parts.append(_text(xp, py0 + 20, _tick_label(xv), tick.format("middle")))
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
        parts.append(_line(px0 - 5, _fmt(yp), px0, _fmt(yp), 'stroke="#333"'))
        parts.append(_line(px0, _fmt(yp), px1, _fmt(yp), 'stroke="#ddd" stroke-width="0.5"'))
        parts.append(_text(px0 - 9, _fmt(yp + 4), _tick_label(tv), tick.format("end")))

    # axis labels
    caption = 'text-anchor="middle" font-family="sans-serif" font-size="13" fill="#222"'
    if x_label:
        parts.append(_text(_fmt((px0 + px1) / 2), HEIGHT - 14, x_label, caption))
    if y_label:
        ym = _fmt((py0 + py1) / 2)
        parts.append(_text(18, ym, y_label, f'{caption} transform="rotate(-90 18 {ym})"'))

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
        ly = MARGIN_TOP + 10 + idx * 20
        color = PALETTE[idx % len(PALETTE)]
        parts.append(_line(lx, ly, lx + 22, ly, f'stroke="{color}" stroke-width="2.5"'))
        parts.append(_text(lx + 28, ly + 4, label, 'font-family="sans-serif" font-size="12" fill="#222"'))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
