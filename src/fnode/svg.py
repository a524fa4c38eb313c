"""Minimal deterministic SVG line plots (no plotting dependency).

Output is plain text assembled with fixed float formatting, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["render_line_plot"]

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 16, 40
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    # a count fixed in advance: where step is below the values' resolution, adding it moves nothing
    count = math.floor((hi - first) / step + 1e-9) + 1
    ticks = (first + i * step for i in range(count))
    return [0.0 if abs(t) < 1e-12 else t for t in ticks]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """A range of one value widened by a margin that does not round away at its magnitude."""
    w = 0.0 if hi - lo >= 1e-12 else max(0.5, 1e-6 * abs(lo))
    return lo - w, hi + w


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_tick(x: float) -> str:
    return f"{x:.6g}"


def render_line_plot(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    band: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    title: str = "",
) -> str:
    """SVG with one polyline per (label, times, values) series.

    ``band`` is an optional (times, lower, mean, upper) tuple drawn as a shaded
    region with a dashed centerline.
    """
    xs, ys = [], []
    for _, t, v in series:
        xs.append(np.asarray(t, dtype=float))
        ys.append(np.asarray(v, dtype=float))
    if band is not None:
        bt, bl, bm, bu = (np.asarray(a, dtype=float) for a in band)
        xs.append(bt)
        ys.extend([bl, bu])
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _widened(min(a.min() for a in xs), max(a.max() for a in xs))
    y_lo, y_hi = _widened(min(a.min() for a in ys), max(a.max() for a in ys))
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("cannot plot non-finite values, or values whose range overflows")

    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * inner_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        # escaped by hand: xml.sax.saxutils would import urllib.request and ssl, 7 MB, into every command
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(
            f'<text x="{WIDTH // 2}" y="14" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12">{title}</text>'
        )

    # axes and ticks
    out.append(
        f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
        f'x2="{_fmt(WIDTH - MARGIN_R)}" y2="{_fmt(HEIGHT - MARGIN_B)}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(MARGIN_T)}" '
        f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(HEIGHT - MARGIN_B)}" stroke="black"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(HEIGHT - MARGIN_B)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(HEIGHT - MARGIN_B + 4)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(HEIGHT - MARGIN_B + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{_fmt(MARGIN_L - 4)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_L)}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_L - 6)}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt_tick(t)}</text>'
        )

    if band is not None:
        fwd = [f"{_fmt(px(t))},{_fmt(py(v))}" for t, v in zip(bt, bu)]
        back = [f"{_fmt(px(t))},{_fmt(py(v))}" for t, v in zip(bt[::-1], bl[::-1])]
        out.append(
            f'<polygon points="{" ".join(fwd + back)}" fill="#d62728" fill-opacity="0.25" '
            'stroke="none"/>'
        )
        mid = " ".join(f"{_fmt(px(t))},{_fmt(py(v))}" for t, v in zip(bt, bm))
        out.append(
            f'<polyline points="{mid}" fill="none" stroke="#d62728" stroke-width="1.5" '
            'stroke-dasharray="5,3"/>'
        )

    for i, (_, t, v) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(t, v))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
