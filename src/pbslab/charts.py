"""Self-contained SVG line charts (no plotting dependency).

Emits a labeled, legended line chart as an SVG string; every chart written by
the CLI is accompanied by its CSV data so external plotting stacks can
reproduce the figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "line_chart_svg"]

_COLORS = ("#1f6fb2", "#d1495b", "#2e7d32", "#8e5ba6", "#c98a00")
_MARGIN = {"left": 64.0, "right": 18.0, "top": 34.0, "bottom": 52.0}


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str
    dashed: bool = False


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + 0.5 * step, step)


def _escape(text: str) -> str:
    """XML character data; xml.sax.saxutils.escape would import urllib.request."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_chart_svg(series: list[Series], xlabel: str, ylabel: str,
                   title: str = "", width: int = 720, height: int = 520) -> str:
    """Render series as polylines with axes, tick labels and a legend."""
    if not series:
        raise ValueError("need at least one series")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = width - _MARGIN["left"] - _MARGIN["right"]
    plot_h = height - _MARGIN["top"] - _MARGIN["bottom"]

    def sx(v):
        return _MARGIN["left"] + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN["top"] + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')

    # gridlines and tick labels
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{_MARGIN["top"]:.2f}" x2="{px:.2f}" '
                   f'y2="{_MARGIN["top"] + plot_h:.2f}" stroke="#e0e0e0"/>')
        out.append(f'<text x="{px:.2f}" y="{_MARGIN["top"] + plot_h + 18:.2f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{_MARGIN["left"]:.2f}" y1="{py:.2f}" '
                   f'x2="{_MARGIN["left"] + plot_w:.2f}" y2="{py:.2f}" '
                   f'stroke="#e0e0e0"/>')
        out.append(f'<text x="{_MARGIN["left"] - 6:.2f}" y="{py + 4:.2f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')

    # frame and axis labels
    out.append(f'<rect x="{_MARGIN["left"]:.2f}" y="{_MARGIN["top"]:.2f}" '
               f'width="{plot_w:.2f}" height="{plot_h:.2f}" fill="none" '
               f'stroke="#404040"/>')
    out.append(f'<text x="{_MARGIN["left"] + plot_w / 2:.1f}" '
               f'y="{height - 14:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{_MARGIN["top"] + plot_h / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {_MARGIN["top"] + plot_h / 2:.1f})">'
               f'{_escape(ylabel)}</text>')

    # data
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format,
                           sx(np.asarray(s.x, dtype=float)).tolist(),
                           sy(np.asarray(s.y, dtype=float)).tolist()))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"{dash}/>')

    # legend
    lx, ly = _MARGIN["left"] + 12, _MARGIN["top"] + 14
    out.append(f'<rect x="{lx - 6:.1f}" y="{ly - 12:.1f}" width="170" '
               f'height="{16 * len(series) + 8}" fill="white" '
               f'stroke="#b0b0b0"/>')
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        yy = ly + 16 * i
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<line x1="{lx:.1f}" y1="{yy - 4:.1f}" x2="{lx + 24:.1f}" '
                   f'y2="{yy - 4:.1f}" stroke="{color}" stroke-width="1.8"{dash}/>')
        out.append(f'<text x="{lx + 30:.1f}" y="{yy:.1f}" '
                   f'font-family="sans-serif" font-size="11">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
