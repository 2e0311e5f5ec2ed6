"""Minimal deterministic SVG plotting for harness outputs.

Hand-rolled on purpose: the emitted files are simple line plots and
heatmaps meant for quick inspection next to the CSV data, with no
plotting-stack dependency and byte-identical output for identical input.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 36
_MARGIN_B = 50

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_HEATMAP_CELLS = 96  # largest heatmap side, in cells; larger arrays are decimated


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(count, 1)))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 12))
        value += step
    return ticks or [lo, hi]


def _fmt(value: float) -> str:
    text = "%.6g" % value
    return "0" if text in ("-0", "-0.0") else text


class _Frame:
    """Axis frame mapping data coordinates to pixel coordinates."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        pad_x = 0.04 * (x_hi - x_lo or 1.0)
        pad_y = 0.06 * (y_hi - y_lo or 1.0)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def line_plot(path, title: str, xlabel: str, ylabel: str, series) -> None:
    """Write a line/marker plot.

    series: iterable of (label, xs, ys, style) with style "line",
    "markers", or "dashed".  NaNs break lines.
    """
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    xs_all, ys_all = xs_all[finite], ys_all[finite]
    if xs_all.size == 0:
        xs_all = ys_all = np.array([0.0, 1.0])
    frame = _Frame(float(xs_all.min()), float(xs_all.max()),
                   float(ys_all.min()), float(ys_all.max()))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT),
        "<!-- format: gem-svg/1 -->",
        '<rect width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT),
        '<text x="%d" y="22" font-family="sans-serif" font-size="15" '
        'text-anchor="middle">%s</text>' % (_WIDTH // 2, _escape(title)),
    ]

    # axes and ticks
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    y_ticks = _nice_ticks(frame.y_lo, frame.y_hi)
    for tick in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.px(tick)
        if x0 - 1 <= px <= x1 + 1:
            parts.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>'
                         % (px, y0, px, y1))
            parts.append('<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" '
                         'text-anchor="middle">%s</text>' % (px, y0 + 16, _fmt(tick)))
    for tick in y_ticks:
        py = frame.py(tick)
        if y1 - 1 <= py <= y0 + 1:
            parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>'
                         % (x0, py, x1, py))
            parts.append('<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" '
                         'text-anchor="end">%s</text>' % (x0 - 6, py + 4, _fmt(tick)))
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>'
                 % (x0, y1, x1 - x0, y0 - y1))
    parts.append('<text x="%d" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle">%s</text>'
                 % ((x0 + x1) // 2, _HEIGHT - 12, _escape(xlabel)))
    parts.append('<text x="16" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>'
                 % ((y0 + y1) // 2, (y0 + y1) // 2, _escape(ylabel)))

    # series
    for i, (label, xs, ys, style) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if style == "markers":
            for x, y in zip(xs[ok], ys[ok]):
                parts.append('<circle cx="%.1f" cy="%.1f" r="3.2" fill="%s"/>'
                             % (frame.px(x), frame.py(y), color))
        else:
            points = " ".join("%.1f,%.1f" % (frame.px(x), frame.py(y))
                              for x, y in zip(xs[ok], ys[ok]))
            dash = ' stroke-dasharray="6,4"' if style == "dashed" else ""
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1.6"%s/>' % (points, color, dash))
        ly = _MARGIN_T + 14 + 16 * i
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>'
                     % (x1 - 140, ly - 4, x1 - 120, ly - 4, color))
        parts.append('<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>'
                     % (x1 - 114, ly, _escape(label)))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


def heatmap(path, title: str, xlabel: str, ylabel: str, x, y, z) -> None:
    """Write a heatmap of z(y, x); large arrays are decimated for size."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    step_x = max(1, int(math.ceil(x.size / _HEATMAP_CELLS)))
    step_y = max(1, int(math.ceil(y.size / _HEATMAP_CELLS)))
    x, y, z = x[::step_x], y[::step_y], z[::step_y, ::step_x]
    top = float(np.max(z)) or 1.0

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    cell_w = (x1 - x0) / x.size
    cell_h = (y0 - y1) / y.size
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT),
        "<!-- format: gem-svg/1 -->",
        '<rect width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT),
        '<text x="%d" y="22" font-family="sans-serif" font-size="15" '
        'text-anchor="middle">%s</text>' % (_WIDTH // 2, _escape(title)),
    ]
    for j in range(y.size):
        for i in range(x.size):
            level = z[j, i] / top
            # dark blue (low) to yellow (high)
            r = int(255 * min(1.0, 1.5 * level))
            g = int(255 * min(1.0, 1.2 * level**0.7)) if level > 0 else 0
            b = int(96 + 120 * (1.0 - level))
            parts.append('<rect x="%.1f" y="%.1f" width="%.2f" height="%.2f" fill="#%02x%02x%02x"/>'
                         % (x0 + i * cell_w, y0 - (j + 1) * cell_h, cell_w + 0.5,
                            cell_h + 0.5, r, g, b))
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>'
                 % (x0, y1, x1 - x0, y0 - y1))
    for frac, value in ((0.0, x[0]), (0.5, x[x.size // 2]), (1.0, x[-1])):
        parts.append('<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" '
                     'text-anchor="middle">%s</text>'
                     % (x0 + frac * (x1 - x0), y0 + 16, _fmt(value)))
    for frac, value in ((0.0, y[0]), (0.5, y[y.size // 2]), (1.0, y[-1])):
        parts.append('<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" '
                     'text-anchor="end">%s</text>'
                     % (x0 - 6, y0 - frac * (y0 - y1) + 4, _fmt(value)))
    parts.append('<text x="%d" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle">%s</text>'
                 % ((x0 + x1) // 2, _HEIGHT - 12, _escape(xlabel)))
    parts.append('<text x="16" y="%d" font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>'
                 % ((y0 + y1) // 2, (y0 + y1) // 2, _escape(ylabel)))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
