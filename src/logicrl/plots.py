"""Minimal native SVG emission: line charts with a min-max band, and value
heatmaps. No plotting dependency; charts are plain polylines with axes."""
from __future__ import annotations

import numpy as np


def rolling_mean(values, window: int) -> np.ndarray:
    """Trailing rolling mean; the first window-1 points average what exists."""
    v = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1 or len(v) == 0:
        return v.copy()
    out = np.empty_like(v)
    csum = np.cumsum(v)
    for i in range(len(v)):
        lo = max(0, i - window + 1)
        total = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2g}"
    return f"{v:.3g}"


# the one x axis every curve has, and the chart and heatmap cell sizes
_X_LABEL = "step"
_WIDTH, _HEIGHT = 720, 440
_CELL = 24


def line_chart_svg(x, mean, band_lo, band_hi, title: str = "", y_label: str = "") -> str:
    """One mean polyline over a shaded min-max band, against the step."""
    x = np.asarray(x, dtype=np.float64)
    series = [np.asarray(s, dtype=np.float64) for s in (mean, band_lo, band_hi)]
    mean, lo, hi = series
    width, height = _WIDTH, _HEIGHT
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo = min(float(s.min()) for s in series)
    y_hi = max(float(s.max()) for s in series)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(vx: float) -> float:
        return margin_l + (vx - x_lo) / (x_hi - x_lo) * plot_w

    def py(vy: float) -> float:
        return margin_t + (1.0 - (vy - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis_y = margin_t + plot_h
    parts.append(
        f'<line x1="{margin_l}" y1="{axis_y}" x2="{margin_l + plot_w}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{axis_y}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.1f}" y1="{axis_y}" x2="{tx:.1f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{tx:.1f}" y="{axis_y + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_fmt_tick(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{margin_l - 5}" y1="{ty:.1f}" x2="{margin_l}" y2="{ty:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{margin_l - 8}" y="{ty + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{_fmt_tick(tick)}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{_X_LABEL}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 18 {margin_t + plot_h / 2:.1f})">'
        f'{y_label}</text>'
    )
    pts = [f"{px(vx):.1f},{py(vy):.1f}" for vx, vy in zip(x, hi)]
    pts += [f"{px(vx):.1f},{py(vy):.1f}" for vx, vy in zip(x[::-1], lo[::-1])]
    parts.append(f'<polygon points="{" ".join(pts)}" fill="#7aa6d2" fill-opacity="0.35"/>')
    pts = " ".join(f"{px(vx):.1f},{py(vy):.1f}" for vx, vy in zip(x, mean))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4f8f" stroke-width="1.6"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def heatmap_svg(grid, title: str = "") -> str:
    """Color grid of values, row 0 drawn at the bottom; blue low, yellow high."""
    g = np.asarray(grid, dtype=np.float64)
    h, w = g.shape
    cell = _CELL
    lo, hi = float(g.min()), float(g.max())
    span = hi - lo if hi > lo else 1.0
    margin, header = 30, 40
    width = w * cell + 2 * margin
    height = h * cell + header + margin + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for y in range(h):
        for x in range(w):
            t = (g[y, x] - lo) / span
            r, gr, b = int(40 + 215 * t), int(40 + 190 * t), int(160 - 120 * t)
            sx = margin + x * cell
            sy = header + (h - 1 - y) * cell
            parts.append(
                f'<rect x="{sx}" y="{sy}" width="{cell}" height="{cell}" '
                f'fill="rgb({r},{gr},{b})" stroke="#ddd" stroke-width="0.5"/>'
            )
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-size="11" font-family="sans-serif">'
        f'min {lo:.4g}, max {hi:.4g}; row 0 at the bottom</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
