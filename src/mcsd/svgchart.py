"""Self-contained SVG line charts: axes, log-y scale, legend.

Deliberately dependency-free; output is deterministic for fixed input.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

# Every chart is WIDTH×HEIGHT pixels with a log-10 y axis (points with
# y ≤ 0 are dropped) and X_TICKS evenly spaced x ticks.
WIDTH = 760
HEIGHT = 480
X_TICKS = 6


class Series(NamedTuple):
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


def line_chart(
    series: Sequence[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render the series as an SVG document string. Series without a point
    are rejected; points that a log scale cannot draw leave empty axes with
    a note."""
    if not any(len(s.xs) for s in series):
        raise ValueError("no points to chart")
    # each series' drawable points, (x, log10 y)
    drawn = [
        [(x, math.log10(y)) for x, y in zip(s.xs, s.ys) if math.isfinite(x) and math.isfinite(y) and y > 0]
        for s in series
    ]
    points = [p for pts in drawn for p in pts]

    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>'
        )

    # Axes frame
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    if not points:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{MARGIN_TOP + plot_h / 2:.1f}" '
            f'text-anchor="middle">no positive values on a log scale</text>'
        )

    for y_val, label in _y_ticks(y_lo, y_hi):
        yp = py(y_val)
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{yp:.2f}" x2="{MARGIN_LEFT + plot_w}" y2="{yp:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{yp + 4:.2f}" text-anchor="end">{label}</text>'
        )
    for x_val in _linear_ticks(x_lo, x_hi):
        xp = px(x_val)
        out.append(
            f'<line x1="{xp:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{xp:.2f}" y2="{MARGIN_TOP + plot_h + 4}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle">{x_val:g}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">{_esc(x_label)}</text>'
        )
    if y_label:
        yc = MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="16" y="{yc:.1f}" text-anchor="middle" transform="rotate(-90 16 {yc:.1f})">{_esc(y_label)}</text>'
        )

    for i, (s, pts) in enumerate(zip(series, drawn)):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_TOP + 14 + 16 * i
        lx = MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{_esc(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, series: Sequence[Series], **kwargs) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(line_chart(series, **kwargs))


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / (X_TICKS - 1)
    return [lo + i * step for i in range(X_TICKS)]


def _y_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Power-of-ten ticks over the log-10 range [lo, hi]."""
    lo_exp = math.floor(lo)
    hi_exp = math.ceil(hi)
    stride = max(1, (hi_exp - lo_exp) // 6)
    exps = range(lo_exp, hi_exp + 1, stride)
    return [(float(e), f"1e{e:d}") for e in exps if lo <= e <= hi] or [(lo, f"1e{lo:.0f}")]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
