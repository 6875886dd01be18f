"""Tiny deterministic SVG line charts.

The plot subcommand needs byte-identical output for identical input, which
rules out heavyweight plotting stacks with embedded ids or timestamps.
This writer produces a plain standalone SVG: axes, ticks, the title it
is given, one polyline per series, a circle per given marker (there may be
none), and a legend where there is more than one series.  Nothing here
knows about the model; it draws labeled number series.
"""

from __future__ import annotations

import math

WIDTH = 640.0
HEIGHT = 440.0
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 22.0
MARGIN_BOTTOM = 46.0
CHAR_WIDTH = 7.0  # px per character of a 12 px label; a digit is 0.556 em
TICKS = 6  # about this many ticks per axis

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Round ticks over [lo, hi] with their labels: %g with the fewest
    significant digits, from 6 up to 17, that tell every tick apart."""
    span = hi - lo
    raw = span / (TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (mult * mag) <= TICKS:
            step = mult * mag
            break
    ticks, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-9 * span else t)
        t += step
    for digits in range(6, 18):
        labels = [format(t, f".{digits}g") for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return list(zip(ticks, labels))


def _coord(v: float) -> str:
    return format(v, ".2f")


def _data_range(values) -> tuple[float, float]:
    """The axis range of the finite values (the caller's series have at
    least one): padded a side by 5% of their span, or by 1 for a constant
    series, and by at least 1e-9 of their largest magnitude, so that ticks
    stay distinct floats.  Raises ValueError where that range passes the
    float range."""
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = min(finite), max(finite)
    pad = max(0.05 * (hi - lo) if hi > lo else 1.0, 1e-9 * max(-lo, hi))
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"values from {lo!r} to {hi!r} leave no room for "
                         f"the axis margins within the float range")
    return (lo - pad, hi + pad)


def line_chart(series, xlabel: str, ylabel: str, title: str, markers) -> str:
    """Render series = [(label, xs, ys), ...], each with a point whose x
    and y are both finite, plus markers = [(x, y, color), ...].

    Returns the SVG document as a string.  Raises ValueError where an
    axis's padded range passes the float range.
    """
    all_x = [x for _, xs, _ in series for x in xs] + [m[0] for m in markers]
    all_y = [y for _, _, ys in series for y in ys] + [m[1] for m in markers]
    x_lo, x_hi = _data_range(all_x)
    y_lo, y_hi = _data_range(all_y)
    y_ticks = _nice_ticks(y_lo, y_hi)
    # widen the left margin where the longest y label would start left of x = 0
    left = max(MARGIN_LEFT, 8 + CHAR_WIDTH * max(len(s) for _, s in y_ticks))

    plot_w = WIDTH - left - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">']
    out.append(f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>')

    for t, label in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{_coord(x)}" y1="{_coord(MARGIN_TOP)}" '
                   f'x2="{_coord(x)}" y2="{_coord(MARGIN_TOP + plot_h)}" '
                   f'stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{_coord(x)}" y="{_coord(HEIGHT - MARGIN_BOTTOM + 18)}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'text-anchor="middle">{label}</text>')
    for t, label in y_ticks:
        y = py(t)
        out.append(f'<line x1="{_coord(left)}" y1="{_coord(y)}" '
                   f'x2="{_coord(left + plot_w)}" y2="{_coord(y)}" '
                   f'stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{_coord(left - 8)}" y="{_coord(y + 4)}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'text-anchor="end">{label}</text>')

    out.append(f'<rect x="{_coord(left)}" y="{_coord(MARGIN_TOP)}" '
               f'width="{_coord(plot_w)}" height="{_coord(plot_h)}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_coord(px(x))},{_coord(py(y))}"
                       for x, y in zip(xs, ys)
                       if math.isfinite(x) and math.isfinite(y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    for x, y, color in markers:
        out.append(f'<circle cx="{_coord(px(x))}" cy="{_coord(py(y))}" r="4" '
                   f'fill="{color}" stroke="#333333" stroke-width="0.8"/>')

    if len(series) > 1:
        for i, (label, _, _) in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            y = MARGIN_TOP + 16 + 16 * i
            x = left + plot_w - 150
            out.append(f'<line x1="{_coord(x)}" y1="{_coord(y - 4)}" '
                       f'x2="{_coord(x + 22)}" y2="{_coord(y - 4)}" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            out.append(f'<text x="{_coord(x + 28)}" y="{_coord(y)}" '
                       f'font-family="sans-serif" font-size="12">{label}</text>')

    out.append(f'<text x="{_coord(left + plot_w / 2)}" '
               f'y="{_coord(HEIGHT - 10)}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="14" y="{_coord(MARGIN_TOP + plot_h / 2)}" '
               f'font-family="sans-serif" font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 14 {_coord(MARGIN_TOP + plot_h / 2)})">'
               f'{ylabel}</text>')
    out.append(f'<text x="{_coord(left + plot_w / 2)}" y="15" '
               f'font-family="sans-serif" font-size="13" '
               f'text-anchor="middle">{title}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
