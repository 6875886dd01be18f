"""Tiny deterministic SVG line charts.

The plot subcommand needs byte-identical output for identical input, which
rules out heavyweight plotting stacks with embedded ids or timestamps.
This writer produces a plain standalone SVG: axes, ticks, the title it
is given, one polyline per series, a circle per given marker (there may be
none), and a legend where there is more than one series and its columns
fit the frame.  Nothing here knows about the model; it draws labeled
number series.
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
# series i is drawn in PALETTE[i % 6], dashed by DASHES[i // 6] (cycled)
DASHES = (None, "6 3", "2 2", "8 3 2 3", "1 3")


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
    """The axis range of finite values (at least one): padded a side by
    5% of their span, or by 1 for a constant series, and by at least 1e-9
    of their largest magnitude, so that ticks stay distinct floats.
    Raises ValueError where that range passes the float range."""
    lo, hi = min(values), max(values)
    pad = max(0.05 * (hi - lo) if hi > lo else 1.0, 1e-9 * max(-lo, hi))
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"values from {lo!r} to {hi!r} leave no room for "
                         f"the axis margins within the float range")
    return (lo - pad, hi + pad)


def line_chart(series, xlabel: str, ylabel: str, title: str,
               markers) -> tuple[str, bool]:
    """Render series = [(label, xs, ys), ...], each with a point whose x
    and y are both finite, and finite markers = [(x, y, color), ...]; each
    series draws its finite points, and the axes span those and the markers.
    Returns the SVG document and whether it has a legend.  Raises
    ValueError where an axis's padded range passes the float range."""
    # each series' finite (x, y) points: its polyline and the axes use them
    drawn = [[(x, y) for x, y in zip(xs, ys)
              if math.isfinite(x) and math.isfinite(y)] for _, xs, ys in series]
    all_x = [x for pts in drawn for x, _ in pts] + [m[0] for m in markers]
    all_y = [y for pts in drawn for _, y in pts] + [m[1] for m in markers]
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
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>']

    def line(x1, y1, x2, y2, stroke: str, width) -> None:
        out.append(f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" '
                   f'x2="{_coord(x2)}" y2="{_coord(y2)}" '
                   f'{stroke} stroke-width="{width}"/>')

    def text(x: str, y: str, size: int, body: str,
             attrs: str = ' text-anchor="middle"') -> None:
        out.append(f'<text x="{x}" y="{y}" font-family="sans-serif" '
                   f'font-size="{size}"{attrs}>{body}</text>')

    grid = 'stroke="#e0e0e0"'
    # each x label centred on its tick, moved in where it would leave the
    # SVG; from the right, one that would overlap the label kept to its
    # right is left out, and its tick keeps its grid line
    x_ticks, start = [], math.inf  # start: the left end of the last kept
    for t, label in reversed(_nice_ticks(x_lo, x_hi)):
        half = CHAR_WIDTH * len(label) / 2
        x = min(max(px(t), half), WIDTH - half)
        if keep := x + half <= start:
            start = x - half
        x_ticks.append((t, x, label if keep else None))
    for t, x, label in reversed(x_ticks):
        line(px(t), MARGIN_TOP, px(t), MARGIN_TOP + plot_h, grid, 1)
        if label is not None:
            text(_coord(x), _coord(HEIGHT - MARGIN_BOTTOM + 18), 12, label)
    for t, label in y_ticks:
        line(left, py(t), left + plot_w, py(t), grid, 1)
        text(_coord(left - 8), _coord(py(t) + 4), 12, label,
             ' text-anchor="end"')

    out.append(f'<rect x="{_coord(left)}" y="{_coord(MARGIN_TOP)}" '
               f'width="{_coord(plot_w)}" height="{_coord(plot_h)}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')

    strokes = [f'stroke="{PALETTE[i % len(PALETTE)]}"'
               + (f' stroke-dasharray="{dash}"' if dash else "")
               for i in range(len(series))
               for dash in [DASHES[i // len(PALETTE) % len(DASHES)]]]
    for points, stroke in zip(drawn, strokes):
        pts = " ".join(f"{_coord(px(x))},{_coord(py(y))}" for x, y in points)
        out.append(f'<polyline points="{pts}" fill="none" {stroke} '
                   f'stroke-width="1.5"/>')

    for x, y, color in markers:
        out.append(f'<circle cx="{_coord(px(x))}" cy="{_coord(py(y))}" r="4" '
                   f'fill="{color}" stroke="#333333" stroke-width="0.8"/>')

    # a legend column holds the entries whose baselines lie within the
    # frame; the first starts max(150, step) left of its right edge, the
    # next ones step further left, and a last one left of it drops the legend
    rows = int((plot_h - 16) // 16) + 1
    step = 28 + CHAR_WIDTH * max(len(label) for label, _, _ in series)
    x0 = left + plot_w - max(150, step)
    legend = len(series) > 1 and x0 - (len(series) - 1) // rows * step >= left
    if legend:
        for i, ((label, _, _), stroke) in enumerate(zip(series, strokes)):
            x, y = x0 - i // rows * step, MARGIN_TOP + 16 + 16 * (i % rows)
            line(x, y - 4, x + 22, y - 4, stroke, 1.5)
            text(_coord(x + 28), _coord(y), 12, label, "")

    mid_x, mid_y = _coord(left + plot_w / 2), _coord(MARGIN_TOP + plot_h / 2)
    text(mid_x, _coord(HEIGHT - 10), 13, xlabel)
    text("14", mid_y, 13, ylabel,
         f' text-anchor="middle" transform="rotate(-90 14 {mid_y})"')
    text(mid_x, "15", 13, title)
    out.append('</svg>')
    return "\n".join(out) + "\n", legend
