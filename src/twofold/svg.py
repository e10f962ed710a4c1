"""Static SVG emission for trajectories and surface maps.

Plots are deterministic: fixed viewport, fixed formatting, no timestamps, so
identical inputs produce byte-identical files.  3D data is drawn through a
fixed orthographic projection; the default view looks along u3 = x2 - x3 with
u2 = x2 + x3 horizontal, which untangles curves organized around the two-fold.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from itertools import chain, islice, starmap

WIDTH = 800
HEIGHT = 600
MARGIN = 50
DOWNSAMPLE_CAP = 6000        # trajectory points a plot keeps by stride, besides the last
POLYLINE_CHUNK = 256         # polyline points formatted per write

VIEWS = ("u3", "u2", "x1", "x2", "x3")

_EVENT_COLORS = {
    "crossing": "#d62728",
    "slide-entry": "#2ca02c",
    "slide-exit": "#ff7f0e",
    "two-fold-hit": "#9467bd",
    "determinacy-break": "#9467bd",
    "step-floor": "#7f7f7f",
    "boundary-exit": "#8c564b",
}

_REGION_COLORS = {
    "crossing": "#f2f2f2",
    "attracting-sliding": "#9ecae1",
    "repelling-sliding": "#fcae91",
    "tangency": "#756bb1",
}


def _project(columns, view: str):
    """Orthographic screen columns (horizontal, vertical), computed as they
    are read, of the 3D points whose coordinates are the three `columns`."""
    a, b, c = columns
    if view == "u3":        # look along x2 - x3
        return map(operator.add, b, c), a
    if view == "u2":        # look along x2 + x3
        return map(operator.sub, b, c), a
    if view == "x1":
        return b, c
    if view == "x2":
        return c, a
    if view == "x3":
        return b, a
    raise ValueError(f"unknown view {view!r}; choose from {VIEWS}")


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _padded(lo, hi):
    """lo..hi widened on each side by 5% of its width, taken as 1 for a
    single value, or as |lo| where 1 is below the resolution of lo."""
    d = (hi - lo) or 1.0
    if lo - 0.05 * d == hi + 0.05 * d:
        d = abs(lo)
    return lo - 0.05 * d, hi + 0.05 * d


def _axis(values, pixels):
    """(k, lo, hi, s) of one canvas axis: a value v is drawn (v k - lo) s
    pixels in, lo..hi being the padded extent of the values times k.  k is
    1.0 unless the padded width or s leaves the float range; then it is the
    power of two that brings the largest magnitude into [0.5, 1)."""
    lo, hi = min(values), max(values)
    p_lo, p_hi = _padded(lo, hi)
    k = 1.0
    if not 0.0 < pixels / (p_hi - p_lo) < math.inf:
        k = 2.0 ** min(1000, -math.frexp(max(abs(lo), abs(hi)))[1])
        p_lo, p_hi = _padded(lo * k, hi * k)
    return k, p_lo, p_hi, pixels / (p_hi - p_lo)


class _Canvas:
    def __init__(self, xs, ys):
        self.kx, self.x_lo, self.x_hi, self.sx = _axis(xs, WIDTH - 2 * MARGIN)
        self.ky, self.y_lo, self.y_hi, self.sy = _axis(ys, HEIGHT - 2 * MARGIN)

    def to_screen(self, x, y):
        return (MARGIN + (x * self.kx - self.x_lo) * self.sx,
                HEIGHT - MARGIN - (y * self.ky - self.y_lo) * self.sy)

    def contains(self, x, y):
        return (self.x_lo <= x * self.kx <= self.x_hi
                and self.y_lo <= y * self.ky <= self.y_hi)


def _downsample(columns, view):
    """Iterator over the projected points (x, y) at every stride-th index, at
    most DOWNSAMPLE_CAP of them, then the last unless it is or equals the last kept."""
    n = len(columns[0])
    stride = (n + DOWNSAMPLE_CAP - 1) // DOWNSAMPLE_CAP
    kept = zip(*_project([islice(col, 0, None, stride) for col in columns], view))
    last_kept = (n - 1) // stride * stride
    (xk, yk), (xn, yn) = (next(zip(*_project([(col[i],) for col in columns], view)))
                          for i in (last_kept, n - 1))
    # by index, not value: a NaN point is unequal to itself
    if last_kept != n - 1 and (xk != xn or yk != yn):
        return chain(kept, ((xn, yn),))
    return kept


_HEADER = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')


def _axes(canvas) -> str:
    x0, y0 = canvas.to_screen(0.0, 0.0)
    text = ""
    if canvas.x_lo <= 0.0 <= canvas.x_hi:
        text += (f'<line x1="{_fmt(x0)}" y1="{MARGIN}" x2="{_fmt(x0)}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="#cccccc" stroke-width="1"/>\n')
    if canvas.y_lo <= 0.0 <= canvas.y_hi:
        text += (f'<line x1="{MARGIN}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN}" '
                 f'y2="{_fmt(y0)}" stroke="#cccccc" stroke-width="1"/>\n')
    return text


def _polyline(fh, canvas, points, color, width):
    """Write the polyline through `points`, two or more (x, y) pairs,
    formatting POLYLINE_CHUNK of them at a time."""
    coords = (f"{sx:.6g},{sy:.6g}" for sx, sy in starmap(canvas.to_screen, points))
    fh.write(f'<polyline points="{next(coords)}')
    # a point never formats to "", so an empty chunk is the end
    while text := " ".join(islice(coords, POLYLINE_CHUNK)):
        fh.write(f" {text}")
    fh.write(f'" fill="none" stroke="{color}" stroke-width="{width}"/>\n')


@contextlib.contextmanager
def artifacts():
    """The list of artifact paths the block has written, for it to extend; a
    block that raises removes each of them that is a regular file, so a call
    that fails part way leaves none of its artifacts."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            if os.path.isfile(path):
                os.remove(path)
        raise


@contextlib.contextmanager
def artifact(path):
    """`path` open for writing text; a block that raises removes the file (a
    regular one), so output streamed to it and cut short leaves no artifact."""
    fh = open(path, "w", encoding="utf-8")
    with artifacts() as written, fh:
        written.append(path)
        yield fh


def render_trajectory(traj, path, view: str = "u3") -> None:
    """Phase portrait of one run with its events marked; the canvas spans
    every sample and event, and a run of one sample is drawn as a dot."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    # a blow-up run's first column is lam, drawn on the vertical axis
    columns = traj.columns
    states = [e.state for e in traj.events]
    events = [list(v) for v in _project([[s[i] for s in states] for i in range(3)], view)]
    # each axis's [min, max] over the samples, then the events, in that order
    canvas = _Canvas(*([f(chain(_project(columns, view)[k], events[k])) for f in (min, max)]
                       for k in (0, 1)))
    color = "#1f77b4"
    with artifact(path) as fh:
        fh.write(_HEADER + _axes(canvas))
        if len(traj) == 1:
            sx, sy = canvas.to_screen(*next(_downsample(columns, view)))
            fh.write(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="{color}"/>\n')
        else:
            _polyline(fh, canvas, _downsample(columns, view), color, "1")
        for e, x, y in zip(traj.events, *events):
            sx, sy = canvas.to_screen(x, y)
            fh.write(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="2.5" '
                     f'fill="{_EVENT_COLORS.get(e.kind, "#000000")}">'
                     f'<title>{e.kind}</title></circle>\n')
        fh.write(f'<text x="{MARGIN}" y="20" font-family="monospace" font-size="12" '
                 f'fill="#333333">view={view} samples={len(traj)} '
                 f'kind={traj.meta.get("kind", "?")}</text>\n</svg>\n')


def _min_gap(values) -> float:
    """Smallest gap between the distinct values; 1.0 for a single value."""
    u = sorted(set(values))
    return min(abs(b - a) for a, b in zip(u, u[1:])) if len(u) > 1 else 1.0


def render_region_map(axis, regions, path, curve) -> None:
    """Surface map: colored (x2, x3) region cells plus the fold curve (a
    `CurveL`, or None) projected into the surface (its x2, x3 components).

    x2 and x3 both run over `axis`: regions yields one row per x2, written as
    it arrives, its j-th entry the region of the cell at (axis[i], axis[j]).
    """
    if not axis:
        raise ValueError("empty region map")
    canvas = _Canvas(axis, axis)
    step = _min_gap(axis)
    w = step * canvas.kx * canvas.sx
    h = step * canvas.ky * canvas.sy
    # each row's x is formatted once, and each column's cell text after the
    # x once per region (and once for the white of an unknown region)
    x_text = [_fmt(canvas.to_screen(x, 0.0)[0] - w / 2) for x in axis]
    y_text = [_fmt(canvas.to_screen(0.0, y)[1] - h / 2) for y in axis]
    size = f'width="{_fmt(w)}" height="{_fmt(h)}"'
    cells = [{region: f'{y}" {size} fill="{color}"/>\n'
              for region, color in _REGION_COLORS.items()} for y in y_text]
    unknown = [f'{y}" {size} fill="#ffffff"/>\n' for y in y_text]
    with artifact(path) as fh:
        fh.write(_HEADER)
        for x, row in zip(x_text, regions):
            head = f'<rect x="{x}" y="'
            fh.write(head + head.join(map(dict.get, cells, row, unknown)))
        fh.write(_axes(canvas))
        if curve is not None:
            pts = [(x2, x3) for _, x2, x3 in curve.points if canvas.contains(x2, x3)]
            if len(pts) > 1:
                _polyline(fh, canvas, pts, "#000000", "1.5")
        fh.write('<text x="50" y="20" font-family="monospace" font-size="12" '
                 'fill="#333333">switching-surface region map (x2 horizontal, '
                 'x3 vertical)</text>\n</svg>\n')
