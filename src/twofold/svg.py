"""Static SVG emission for trajectories and surface maps.

Plots are deterministic: fixed viewport, fixed formatting, no timestamps, so
identical inputs produce byte-identical files.  3D data is drawn through a
fixed orthographic projection; the default view looks along u3 = x2 - x3 with
u2 = x2 + x3 horizontal, which untangles curves organized around the two-fold.
"""

from __future__ import annotations

WIDTH = 800
HEIGHT = 600
MARGIN = 50

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
    """Orthographic screen columns (horizontal, vertical) of the 3D points
    whose coordinates are the three `columns`."""
    a, b, c = columns
    if view == "u3":        # look along x2 - x3
        return [p + q for p, q in zip(b, c)], a
    if view == "u2":        # look along x2 + x3
        return [p - q for p, q in zip(b, c)], a
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


class _Canvas:
    def __init__(self, xs, ys):
        x_lo, x_hi = _padded(min(xs), max(xs))
        y_lo, y_hi = _padded(min(ys), max(ys))
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.sx = (WIDTH - 2 * MARGIN) / (x_hi - x_lo)
        self.sy = (HEIGHT - 2 * MARGIN) / (y_hi - y_lo)

    def to_screen(self, x, y):
        return (MARGIN + (x - self.x_lo) * self.sx,
                HEIGHT - MARGIN - (y - self.y_lo) * self.sy)

    def contains(self, x, y):
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi


def _downsample(xs, ys, cap=6000):
    """The points (x, y) at every stride-th index, at most `cap` of them,
    and the last point where it differs from the last one kept."""
    n = len(xs)
    if n <= cap:
        return list(zip(xs, ys))
    stride = (n + cap - 1) // cap
    out = list(zip(xs[::stride], ys[::stride]))
    k = (n - 1) // stride * stride
    if xs[k] != xs[-1] or ys[k] != ys[-1]:
        out.append((xs[-1], ys[-1]))
    return out


def _header(parts):
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                 f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')


def _axes(parts, canvas):
    if canvas.x_lo <= 0.0 <= canvas.x_hi:
        x0, _ = canvas.to_screen(0.0, canvas.y_lo)
        parts.append(f'<line x1="{_fmt(x0)}" y1="{MARGIN}" x2="{_fmt(x0)}" '
                     f'y2="{HEIGHT - MARGIN}" stroke="#cccccc" stroke-width="1"/>')
    if canvas.y_lo <= 0.0 <= canvas.y_hi:
        _, y0 = canvas.to_screen(canvas.x_lo, 0.0)
        parts.append(f'<line x1="{MARGIN}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN}" '
                     f'y2="{_fmt(y0)}" stroke="#cccccc" stroke-width="1"/>')


def _polyline(parts, canvas, points, color, width):
    coords = " ".join(f"{_fmt(sx)},{_fmt(sy)}"
                      for sx, sy in (canvas.to_screen(x, y) for x, y in points))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                 f'stroke-width="{width}"/>')


def _write(parts, path):
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def render_trajectory(traj, path, view: str = "u3") -> None:
    """Phase portrait of one run with its events marked; the canvas spans
    every sample and event, and a run of one sample is drawn as a dot."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    x1s, x2s, x3s = traj.columns
    if traj.meta.get("space") == "layer":
        # layer runs live in (lam, x2, x3); draw lam on the vertical axis
        x1s = traj.lams
    xs, ys = _project((x1s, x2s, x3s), view)
    states = [e.state for e in traj.events]
    ev_xs, ev_ys = _project([[s[i] for s in states] for i in range(3)], view)
    canvas = _Canvas([*xs, *ev_xs], [*ys, *ev_ys])

    parts: list[str] = []
    _header(parts)
    _axes(parts, canvas)
    color = "#1f77b4"
    points = _downsample(xs, ys)
    if len(points) == 1:
        sx, sy = canvas.to_screen(*points[0])
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="{color}"/>')
    else:
        _polyline(parts, canvas, points, color, "1")
    for e, x, y in zip(traj.events, ev_xs, ev_ys):
        sx, sy = canvas.to_screen(x, y)
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="2.5" '
                     f'fill="{_EVENT_COLORS.get(e.kind, "#000000")}">'
                     f'<title>{e.kind}</title></circle>')
    parts.append(f'<text x="{MARGIN}" y="20" font-family="monospace" font-size="12" '
                 f'fill="#333333">view={view} samples={len(traj)} '
                 f'kind={traj.meta.get("kind", "?")}</text>')
    _write(parts, path)


def _min_gap(values) -> float:
    """Smallest gap between the distinct values; 1.0 for a single value."""
    u = sorted(set(values))
    return min(abs(b - a) for a, b in zip(u, u[1:])) if len(u) > 1 else 1.0


def render_region_map(grid, curve, path) -> None:
    """Surface map: colored (x2, x3) region cells plus the fold curve
    projected into the surface (its x2, x3 components).

    `grid` is (xs, ys, regions) with regions[i][j] the region of the cell at
    (xs[i], ys[j]).
    """
    xs, ys, regions = grid
    if not xs or not ys:
        raise ValueError("empty region map")
    canvas = _Canvas(xs, ys)
    step_x, step_y = _min_gap(xs), _min_gap(ys)
    parts: list[str] = []
    _header(parts)
    w = step_x * canvas.sx
    h = step_y * canvas.sy
    # each column's x and each row's y is formatted once, by grid position
    x_text = [_fmt(canvas.to_screen(x, 0.0)[0] - w / 2) for x in xs]
    y_text = [_fmt(canvas.to_screen(0.0, y)[1] - h / 2) for y in ys]
    size = f'width="{_fmt(w)}" height="{_fmt(h)}"'
    for x, row in zip(x_text, regions):
        for y, region in zip(y_text, row):
            color = _REGION_COLORS.get(region, "#ffffff")
            parts.append(f'<rect x="{x}" y="{y}" {size} fill="{color}"/>')
    _axes(parts, canvas)
    if curve is not None:
        pts = [(x2, x3) for _, x2, x3 in curve.points if canvas.contains(x2, x3)]
        if len(pts) > 1:
            _polyline(parts, canvas, pts, "#000000", "1.5")
    parts.append('<text x="50" y="20" font-family="monospace" font-size="12" '
                 'fill="#333333">switching-surface region map (x2 horizontal, '
                 'x3 vertical)</text>')
    _write(parts, path)
