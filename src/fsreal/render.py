"""ASCII and SVG views of matrices, diagrams, and 1D witness placements.

Rendering is read-only: it never re-decides anything, it just draws what the
instance says. Diagram white space is drawn as slab polygons clipped to their
cells; matrices become checkerboards. SVG lengths are ``SCALE`` units per
instance unit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .diagram import FreeSpaceDiagram1D, cell_edge_interval
from .model import Curve1D, FreeSpaceMatrix, PointSeq1D, Witness, rat_str

Renderable = Union[FreeSpaceMatrix, FreeSpaceDiagram1D, Witness]
SCALE = 24.0
_ASCII_CELLS = str.maketrans("efpn", ".#/\\")


def render_ascii(instance: Renderable) -> str:
    if isinstance(instance, FreeSpaceMatrix):
        lines = ["".join("#" if v else "." for v in row) for row in instance.tolist()]
        return "\n".join(lines) + "\n"
    if isinstance(instance, FreeSpaceDiagram1D):
        rows = [row.translate(_ASCII_CELLS) for row in map("".join, zip(*instance.columns))][::-1]  # top row first
        header = " ".join(rat_str(w) for w in instance.col_widths)
        return "\n".join(rows) + f"\nwidths: {header}\nheights: " + " ".join(
            rat_str(h) for h in instance.row_heights
        ) + "\n"
    if isinstance(instance, Witness):
        return _witness_ascii(instance)
    raise TypeError(f"cannot render {type(instance).__name__}")


def _line_points(curve):
    """The values of a curve on the line, or None for a curve in R^d."""
    if isinstance(curve, Curve1D):
        return list(curve.vertices)
    if isinstance(curve, PointSeq1D):
        return list(curve.points)
    return None


def _witness_ascii(w: Witness) -> str:
    p, q = _line_points(w.curve_p), _line_points(w.curve_q)
    if p is None or q is None:
        return f"witness in R^{w.curve_p.dimension}, eps={w.epsilon}\n"
    out = [f"eps = {w.epsilon}"]
    out.append("P: " + " ".join(rat_str(v) for v in p))
    out.append("Q: " + " ".join(rat_str(v) for v in q))
    lo = min(p + q)
    hi = max(p + q)
    span = hi - lo if hi > lo else Fraction(1)
    width = 60
    line = ["-"] * (width + 1)
    for v in q:
        line[int((v - lo) / span * width)] = "Q"
    for v in p:
        idx = int((v - lo) / span * width)
        line[idx] = "*" if line[idx] == "Q" else "P"
    out.append("".join(line))
    return "\n".join(out) + "\n"


def _svg(elements: list[str], width: float, height: float) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.2f} {height:.2f}" '
        f'width="{width:.0f}" height="{height:.0f}">'
    )
    return "\n".join([head] + elements + ["</svg>"]) + "\n"


def render_svg(instance: Renderable) -> str:
    if isinstance(instance, FreeSpaceMatrix):
        return _matrix_svg(instance)
    if isinstance(instance, FreeSpaceDiagram1D):
        return _diagram_svg(instance)
    if isinstance(instance, Witness):
        return _witness_svg(instance)
    raise TypeError(f"cannot render {type(instance).__name__}")


def _matrix_svg(m: FreeSpaceMatrix) -> str:
    elems = []
    n, cols = m.n_rows, m.m_cols
    for i, row in enumerate(m.tolist()):
        for j, v in enumerate(row):
            fill = "#ffffff" if v else "#555555"
            y = (n - 1 - i) * SCALE
            elems.append(
                f'<rect x="{j * SCALE:.2f}" y="{y:.2f}" width="{SCALE:.2f}" height="{SCALE:.2f}" '
                f'fill="{fill}" stroke="#222222" stroke-width="0.5"/>'
            )
    return _svg(elems, cols * SCALE, n * SCALE)


def _diagram_svg(d: FreeSpaceDiagram1D) -> str:
    widths = [float(w) * SCALE for w in d.col_widths]
    heights = [float(h) * SCALE for h in d.row_heights]
    total_w = sum(widths)
    total_h = sum(heights)
    xs = [0.0]
    for w in widths:
        xs.append(xs[-1] + w)
    ys = [0.0]
    for h in heights:
        ys.append(ys[-1] + h)
    elems = [f'<rect x="0" y="0" width="{total_w:.2f}" height="{total_h:.2f}" fill="#4a4a4a"/>']
    for i in range(d.n_cols):
        for j in range(d.m_rows):
            poly = _cell_polygon(d, i, j)
            if poly is None:
                continue
            pts = " ".join(
                f"{xs[i] + float(x) * SCALE:.2f},{total_h - (ys[j] + float(y) * SCALE):.2f}" for x, y in poly
            )
            elems.append(f'<polygon points="{pts}" fill="#ffffff"/>')
    for x in xs:
        elems.append(f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{total_h:.2f}" stroke="#111111" stroke-width="1"/>')
    for y in ys:
        yy = total_h - y
        elems.append(f'<line x1="0" y1="{yy:.2f}" x2="{total_w:.2f}" y2="{yy:.2f}" stroke="#111111" stroke-width="1"/>')
    for i, w in enumerate(d.col_widths):
        elems.append(
            f'<text x="{(xs[i] + xs[i + 1]) / 2:.2f}" y="{total_h + 14:.2f}" font-size="10" '
            f'text-anchor="middle">{rat_str(w)}</text>'
        )
    return _svg(elems, total_w + 1, total_h + 18)


def _cell_polygon(d: FreeSpaceDiagram1D, i: int, j: int):
    """White region of one cell as a polygon in cell-local coordinates: the
    white interval of each edge, walked counterclockwise from (0, 0)."""
    c = d.cells[i][j]
    w, h = d.col_widths[i], d.row_heights[j]
    points = []
    for edge in "BRTL":
        interval = cell_edge_interval(c, w, h, edge)
        if interval is None:
            continue
        lo, hi = interval
        ends = {"B": [(lo, 0), (hi, 0)], "R": [(w, lo), (w, hi)], "T": [(hi, h), (lo, h)], "L": [(0, hi), (0, lo)]}
        for point in ends[edge]:
            if not points or points[-1] != point:
                points.append(point)
    if len(points) > 1 and points[-1] == points[0]:
        points.pop()
    return points or None


def _witness_svg(w: Witness) -> str:
    p, q = _line_points(w.curve_p), _line_points(w.curve_q)
    if p is None:  # planar witness: draw the points directly
        elems = []
        all_pts = list(w.curve_p.vertices) + list(w.curve_q.vertices)
        xs = [v[0] for v in all_pts]
        ys = [v[1] for v in all_pts]
        dx, dy = min(xs), min(ys)
        for v in w.curve_p.vertices:
            x, y = (v[0] - dx) * SCALE, (v[1] - dy) * SCALE
            elems.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="4" height="4" fill="#c02020"/>')
        for v in w.curve_q.vertices:
            elems.append(f'<circle cx="{(v[0]-dx)*SCALE:.2f}" cy="{(v[1]-dy)*SCALE:.2f}" r="3" fill="#2020c0"/>')
        return _svg(elems, (max(xs) - dx) * SCALE + 8, (max(ys) - dy) * SCALE + 8)
    lo = min(p + q)
    hi = max(p + q)
    span = float(hi - lo) or 1.0
    width = 600.0
    eps = float(w.epsilon)

    def x_of(v) -> float:
        return (float(v - lo) / span) * (width - 40) + 20

    elems = [f'<line x1="0" y1="40" x2="{width:.0f}" y2="40" stroke="#999999"/>']
    for v in q:
        r = (eps / span) * (width - 40)
        elems.append(
            f'<rect x="{x_of(v) - r:.2f}" y="36" width="{2 * r:.2f}" height="8" fill="#b0c4ff" opacity="0.5"/>'
        )
    for k, v in enumerate(q):
        elems.append(f'<circle cx="{x_of(v):.2f}" cy="40" r="3" fill="#2020c0"/>')
        elems.append(f'<text x="{x_of(v):.2f}" y="58" font-size="9" text-anchor="middle">q{k}</text>')
    for k, v in enumerate(p):
        elems.append(f'<rect x="{x_of(v) - 2:.2f}" y="24" width="4" height="8" fill="#c02020"/>')
        elems.append(f'<text x="{x_of(v):.2f}" y="20" font-size="9" text-anchor="middle">p{k}</text>')
    return _svg(elems, width, 70)
