"""Forward free-space computation: matrices and 1D diagrams from curves,
per-cell ellipse geometry in the plane, and witness verification.

In 1D both forward computations read the curves' int form and build no
Fraction: the curves' ints and eps are brought to the least common multiple
of the curves' scales and eps's denominator, and a diagram is returned in
its int form, built from those ints. Only curves in R^d and the planar
ellipse geometry use numpy, which they import when called.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .model import (
    PARTIAL,
    CellContent,
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
    rat,
)

TOL = 1e-9

EllipseStatus = str
ELLIPSE_EMPTY = "empty"
ELLIPSE_FULL = "full"
PARTIAL_ELLIPSE = "partial_ellipse"
PARTIAL_SLAB = "partial_slab"

_EMPTY_CELL = CellContent.empty()
_FULL_CELL = CellContent.full()


def _point_list(curve):
    """A 1D curve or point sequence as it is, a list of rationals as a
    :class:`PointSeq1D`, and points in R^d as a list."""
    if isinstance(curve, (Curve1D, PointSeq1D)):
        return curve
    points = list(curve.vertices if isinstance(curve, CurveD) else curve)
    if not points:
        raise ValueError("curves must be non-empty")
    if isinstance(points[0], (tuple, list)) or getattr(points[0], "ndim", 0) != 0:
        return points
    return PointSeq1D(points)


def _exact_eps(eps) -> tuple[int, int]:
    """Numerator and denominator of a positive rational eps."""
    e, den = (eps, 1) if type(eps) is int else rat(eps).as_integer_ratio()
    if e <= 0:
        raise ValueError("epsilon must be positive")
    return e, den


def compute_matrix(p, q, eps) -> FreeSpaceMatrix:
    """Free space matrix: entry (i, j) is 1 iff ||p_i - q_j|| <= eps.

    1D inputs (numbers / rationals) are compared exactly; inputs in R^d use
    floats with absolute tolerance ``TOL`` on the distance.
    """
    P = _point_list(p)
    Q = _point_list(q)
    exact = isinstance(P, (Curve1D, PointSeq1D))
    if exact != isinstance(Q, (Curve1D, PointSeq1D)):
        raise ValueError("curves must live in the same dimension")
    if exact:
        return _matrix_1d(P, Q, eps)
    eps = float(eps)
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    d = len(P[0])
    if any(len(v) != d for v in P) or any(len(v) != d for v in Q):
        raise ValueError("curves must live in the same dimension")
    import numpy as np

    A = np.asarray(P, dtype=float)
    B = np.asarray(Q, dtype=float)
    dist = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
    return FreeSpaceMatrix(dist <= eps + TOL)


def _matrix_1d(p, q, eps) -> FreeSpaceMatrix:
    """Row i is the mask of the q_j in [p_i - eps, p_i + eps], on ints: the
    points and eps brought to the least common multiple of the two scales
    and eps's denominator, as in :func:`compute_diagram_1d`. Q is sorted
    once, ``prefix[k]`` is the mask of the k smallest, and row i the
    difference of the prefixes at the window's two bisections."""
    e, den = _exact_eps(eps)
    scale = math.lcm(den, p.scale, q.scale)
    pi, qi = (
        [v * (scale // c.scale) for v in (c.scaled_vertices if isinstance(c, Curve1D) else c.scaled_points)]
        for c in (p, q)
    )
    e *= scale // den
    order = sorted(range(len(qi)), key=qi.__getitem__)
    q_sorted = [qi[j] for j in order]
    prefix = [0]
    for j in order:
        prefix.append(prefix[-1] | 1 << j)
    rows = [prefix[bisect_right(q_sorted, p + e)] ^ prefix[bisect_left(q_sorted, p - e)] for p in pi]
    return FreeSpaceMatrix._built(len(qi), rows)


def classify_column(a: int, b: int, q_segs, e: int) -> tuple[CellContent, ...]:
    """The cells of the column of P's segment from a to b, on ints.

    ``q_segs`` holds each Q segment as (up, start, length), up true when it
    runs in the positive direction. Each cell is empty, full or, for the
    slab |P(x) - Q(y)| <= e cut by the cell box, partial with the white set
    c_lo <= y - sigma*x <= c_hi. The forward computation, FPT's crease
    labels, its sweep and pseudo-poly's frame check compare these cells with
    a diagram's.
    """
    w = abs(b - a)
    p_up = b > a
    cells = []
    for q_up, c, h in q_segs:
        # c_lo = sq * (p_start - q_start) - eps; sigma = sp * sq
        if q_up:
            c_lo = a - c - e
            sigma = 1 if p_up else -1
        else:
            c_lo = c - a - e
            sigma = -1 if p_up else 1
        c_hi = c_lo + 2 * e
        # the box's range of y - sigma*x, as in model.classify_slab
        vmin, vmax = (-w, h) if sigma == 1 else (0, w + h)
        if c_lo > vmax or c_hi < vmin:
            cells.append(_EMPTY_CELL)
        elif c_lo <= vmin and c_hi >= vmax:
            cells.append(_FULL_CELL)
        else:
            cells.append(CellContent(PARTIAL, sigma, c_lo, c_hi))
    return tuple(cells)


def q_segments(q: Sequence[int]) -> list[tuple[bool, int, int]]:
    """Q's segments as :func:`classify_column` reads them."""
    return [(b > a, a, abs(b - a)) for a, b in zip(q, q[1:])]


def compute_diagram_1d(p: Curve1D, q: Curve1D, eps) -> FreeSpaceDiagram1D:
    """1D free space diagram of two curves under arc-length parametrization.

    Cell (i, j) is the slab |P_i(x) - Q_j(y)| <= eps classified against the
    cell box; orientation is the product of the two segments' orientations.

    The cells are computed on Python ints by :func:`classify_column`, with
    the vertices and eps scaled by the least common multiple of the curves'
    scales and eps's denominator (never by a solver's scale, so the check
    stays independent of the code it checks); the diagram is built from
    those ints without a Fraction, and without the constructors' structural
    check, which every cell of :func:`classify_column` passes.
    """
    e, den = _exact_eps(eps)
    scale = math.lcm(den, p.scale, q.scale)
    pi = [v * (scale // p.scale) for v in p.scaled_vertices]
    q_segs = q_segments([v * (scale // q.scale) for v in q.scaled_vertices])
    e *= scale // den
    cols = [classify_column(a, b, q_segs, e) for a, b in zip(pi, pi[1:])]
    widths = [abs(b - a) for a, b in zip(pi, pi[1:])]
    return FreeSpaceDiagram1D._built(scale, e, widths, [h for _, _, h in q_segs], cols)


@dataclass(frozen=True)
class EllipseCell:
    """Free space of one planar segment pair inside its cell.

    For a ``partial_ellipse`` the boundary is an ellipse with axes along the
    +-45 degree diagram directions; ``semi_major >= semi_minor`` and
    ``major_axis_sign`` is +1 when the major axis runs along (1, 1).
    For parallel segments (``partial_slab``) the free space degenerates to a
    slab ``slab_lo <= y - slab_sigma*x <= slab_hi``.
    """

    status: EllipseStatus
    center: Optional[tuple[float, float]] = None
    semi_major: float = 0.0
    semi_minor: float = 0.0
    major_axis_sign: int = 1
    slab_sigma: int = 0
    slab_lo: float = 0.0
    slab_hi: float = 0.0


@dataclass(frozen=True)
class RelativePlacement:
    """Relative placement recovered from a partial ellipse cell.

    ``angle`` is arcsin(eps / (sqrt(2) * a)) for the cell's slab-axis
    half-width a; the enclosed angle between the oriented segments is
    ``2 * angle``. ``dist_p``/``dist_q`` are signed arc-length distances
    from each segment's start vertex to the supporting-line intersection.
    The mirror image (negated enclosed angle) realizes the same cell, so
    ``mirror_ambiguous`` is always True.
    """

    angle: float
    dist_p: float
    dist_q: float
    mirror_ambiguous: bool = True


def _seg_frame(seg) -> tuple:
    """Start point, unit direction and length of a planar segment."""
    import numpy as np

    a = np.asarray(seg[0], dtype=float)
    b = np.asarray(seg[1], dtype=float)
    d = b - a
    length = float(np.linalg.norm(d))
    if length <= TOL:
        raise ValueError("degenerate segment")
    return a, d / length, length


def cell_ellipse_2d(seg_p, seg_q, eps: float) -> EllipseCell:
    """Classify the free space of two planar segments within their cell.

    Segments are ((x, y), (x, y)) pairs. The quadratic distance form is
    minimized/maximized over the cell box exactly (convexity puts the max at
    a corner), with absolute tolerance ``TOL``.
    """
    import numpy as np

    a0, u, lp = _seg_frame(seg_p)
    c0, v, lq = _seg_frame(seg_q)
    eps = float(eps)
    w = a0 - c0
    c = float(np.dot(u, v))

    def f(x: float, y: float) -> float:
        r = w + x * u - y * v
        return float(np.dot(r, r))

    target = eps * eps

    # Extremes of the convex quadratic over the box [0,lp] x [0,lq].
    corners = [f(x, y) for x in (0.0, lp) for y in (0.0, lq)]
    fmax = max(corners)
    fmin = _box_min(f, c, w, u, v, lp, lq)

    if fmin > target + TOL:
        return EllipseCell(ELLIPSE_EMPTY)
    if fmax <= target + TOL:
        return EllipseCell(ELLIPSE_FULL)

    if abs(abs(c) - 1.0) <= 1e-12:
        # Parallel supporting lines: the sublevel set is a slab.
        s = 1 if c > 0 else -1
        e = float(np.dot(w, u))
        perp = w - e * u
        d0sq = float(np.dot(perp, perp))
        if d0sq > target:
            return EllipseCell(ELLIPSE_EMPTY)
        g = math.sqrt(target - d0sq)
        if s == 1:
            lo, hi = e - g, e + g
        else:
            lo, hi = -e - g, -e + g
        return EllipseCell(PARTIAL_SLAB, slab_sigma=s, slab_lo=lo, slab_hi=hi)

    mat = np.array([[1.0, -c], [-c, 1.0]])
    rhs = np.array([-float(np.dot(w, u)), float(np.dot(w, v))])
    x0, y0 = np.linalg.solve(mat, rhs)
    f0 = f(x0, y0)
    val = target - f0
    if val <= 0:
        return EllipseCell(ELLIPSE_EMPTY)
    a_s = math.sqrt(val / (1.0 - c))  # half-width along (1, 1)
    a_t = math.sqrt(val / (1.0 + c))  # half-width along (-1, 1)
    if a_s >= a_t:
        return EllipseCell(PARTIAL_ELLIPSE, (float(x0), float(y0)), a_s, a_t, 1)
    return EllipseCell(PARTIAL_ELLIPSE, (float(x0), float(y0)), a_t, a_s, -1)


def _box_min(f, c, w, u, v, lp, lq) -> float:
    import numpy as np

    best = min(f(x, y) for x in (0.0, lp) for y in (0.0, lq))
    den = 1.0 - c * c
    if den > 1e-15:
        mat = np.array([[1.0, -c], [-c, 1.0]])
        rhs = np.array([-float(np.dot(w, u)), float(np.dot(w, v))])
        x0, y0 = np.linalg.solve(mat, rhs)
        if 0.0 <= x0 <= lp and 0.0 <= y0 <= lq:
            best = min(best, f(x0, y0))
    # Edge minima: f restricted to an edge is a 1D quadratic with leading
    # coefficient 1; its vertex clamps to the edge range.
    for x in (0.0, lp):
        y = c * x + float(np.dot(w, v))
        y = min(max(y, 0.0), lq)
        best = min(best, f(x, y))
    for y in (0.0, lq):
        x = c * y - float(np.dot(w, u))
        x = min(max(x, 0.0), lp)
        best = min(best, f(x, y))
    return best


def relative_placement_from_cell(cell: EllipseCell, eps: float) -> RelativePlacement:
    """Invert a partial ellipse cell to the segments' relative placement."""
    if cell.status != PARTIAL_ELLIPSE:
        raise ValueError("relative placement is defined for partial ellipse cells")
    a_eff = cell.semi_major if cell.major_axis_sign == 1 else cell.semi_minor
    arg = float(eps) / (math.sqrt(2.0) * a_eff)
    if arg > 1.0 + TOL:
        raise ValueError("inconsistent cell: eps exceeds sqrt(2) * slab-axis half-width")
    angle = math.asin(min(arg, 1.0))
    cx, cy = cell.center if cell.center is not None else (math.nan, math.nan)
    return RelativePlacement(angle=angle, dist_p=cx, dist_q=cy)


def verify_witness(witness: Witness, instance: Union[FreeSpaceMatrix, FreeSpaceDiagram1D]) -> bool:
    """True iff forward computation of the witness reproduces the instance."""
    if isinstance(instance, FreeSpaceMatrix):
        return compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == instance
    if isinstance(instance, FreeSpaceDiagram1D):
        if not (isinstance(witness.curve_p, Curve1D) and isinstance(witness.curve_q, Curve1D)):
            raise ValueError("a diagram1d instance needs 1D polyline curves")
        return compute_diagram_1d(witness.curve_p, witness.curve_q, witness.epsilon) == instance
    raise TypeError(f"cannot verify against {type(instance).__name__}")
