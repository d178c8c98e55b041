"""Forward free-space computation: matrices and 1D diagrams from curves,
per-cell ellipse geometry in the plane, and witness verification.

Both forward computations are exact and run on Python ints. In 1D they read
the curves' int form and build no Fraction: the curves' ints and eps are
brought to the least common multiple of the curves' scales and eps's
denominator, and a diagram is returned in its int form, built from those
ints. In R^d every float coordinate and eps are brought to their largest
power-of-two denominator. Only the planar ellipse geometry is float
geometry, with absolute tolerance ``TOL``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .model import Curve1D, CurveD, FreeSpaceMatrix, PointSeq1D, Witness, checked_epsilon, diagram_module

if TYPE_CHECKING:  # imported where a diagram is built or checked
    from .diagram import FreeSpaceDiagram1D

TOL = 1e-9

EllipseStatus = str
ELLIPSE_EMPTY = "empty"
ELLIPSE_FULL = "full"
PARTIAL_ELLIPSE = "partial_ellipse"
PARTIAL_SLAB = "partial_slab"


def _point_list(curve):
    """A curve or point sequence as it is, a list of rationals as a
    :class:`PointSeq1D`, and a list of points in R^d as a :class:`CurveD`,
    which checks that they are finite and share one dimension."""
    if isinstance(curve, (Curve1D, PointSeq1D, CurveD)):
        return curve
    points = list(curve)
    if not points:
        raise ValueError("curves must be non-empty")
    if isinstance(points[0], (tuple, list)) or getattr(points[0], "ndim", 0) != 0:
        return CurveD(points)
    return PointSeq1D(points)


def compute_matrix(p, q, eps) -> FreeSpaceMatrix:
    """Free space matrix: entry (i, j) is 1 iff ||p_i - q_j|| <= eps, decided
    exactly on ints, on the line and in R^d.

    ``eps`` passes :func:`checked_epsilon`: a positive rational for curves on
    the line, a positive finite float for curves in R^d.
    """
    P = _point_list(p)
    Q = _point_list(q)
    in_rd = isinstance(P, CurveD)
    if in_rd != isinstance(Q, CurveD) or in_rd and P.dimension != Q.dimension:
        raise ValueError("curves must live in the same dimension")
    eps = checked_epsilon(eps, exact=not in_rd)
    return _matrix_d(P, Q, eps) if in_rd else _matrix_1d(P, Q, eps)


def _matrix_d(p: CurveD, q: CurveD, eps: float) -> FreeSpaceMatrix:
    """Row i is the mask of the q_j with ||p_i - q_j||^2 <= eps^2, on ints: a
    finite float is an int over a power of two, so every coordinate and eps
    are brought to the largest of those denominators."""
    e, den = eps.as_integer_ratio()
    ratios = [[x.as_integer_ratio() for x in v] for v in (*p.vertices, *q.vertices)]
    scale = max(den, *(d for v in ratios for _, d in v))
    points = [[n * (scale // d) for n, d in v] for v in ratios]
    pi, qi = points[: len(p.vertices)], points[len(p.vertices) :]
    e2 = (e * (scale // den)) ** 2
    rows = [sum(1 << j for j, b in enumerate(qi) if sum((x - y) ** 2 for x, y in zip(a, b)) <= e2) for a in pi]
    return FreeSpaceMatrix._built(len(qi), rows)


def _matrix_1d(p, q, eps: Fraction) -> FreeSpaceMatrix:
    """Row i is the mask of the q_j in [p_i - eps, p_i + eps], on ints: the
    points and eps brought to the least common multiple of the two scales
    and eps's denominator, as in :func:`compute_diagram_1d`. Q is sorted
    once, ``prefix[k]`` is the mask of the k smallest, and row i the
    difference of the prefixes at the window's two bisections."""
    e, den = eps.as_integer_ratio()
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


def classify_column(a: int, b: int, q_segs, e: int) -> tuple[str, tuple[int, ...]]:
    """The column of P's segment from a to b, on ints, as a diagram stores
    it: its letters and its partial cells' intercepts.

    ``q_segs`` holds each Q segment as (up, start, length), up true when it
    runs in the positive direction. Each cell is empty, full or, for the
    slab |P(x) - Q(y)| <= e cut by the cell box, partial with the white set
    c_lo <= y - sigma*x <= c_hi. The forward computation, FPT's crease
    labels and its sweep compare these columns with a diagram's.
    """
    w, p_up, e2 = abs(b - a), b > a, 2 * e
    letters, ints = [], []
    for q_up, c, h in q_segs:
        # c_lo = sq * (p_start - q_start) - eps; sigma = sp * sq; the tests
        # read the box's range of y - sigma*x, as diagram.classify_slab does
        c_lo = a - c - e if q_up else c - a - e
        c_hi = c_lo + e2
        if q_up == p_up:  # sigma +1: y - x over [-w, h]
            if c_lo > h or c_hi < -w:
                letters.append("e")
            elif c_lo <= -w and c_hi >= h:
                letters.append("f")
            else:
                letters.append("p")
                ints += (c_lo, c_hi)
        elif c_lo > w + h or c_hi < 0:  # sigma -1: y + x over [0, w + h]
            letters.append("e")
        elif c_lo <= 0 and c_hi >= w + h:
            letters.append("f")
        else:
            letters.append("n")
            ints += (c_lo, c_hi)
    return "".join(letters), tuple(ints)


def q_segments(q: Sequence[int]) -> list[tuple[bool, int, int]]:
    """Q's segments as :func:`classify_column` reads them."""
    return [(b > a, a, abs(b - a)) for a, b in zip(q, q[1:])]


def compute_diagram_1d(p: Curve1D, q: Curve1D, eps) -> FreeSpaceDiagram1D:
    """1D free space diagram of two curves under arc-length parametrization.

    Cell (i, j) is the slab |P_i(x) - Q_j(y)| <= eps classified against the
    cell box; orientation is the product of the two segments' orientations.

    The columns are computed on Python ints by :func:`classify_column`, with
    the vertices and eps scaled by the least common multiple of the curves'
    scales and eps's denominator (never by a solver's scale, so the check
    stays independent of the code it checks); the diagram is built from
    those letters and ints without a Fraction, and without the
    constructors' structural check, which every column of
    :func:`classify_column` passes.
    """
    e, den = checked_epsilon(eps, exact=True).as_integer_ratio()
    scale = math.lcm(den, p.scale, q.scale)
    pi = [v * (scale // p.scale) for v in p.scaled_vertices]
    q_segs = q_segments([v * (scale // q.scale) for v in q.scaled_vertices])
    e *= scale // den
    columns, intercepts = zip(*[classify_column(a, b, q_segs, e) for a, b in zip(pi, pi[1:])])
    widths = [abs(b - a) for a, b in zip(pi, pi[1:])]
    return diagram_module().FreeSpaceDiagram1D._built(scale, e, widths, [h for _, _, h in q_segs], columns, intercepts)


class EllipseCell(NamedTuple):
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


class RelativePlacement(NamedTuple):
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
    """Start point, unit direction and length of a planar segment, as
    2-tuples and a float."""
    (ax, ay), (bx, by) = seg
    ax, ay = float(ax), float(ay)
    dx, dy = float(bx) - ax, float(by) - ay
    length = math.hypot(dx, dy)
    if length <= TOL:
        raise ValueError("degenerate segment")
    return (ax, ay), (dx / length, dy / length), length


def cell_ellipse_2d(seg_p, seg_q, eps: float) -> EllipseCell:
    """Classify the free space of two planar segments within their cell.

    Segments are ((x, y), (x, y)) pairs. The squared distance
    f(x, y) = |w + x*u - y*v|^2 is a convex quadratic on the cell box
    [0, lp] x [0, lq]: its maximum is at a corner, and its minimum at the
    stationary point, if that lies in the box, or on an edge, where f is a
    1D quadratic with leading coefficient 1 whose vertex clamps to the edge.
    Floats, with absolute tolerance ``TOL``; ``eps`` passes
    :func:`checked_epsilon` as the eps of curves in R^d.
    """
    eps = checked_epsilon(eps, exact=False)
    (ax, ay), (ux, uy), lp = _seg_frame(seg_p)
    (cx, cy), (vx, vy), lq = _seg_frame(seg_q)
    wx, wy = ax - cx, ay - cy
    c = ux * vx + uy * vy
    wu = wx * ux + wy * uy
    wv = wx * vx + wy * vy

    def f(x: float, y: float) -> float:
        rx = wx + x * ux - y * vx
        ry = wy + x * uy - y * vy
        return rx * rx + ry * ry

    target = eps * eps
    den = 1.0 - c * c
    # the stationary point: x - c*y = -wu and y - c*x = wv
    center = ((c * wv - wu) / den, (wv - c * wu) / den) if den > 1e-15 else None
    candidates = [(x, min(max(c * x + wv, 0.0), lq)) for x in (0.0, lp)]
    candidates += [(min(max(c * y - wu, 0.0), lp), y) for y in (0.0, lq)]
    if center is not None and 0.0 <= center[0] <= lp and 0.0 <= center[1] <= lq:
        candidates.append(center)
    fmin = min(f(x, y) for x, y in candidates)
    fmax = max(f(x, y) for x in (0.0, lp) for y in (0.0, lq))

    if fmin > target + TOL:
        return EllipseCell(ELLIPSE_EMPTY)
    if fmax <= target + TOL:
        return EllipseCell(ELLIPSE_FULL)

    if abs(abs(c) - 1.0) <= 1e-12:
        # Parallel supporting lines: the sublevel set is a slab.
        s = 1 if c > 0 else -1
        px, py = wx - wu * ux, wy - wu * uy
        d0sq = px * px + py * py
        if d0sq > target:
            return EllipseCell(ELLIPSE_EMPTY)
        g = math.sqrt(target - d0sq)
        lo, hi = (wu - g, wu + g) if s == 1 else (-wu - g, -wu + g)
        return EllipseCell(PARTIAL_SLAB, slab_sigma=s, slab_lo=lo, slab_hi=hi)

    val = target - f(*center)
    if val <= 0:
        return EllipseCell(ELLIPSE_EMPTY)
    a_s = math.sqrt(val / (1.0 - c))  # half-width along (1, 1)
    a_t = math.sqrt(val / (1.0 + c))  # half-width along (-1, 1)
    if a_s >= a_t:
        return EllipseCell(PARTIAL_ELLIPSE, center, a_s, a_t, 1)
    return EllipseCell(PARTIAL_ELLIPSE, center, a_t, a_s, -1)


def relative_placement_from_cell(cell: EllipseCell, eps: float) -> RelativePlacement:
    """Invert a partial ellipse cell to the segments' relative placement;
    ``eps`` passes :func:`checked_epsilon` as in :func:`cell_ellipse_2d`."""
    eps = checked_epsilon(eps, exact=False)
    if cell.status != PARTIAL_ELLIPSE:
        raise ValueError("relative placement is defined for partial ellipse cells")
    a_eff = cell.semi_major if cell.major_axis_sign == 1 else cell.semi_minor
    arg = eps / (math.sqrt(2.0) * a_eff)
    if arg > 1.0 + TOL:
        raise ValueError("inconsistent cell: eps exceeds sqrt(2) * slab-axis half-width")
    angle = math.asin(min(arg, 1.0))
    cx, cy = cell.center if cell.center is not None else (math.nan, math.nan)
    return RelativePlacement(angle=angle, dist_p=cx, dist_q=cy)


def verify_witness(witness: Witness, instance: Union[FreeSpaceMatrix, FreeSpaceDiagram1D]) -> bool:
    """True iff forward computation of the witness reproduces the instance."""
    if isinstance(instance, FreeSpaceMatrix):
        return compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == instance
    if isinstance(instance, diagram_module().FreeSpaceDiagram1D):
        if not (isinstance(witness.curve_p, Curve1D) and isinstance(witness.curve_q, Curve1D)):
            raise ValueError("a diagram1d instance needs 1D polyline curves")
        return compute_diagram_1d(witness.curve_p, witness.curve_q, witness.epsilon) == instance
    raise TypeError(f"cannot verify against {type(instance).__name__}")
