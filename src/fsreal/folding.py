"""Fixed-parameter solver for continuous 1D realizability.

Grid lines are labeled fold/straight from local white-space evidence; the
unknown lines (2^k of them) are enumerated, and each full assignment is
checked by folding the diagram one axis at a time with safe end folds and
crimps, gluing layers whose white space aligns exactly.

The structural and consistency checks, the crease inference and the fold
checks run on the diagram scaled to Python ints
(:func:`fsreal.model.scale_to_integers`); the witness is read off the
caller's diagram in `fractions.Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    EMPTY,
    FULL,
    PARTIAL,
    CellContent,
    Curve1D,
    FreeSpaceDiagram1D,
    Witness,
    cell_mirror_x,
    cell_restrict_x,
    cell_transpose,
    classify_slab,
    consistency_problems,
    scale_to_integers,
    structural_problems,
)
from .forward import compute_diagram_1d

FOLD = "fold"
STRAIGHT = "straight"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CreaseAssignment:
    """Labels for interior grid lines; ``vertical[i]`` separates columns i
    and i+1, ``horizontal[j]`` separates rows j and j+1."""

    vertical: tuple[str, ...]
    horizontal: tuple[str, ...]
    contradictions: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return sum(1 for s in self.vertical + self.horizontal if s == UNKNOWN)


def _mirror_compatible(left: CellContent, w_l, right: CellContent, w_r, h) -> bool:
    """White space of the two cells is symmetric through the shared line on
    the overlap window (a fold at the line is consistent with this pair)."""
    t = min(w_l, w_r)
    a = cell_restrict_x(left, w_l, h, w_l - t, w_l)
    b = cell_mirror_x(cell_restrict_x(right, w_r, h, 0, t), t, h)
    return a == b


def _straight_compatible(left: CellContent, w_l, right: CellContent, w_r, h, eps) -> bool:
    """Some single slab consistent with both cells continues across the line
    (a straight vertex at the line is consistent with this pair)."""
    if left.status == PARTIAL:
        expected = classify_slab(
            left.sigma, left.c_lo + left.sigma * w_l, left.c_hi + left.sigma * w_l, w_r, h
        )
        return expected == right
    if right.status == PARTIAL:
        expected = classify_slab(
            right.sigma, right.c_lo - right.sigma * w_l, right.c_hi - right.sigma * w_l, w_l, h
        )
        return expected == left
    if left.status == EMPTY and right.status == EMPTY:
        return True
    if left.status == FULL and right.status == FULL:
        return w_l + w_r + h <= 2 * eps
    return False  # full next to empty cannot continue


def _straight_merge(left: CellContent, w_l, right: CellContent, w_r, h, eps) -> Optional[CellContent]:
    """Merge two horizontally adjacent cells through a straight line."""
    if not _straight_compatible(left, w_l, right, w_r, h, eps):
        return None
    if left.status == PARTIAL:
        return classify_slab(left.sigma, left.c_lo, left.c_hi, w_l + w_r, h)
    if right.status == PARTIAL:
        return classify_slab(
            right.sigma, right.c_lo - right.sigma * w_l, right.c_hi - right.sigma * w_l, w_l + w_r, h
        )
    return left  # both empty or both full


def _line_labels(columns, widths, heights, eps) -> tuple[list[str], list[str]]:
    """Labels and contradiction notes for the lines between consecutive
    column entries; ``columns[i]`` is the cell tuple of column i."""
    labels = []
    notes = []
    for i in range(len(columns) - 1):
        fold_ok = all(
            _mirror_compatible(columns[i][j], widths[i], columns[i + 1][j], widths[i + 1], heights[j])
            for j in range(len(heights))
        )
        straight_ok = all(
            _straight_compatible(columns[i][j], widths[i], columns[i + 1][j], widths[i + 1], heights[j], eps)
            for j in range(len(heights))
        )
        if fold_ok and straight_ok:
            labels.append(UNKNOWN)
        elif fold_ok:
            labels.append(FOLD)
        elif straight_ok:
            labels.append(STRAIGHT)
        else:
            labels.append(UNKNOWN)
            notes.append(i)
    return labels, notes


def _transposed(diagram: FreeSpaceDiagram1D):
    cols_t = tuple(
        tuple(cell_transpose(diagram.cells[i][j]) for i in range(diagram.n_cols))
        for j in range(diagram.m_rows)
    )
    return cols_t, diagram.row_heights, diagram.col_widths


def infer_creases(diagram: FreeSpaceDiagram1D) -> CreaseAssignment:
    """Label every grid line whose adjacent cells admit only one of
    {fold, straight}; lines supporting both stay unknown, lines supporting
    neither are contradictions (the instance is not realizable)."""
    eps = diagram.epsilon
    v_labels, v_bad = _line_labels(diagram.cells, diagram.col_widths, diagram.row_heights, eps)
    cols_t, widths_t, heights_t = _transposed(diagram)
    h_labels, h_bad = _line_labels(cols_t, widths_t, heights_t, eps)
    notes = tuple(
        [f"vertical line {i}: no fold/straight assignment matches the white space" for i in v_bad]
        + [f"horizontal line {j}: no fold/straight assignment matches the white space" for j in h_bad]
    )
    return CreaseAssignment(tuple(v_labels), tuple(h_labels), notes)


# ---------------------------------------------------------------------------
# Folded-state machinery: faces carry piecewise strips of cells.


@dataclass
class _Face:
    width: int
    pieces: list[tuple[int, tuple[CellContent, ...]]]


def _sub_pieces(pieces, a: int, b: int, heights) -> list:
    """Restrict a piece list to the span [a, b], re-based to 0."""
    out = []
    x = 0
    for length, cells in pieces:
        lo = max(a, x)
        hi = min(b, x + length)
        if lo < hi:
            local_lo = lo - x
            local_hi = hi - x
            out.append(
                (
                    hi - lo,
                    tuple(
                        cell_restrict_x(c, length, heights[j], local_lo, local_hi)
                        for j, c in enumerate(cells)
                    ),
                )
            )
        x += length
    return out


def _mirror_pieces(pieces, heights) -> list:
    return [
        (length, tuple(cell_mirror_x(c, length, heights[j]) for j, c in enumerate(cells)))
        for length, cells in reversed(pieces)
    ]


def _pieces_equal(p1, p2, heights) -> bool:
    """Exact white-space equality of two piece lists of equal total span."""
    i = j = 0
    off1 = off2 = 0
    while i < len(p1) and j < len(p2):
        l1, c1 = p1[i]
        l2, c2 = p2[j]
        step = min(l1 - off1, l2 - off2)
        for r in range(len(heights)):
            a = cell_restrict_x(c1[r], l1, heights[r], off1, off1 + step)
            b = cell_restrict_x(c2[r], l2, heights[r], off2, off2 + step)
            if a != b:
                return False
        off1 += step
        off2 += step
        if off1 == l1:
            i += 1
            off1 = 0
        if off2 == l2:
            j += 1
            off2 = 0
    return i == len(p1) and j == len(p2)


def _fold_axis(faces: list[_Face], heights) -> Optional[_Face]:
    """Fold a 1D crease pattern flat with safe end folds and crimps, checking
    white-space alignment of every newly overlapped extent."""
    while len(faces) > 1:
        widths = [f.width for f in faces]
        last = len(faces) - 1
        pick = None
        for idx in range(len(faces)):
            left_ok = idx == 0 or widths[idx] <= widths[idx - 1]
            right_ok = idx == last or widths[idx] <= widths[idx + 1]
            if left_ok and right_ok:
                pick = idx
                break
        if pick == 0:
            f0, f1 = faces[0], faces[1]
            image = _mirror_pieces(f0.pieces, heights)
            target = _sub_pieces(f1.pieces, 0, f0.width, heights)
            if not _pieces_equal(image, target, heights):
                return None
            faces = faces[1:]
        elif pick == last:
            fl, fp = faces[last], faces[last - 1]
            image = _mirror_pieces(fl.pieces, heights)
            target = _sub_pieces(fp.pieces, fp.width - fl.width, fp.width, heights)
            if not _pieces_equal(image, target, heights):
                return None
            faces = faces[:-1]
        else:
            prev_f, mid, nxt = faces[pick - 1], faces[pick], faces[pick + 1]
            tail = _sub_pieces(prev_f.pieces, prev_f.width - mid.width, prev_f.width, heights)
            if not _pieces_equal(_mirror_pieces(mid.pieces, heights), tail, heights):
                return None
            overlap = _sub_pieces(nxt.pieces, 0, mid.width, heights)
            if not _pieces_equal(overlap, tail, heights):
                return None
            merged = _Face(
                prev_f.width + nxt.width - mid.width,
                prev_f.pieces + _sub_pieces(nxt.pieces, mid.width, nxt.width, heights),
            )
            faces = faces[: pick - 1] + [merged] + faces[pick + 2 :]
    return faces[0]


def _build_faces(columns, widths, heights, labels, eps) -> Optional[list[_Face]]:
    """Group columns into faces by merging cells through straight lines."""
    faces: list[_Face] = []
    cur_cells = list(columns[0])
    cur_width = widths[0]
    for i, label in enumerate(labels):
        if label == STRAIGHT:
            nxt_cells = []
            for j in range(len(heights)):
                merged = _straight_merge(
                    cur_cells[j], cur_width, columns[i + 1][j], widths[i + 1], heights[j], eps
                )
                if merged is None:
                    return None
                nxt_cells.append(merged)
            cur_cells = nxt_cells
            cur_width = cur_width + widths[i + 1]
        else:
            faces.append(_Face(cur_width, [(cur_width, tuple(cur_cells))]))
            cur_cells = list(columns[i + 1])
            cur_width = widths[i + 1]
    faces.append(_Face(cur_width, [(cur_width, tuple(cur_cells))]))
    return faces


def _flatten_face(face: _Face, heights, eps) -> Optional[tuple[int, tuple[CellContent, ...]]]:
    """Merge a folded face's profile into one cell per row.

    The folded image of the axis is covered by a single segment pair per row,
    so the surviving profile must be the restriction of one slab; pieces that
    cannot continue each other refute the assignment.
    """
    (width, strip), *rest = face.pieces
    strip = list(strip)
    for length, cells in rest:
        for j in range(len(heights)):
            merged = _straight_merge(strip[j], width, cells[j], length, heights[j], eps)
            if merged is None:
                return None
            strip[j] = merged
        width = width + length
    return width, tuple(strip)


def check_foldable(diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]) -> bool:
    """Check one full fold/straight assignment.

    Straight lines are deleted by merging their cells; each axis is then
    folded flat (horizontal first), aligning overlapped white space exactly
    and collapsing the result to a single slab per row; the final single
    cell must itself be realizable by a segment pair.
    """
    eps = diagram.epsilon
    widths = diagram.col_widths
    heights = diagram.row_heights
    for i in range(diagram.n_cols):
        for j in range(diagram.m_rows):
            if diagram.cells[i][j].status == FULL and widths[i] + heights[j] > 2 * eps:
                return False  # no 2*eps slab can cover the cell

    faces = _build_faces(diagram.cells, widths, heights, vertical, eps)
    if faces is None:
        return False
    final_col = _fold_axis(faces, heights)
    if final_col is None:
        return False
    flattened = _flatten_face(final_col, heights, eps)
    if flattened is None:
        return False
    width, strip = flattened

    # transpose: the single surviving column folds along the rows
    cols_t = [(cell_transpose(strip[j]),) for j in range(diagram.m_rows)]
    faces_t = _build_faces(cols_t, heights, [width], horizontal, eps)
    if faces_t is None:
        return False
    final_row = _fold_axis(faces_t, [width])
    if final_row is None:
        return False
    return _flatten_face(final_row, [width], eps) is not None


def _orientations_from(labels: Sequence[str]) -> list[int]:
    out = [1]
    for label in labels:
        out.append(-out[-1] if label == FOLD else out[-1])
    return out


def extract_curves(
    diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]
) -> Optional[Witness]:
    """Read witness curves off an accepted assignment.

    Fold lines flip segment orientation; the inter-curve offset comes from
    the first partial cell's slab (positive mirror), or from the far/centered
    placement rules when the diagram has no partial cells.
    """
    eps = diagram.epsilon
    widths = diagram.col_widths
    heights = diagram.row_heights
    sp = _orientations_from(vertical)
    sq_rel = _orientations_from(horizontal)

    first_partial = None
    for i in range(diagram.n_cols):
        for j in range(diagram.m_rows):
            if diagram.cells[i][j].status == PARTIAL:
                first_partial = (i, j)
                break
        if first_partial:
            break

    p_pts = [0]
    for s, w in zip(sp, widths):
        p_pts.append(p_pts[-1] + s * w)

    if first_partial is None:
        sq = sq_rel
        pref_q = [0]
        for s, h in zip(sq, heights):
            pref_q.append(pref_q[-1] + s * h)
        if any(diagram.cells[i][j].status == FULL for i in range(diagram.n_cols) for j in range(diagram.m_rows)):
            center_p = (min(p_pts) + max(p_pts)) / 2
            q0 = center_p - (min(pref_q) + max(pref_q)) / 2
        else:
            span_p = max(p_pts) - min(p_pts)
            span_q = max(pref_q) - min(pref_q)
            q0 = min(p_pts) + span_p + span_q + 2 * eps + 1 - min(pref_q)
        q_pts = [q0 + v for v in pref_q]
        return Witness(Curve1D(p_pts), Curve1D(q_pts), eps)

    i0, j0 = first_partial
    cell0 = diagram.cells[i0][j0]
    sq1 = cell0.sigma * sp[i0] * sq_rel[j0]
    sq = [sq1 * s for s in sq_rel]
    for i in range(diagram.n_cols):
        for j in range(diagram.m_rows):
            c = diagram.cells[i][j]
            if c.status == PARTIAL and sp[i] * sq[j] != c.sigma:
                return None
    pref_q = [0]
    for s, h in zip(sq, heights):
        pref_q.append(pref_q[-1] + s * h)
    # c_lo = sq_j * (Pstart - Qstart) - eps
    q_start = p_pts[i0] - sq[j0] * (cell0.c_lo + eps)
    q0 = q_start - pref_q[j0]
    q_pts = [q0 + v for v in pref_q]
    return Witness(Curve1D(p_pts), Curve1D(q_pts), eps)


def solve_fpt(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """Decide 1D realizability of a diagram in O(nm * 2^k) time.

    Unknown lines are enumerated as a binary counter (fold = 1, vertical
    lines left to right then horizontal bottom to top); the first accepted
    assignment yields the witness, which is re-verified by the forward
    computation before it is returned.

    The structural and consistency checks, the crease inference and every
    fold check run on the diagram scaled to ints. The witness is read off
    the caller's diagram, because its far placement and centering are not
    scale-invariant, and is verified against it.
    """
    scaled, _ = scale_to_integers(diagram)
    problems = structural_problems(scaled)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    if consistency_problems(scaled):
        return None  # no curve pair produces disagreeing boundary restrictions
    inferred = infer_creases(scaled)
    if inferred.contradictions:
        return None
    slots = [("v", i) for i, s in enumerate(inferred.vertical) if s == UNKNOWN]
    slots += [("h", j) for j, s in enumerate(inferred.horizontal) if s == UNKNOWN]
    base_v = list(inferred.vertical)
    base_h = list(inferred.horizontal)
    for counter in range(1 << len(slots)):
        vertical = list(base_v)
        horizontal = list(base_h)
        for bit, (axis, idx) in enumerate(slots):
            label = FOLD if (counter >> bit) & 1 else STRAIGHT
            if axis == "v":
                vertical[idx] = label
            else:
                horizontal[idx] = label
        if not check_foldable(scaled, vertical, horizontal):
            continue
        witness = extract_curves(diagram, vertical, horizontal)
        if witness is None:
            continue
        if compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram:
            return witness
    return None
