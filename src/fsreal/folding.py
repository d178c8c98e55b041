"""Fixed-parameter solver for continuous 1D realizability.

Grid lines are labeled fold/straight from local white-space evidence, and
the k lines that the evidence leaves open are enumerated, 2^k assignments.
Once every line has a label the curves are fixed up to isometry:

- the labels fix each segment's orientation relative to the first one;
- any partial cell (i, j) fixes sigma = sp_i * sq_j, and its
  c_lo = sq_j * (P_i - Q_j) - eps fixes Q's offset.

A consistent diagram without partial cells is all empty, where the far
placement always works, or all full, where centring the two hulls is
optimal. So an assignment is accepted iff the one curve pair it fixes
reproduces the diagram under the forward computation.

The structural and consistency checks, the crease inference and the
per-assignment checks run on the diagram scaled to Python ints
(:func:`fsreal.model.scale_to_integers`); the witness is read off the
caller's diagram in `fractions.Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _orientations_from(labels: Sequence[str]) -> list[int]:
    out = [1]
    for label in labels:
        out.append(-out[-1] if label == FOLD else out[-1])
    return out


def extract_curves(
    diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]
) -> Optional[Witness]:
    """The one curve pair a full assignment fixes, or None when a partial
    cell's slab orientation contradicts the labels.

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
            # centre Q's hull on P's; Fraction keeps int input exact
            q0 = Fraction(min(p_pts) + max(p_pts) - min(pref_q) - max(pref_q), 2)
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


def check_foldable(diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]) -> bool:
    """Check one full fold/straight assignment.

    True iff the curve pair that :func:`extract_curves` reads off the
    assignment reproduces the diagram. The assignment fixes the pair up to
    isometry (see the module docstring), so no other pair can do better.
    """
    witness = extract_curves(diagram, vertical, horizontal)
    return witness is not None and compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram


def solve_fpt(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """Decide 1D realizability of a diagram in O(nm * 2^k) time.

    Unknown lines are enumerated as a binary counter (fold = 1, vertical
    lines left to right then horizontal bottom to top); the first accepted
    assignment yields the witness, which is re-verified by the forward
    computation before it is returned.

    Each assignment fixes one curve pair up to isometry, so
    :func:`check_foldable` decides it by building that pair and computing
    its diagram forward. The structural and consistency checks, the crease
    inference and every assignment check run on the diagram scaled to ints.
    The witness is read off the caller's diagram, so it is in the caller's
    units, and is verified against it.
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
        if compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram:
            return witness
    return None
