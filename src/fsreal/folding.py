"""Fixed-parameter solver for continuous 1D realizability.

Grid lines are labeled fold/straight from local white-space evidence; the
lines that the evidence leaves open are the parameter. The evidence is read
row by row with :func:`fsreal.forward.classify_column`: a partial cell next
to the line fixes its P segment against the row's Q segment, and the cell
across the line must be the one the kernel gives under a fold (or a straight
vertex) there. A full orientation vector of both curves fixes the pair up
to isometry:

- the labels fix each segment's orientation relative to the first one;
- any partial cell (i, j) fixes sigma = sp_i * sq_j, and its
  c_lo = sq_j * (P_i - Q_j) - eps fixes Q's offset.

:func:`solve_fpt` enumerates only the completions of the labels of the
side with fewer unknown lines, Q (P after transposing the diagram). With
P_{i0} = 0 at the first partial cell (i0, j0), each completion fixes Q, and
column i's cells then depend only on (P_i, P_{i+1}). So P is swept column
by column outward from i0: the reachable integer positions of each vertex
are kept as a layer with back-pointers, stepping by +-w_i, and a step
survives only when :func:`fsreal.forward.classify_column`, the cell test of
the forward computation (and of the labels and pseudo-poly's frame check),
returns the diagram's column, letters and intercepts alike. That costs
O(2^k_short * n * m * R), k_short the unknown lines of the enumerated side
and R the largest layer.

The crease inference, the sweep and the witness read the diagram's int
table, checked to be well formed when it was built. This module only
proposes candidates: each full assignment found fixes a pair, which
:func:`extract_curves` reads off those ints.
:func:`fsreal.pseudopoly.decide_diagram`, the entry of both diagram
solvers, runs the grid-line check first, takes the closed form for a
diagram without partial cells, and checks each candidate forward against
the diagram; :func:`check_foldable` is that check for one assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    FreeSpaceDiagram1D,
    column_cells,
    Witness,
    consistency_problems,  # noqa: F401  not called: bench/tracing.py patches this name
    structural_problems,  # noqa: F401  not called: bench/tracing.py patches this name
    transpose_diagram,
)
from .forward import classify_column, compute_diagram_1d, q_segments
from .pseudopoly import closed_form_witness, decide_diagram, int_witness

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


def _continues(left, w_l, right, w_r, h, e, fold: bool) -> bool:
    """Two P segments meeting at the line, with a fold there or straight,
    give these two cells against one Q segment of length h; each cell is a
    one-row column of :func:`fsreal.model.column_cells`.

    A partial cell fixes its P segment, run from 0 to its width, against the
    Q segment, and :func:`fsreal.forward.classify_column` gives the other
    cell; two cells without a slab fold into each other iff they are equal,
    and continue straight iff both are empty or both full with the whole
    row within 2*eps."""
    if left[1]:  # Q's segment starts at -sigma * (c_lo + e)
        q_seg = (True, -left[1][0] - e, h) if left[0] == "p" else (False, left[1][0] + e, h)
        return classify_column(w_l, w_l - w_r if fold else w_l + w_r, (q_seg,), e) == right
    if right[1]:
        q_seg = (True, -right[1][0] - e, h) if right[0] == "p" else (False, right[1][0] + e, h)
        return classify_column(w_l if fold else -w_l, 0, (q_seg,), e) == left
    if fold or left[0] == "e":
        return left == right
    return right[0] == "f" and w_l + w_r + h <= 2 * e


def _line_labels(d: FreeSpaceDiagram1D) -> tuple[list[str], list[int]]:
    """Labels and contradiction notes for the lines between consecutive
    columns of ``d``. Two columns without a partial letter fold iff they are
    equal, and continue straight iff also each full row fits within 2*eps."""
    intercepts, widths, heights, eps = d.scaled_intercepts, d.scaled_widths, d.scaled_heights, d.scaled_eps
    cells = [column_cells(col, ints) for col, ints in zip(d.columns, intercepts)]
    labels = []
    notes = []
    for i in range(len(cells) - 1):
        w_l, w_r = widths[i], widths[i + 1]
        if not intercepts[i] and not intercepts[i + 1]:
            fold_ok = d.columns[i] == d.columns[i + 1]
            straight_ok = fold_ok and all(w_l + w_r + h <= 2 * eps for ch, h in zip(d.columns[i], heights) if ch == "f")
        else:
            rows = list(zip(cells[i], cells[i + 1], heights))
            fold_ok = all(_continues(left, w_l, right, w_r, h, eps, True) for left, right, h in rows)
            straight_ok = all(_continues(left, w_l, right, w_r, h, eps, False) for left, right, h in rows)
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


def infer_creases(diagram: FreeSpaceDiagram1D) -> CreaseAssignment:
    """Label every grid line whose adjacent cells admit only one of
    {fold, straight}; lines supporting both stay unknown, lines supporting
    neither are contradictions (the instance is not realizable)."""
    v_labels, v_bad = _line_labels(diagram)
    h_labels, h_bad = _line_labels(transpose_diagram(diagram))
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


def _vertices(lengths: Sequence, orientations: Sequence[int]) -> list:
    """A curve's vertices from 0: segment i has this length and orientation."""
    out = [0]
    for s, length in zip(orientations, lengths):
        out.append(out[-1] + s * length)
    return out


def extract_curves(
    diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]
) -> Optional[Witness]:
    """The one curve pair a full assignment fixes, or None when a partial
    cell's slab orientation contradicts the labels.

    Fold lines flip segment orientation; the inter-curve offset comes from
    the first partial cell's slab (positive mirror). A diagram without
    partial cells fixes no offset and needs no labels: its pair is
    :func:`fsreal.pseudopoly.closed_form_witness`'s, or None. Either way
    the pair is unchecked; :func:`check_foldable` checks it forward.
    """
    partials = (
        (i, j, 1 if c == "p" else -1) for i, col in enumerate(diagram.columns) for j, c in enumerate(col) if c in "pn"
    )
    i0, j0, sigma0 = next(partials, (None, None, None))
    if i0 is None:
        return closed_form_witness(diagram)
    sp = _orientations_from(vertical)
    sq_rel = _orientations_from(horizontal)
    sq1 = sigma0 * sp[i0] * sq_rel[j0]
    sq = [sq1 * s for s in sq_rel]
    if any(sp[i] * sq[j] != sigma for i, j, sigma in partials):  # the first one agrees by sq1
        return None
    p_pts = _vertices(diagram.scaled_widths, sp)
    pref_q = _vertices(diagram.scaled_heights, sq)
    # c_lo = sq_j * (Pstart - Qstart) - eps
    q0 = p_pts[i0] - sq[j0] * (diagram.scaled_intercepts[i0][0] + diagram.scaled_eps) - pref_q[j0]
    return int_witness(diagram, p_pts, [q0 + v for v in pref_q], diagram.scale)


def check_foldable(diagram: FreeSpaceDiagram1D, vertical: Sequence[str], horizontal: Sequence[str]) -> bool:
    """Check one full fold/straight assignment.

    True iff the curve pair that :func:`extract_curves` reads off the
    assignment reproduces the diagram. The assignment fixes the pair up to
    isometry (see the module docstring), so no other pair can do better.
    """
    witness = extract_curves(diagram, vertical, horizontal)
    return witness is not None and compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram


def _completions(labels: Sequence[str]):
    """Every completion of the labels: the unknown lines as a binary
    counter, fold = 1, the first unknown line the lowest bit."""
    open_lines = [i for i, label in enumerate(labels) if label == UNKNOWN]
    for counter in range(1 << len(open_lines)):
        full = list(labels)
        for bit, i in enumerate(open_lines):
            full[i] = FOLD if counter >> bit & 1 else STRAIGHT
        yield full


def _walk(d: FreeSpaceDiagram1D, q_segs, columns, forward: bool) -> Optional[list[int]]:
    """P's vertices from P = 0 across ``columns``, taken in this order, each
    column's cells the diagram's; the first vertex is the common one, and the
    walk runs forward (P_i to P_{i+1}) or backward. None when a layer of
    reachable positions empties."""
    e = d.scaled_eps
    layers = [{0: None}]
    for i in columns:
        w, target, reached = d.scaled_widths[i], (d.columns[i], d.scaled_intercepts[i]), {}
        for x in layers[-1]:
            for y in (x + w, x - w):
                if y in reached:
                    continue
                a, b = (x, y) if forward else (y, x)
                if classify_column(a, b, q_segs, e) == target:
                    reached[y] = x
        if not reached:
            return None
        layers.append(reached)
    x = next(iter(layers[-1]))
    path = [x]
    for layer in reversed(layers[1:]):
        x = layer[x]
        path.append(x)
    return path[::-1]


def _sweep(d: FreeSpaceDiagram1D, labels: Sequence[str]):
    """For each completion of Q's labels, the labels of a P whose columns
    against that Q are all the diagram's, with Q's, if such a P exists. The
    diagram has a partial cell; the first, (i0, j0), puts P_{i0} at 0 and,
    given Q's orientation vector, fixes Q."""
    e = d.scaled_eps
    partials = [[(j, 1 if ch == "p" else -1) for j, ch in enumerate(col) if ch in "pn"] for col in d.columns]
    i0 = next(i for i, col in enumerate(partials) if col)
    j0 = partials[i0][0][0]
    c_lo0 = d.scaled_intercepts[i0][0]
    # the partial cells of one column share sp_i = sigma_j * sq_j
    parity = [(j, j2, s * s2) for col in partials for (j, s), (j2, s2) in zip(col, col[1:])]
    for horizontal in _completions(labels):
        sq = _orientations_from(horizontal)
        if any(sq[j] * sq[j2] != s for j, j2, s in parity):
            continue
        q = _vertices(d.scaled_heights, sq)
        shift = -sq[j0] * (c_lo0 + e) - q[j0]  # c_lo0 = sq_j0 * (0 - Q_j0) - eps
        q_segs = q_segments([v + shift for v in q])
        after = _walk(d, q_segs, range(i0, d.n_cols), True)
        before = after and _walk(d, q_segs, range(i0 - 1, -1, -1), False)
        if before:
            p = before[::-1] + after[1:]
            yield [FOLD if (b - a) * (c - b) < 0 else STRAIGHT for a, b, c in zip(p, p[1:], p[2:])], horizontal


def solve_fpt(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """Decide 1D realizability of a diagram in O(2^k_short * n * m * R) time.

    k_short is the smaller of the two curves' counts of unknown crease
    lines, and R the largest layer of reachable positions of the swept
    curve, at most min(2^i, span / gcd) for vertex i. The completions of
    that curve's labels are enumerated as a binary counter (fold = 1, its
    lines in order); when it is P, the diagram is transposed and the labels
    swapped back. For each completion the other curve is swept column by
    column (see the module docstring), and each full assignment found is a
    candidate: the pair :func:`extract_curves` reads off it.

    :func:`fsreal.pseudopoly.decide_diagram` runs the grid-line check,
    decides a diagram without partial cells by the closed form, and returns
    the first candidate that the forward computation checks.
    """
    return decide_diagram(diagram, _candidates)


def _candidates(diagram: FreeSpaceDiagram1D):
    """The pair of each full assignment the sweep finds, in its order."""
    inferred = infer_creases(diagram)
    if inferred.contradictions:
        return
    if inferred.vertical.count(UNKNOWN) < inferred.horizontal.count(UNKNOWN):
        # enumerate P's labels: sweep Q across the transposed diagram
        assignments = ((v, h) for h, v in _sweep(transpose_diagram(diagram), inferred.vertical))
    else:
        assignments = _sweep(diagram, inferred.horizontal)
    for vertical, horizontal in assignments:
        yield extract_curves(diagram, vertical, horizontal)
