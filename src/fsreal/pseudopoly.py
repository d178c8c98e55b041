"""Pseudo-polynomial solver for 1D free space diagrams.

Segments are subdivided and typed by their row/column slice status (far,
close or boundary): each partial cell turns its slice empty, partial, full,
partial and empty again at no more than four points on each of its two
segments, and one sweep per segment reads the type off them.
Only a slab that a split piece cuts is restricted, and the partial typed
cells found on the way, the edges of the placement graph, are the only typed
cells kept. Partial cells anchor subsegments in rigid frames, one per
component of the placement graph (at most two; the second floats with an
unknown reflection rho and translation tau). An anchored piece fixes its
whole original segment, so each frame is checked against the diagram's own
cells with the forward computation's cell test, one column per placed
original of P. The far and close subsegments left between anchored ones
form runs, placed by boolean reachability tables over integer
positions in the region that the hulls of the two curves leave them: beyond
the eps boundary for a far run, open at that boundary, and a closed window
for a close (middle) run, since full cells are closed conditions. A
consistent diagram without partial cells is all empty or all full, and
:func:`closed_form_witness` gives its one candidate: the far placement, or
the smallest closed windows that hold the two curves, which must sum to at
most 2*eps. :func:`decide_diagram`, the entry of this solver and of
:func:`fsreal.folding.solve_fpt`, runs the grid-line check, then checks
forward that candidate or those the solver proposes.

The search over the unknowns is exact. tau comes from the cross-frame
equations and the net displacements of the runs bridging the two frames.
Unless both curves have close runs, every hull extreme that a run is checked
against is the other curve's anchored extent, so one candidate per
(rho, tau) suffices. Otherwise each extreme lies within 2*eps of its
anchored extent, and for each hull of P only the minimal staircase of hulls
of Q at which Q's runs fit is tried; :func:`decide_diagram` checks each.

Every stage reads the diagram's int form: its values times its scale L, so
a rational diagram is decided as the integer one L times its size, which
is realizable iff it is. The consistency check, the typing, the anchoring
and the search all run on those Python ints; each candidate is a pair of int
curves over L, checked forward against the diagram by an int comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .model import (
    PARTIAL,
    CellContent,
    Curve1D,
    FreeSpaceDiagram1D,
    Witness,
    cell_restrict,
    column_cells,
    consistency_problems,
    structural_problems,  # noqa: F401  not called: bench/tracing.py patches this name
)
from .forward import classify_column, compute_diagram_1d

TYPE_FAR = 1
TYPE_CLOSE = 2
TYPE_BOUNDARY = 3


class SubSeg(NamedTuple):
    """Piece of an original segment after subdivision at type changes."""

    orig: int
    offset: int  # arc-length offset within the original segment
    length: int
    kind: int  # TYPE_FAR / TYPE_CLOSE / TYPE_BOUNDARY


@dataclass
class TypedDiagram:
    diagram: FreeSpaceDiagram1D
    p_segs: list[SubSeg]
    q_segs: list[SubSeg]
    partial: dict[tuple[int, int], CellContent]  # (i, k) -> the partial cell of P piece i, Q piece k, in grid order


# a cell and a piece from their fields, without the named tuples' Python-level __new__
_cell, _piece = partial(tuple.__new__, CellContent), partial(tuple.__new__, SubSeg)


def _slice_events(events: list[int], lo: int, hi: int, span: int, length: int) -> bool:
    """Add the points where one partial cell's slice changes along its
    segment of this length to ``events``, or return True when the slice is
    partial all along. With the other side of a sigma = 1 cell mirrored, the
    white set is lo <= t + u <= hi over 0 <= u <= span: the slice at t is
    nonempty for lo - span < t < hi and full for lo < t < hi - span. An
    event is 4 * t + its change: nonempty +1, -1, notfull -1, +1."""
    a, b = lo - span, hi if hi < length else length  # nonempty slice
    if a < 0:
        a = 0
    c, d = lo if lo > 0 else 0, hi - span  # full slice
    if d > length:
        d = length
    if c >= d and a == 0 and b == length:
        return True
    if a < b:
        events += (4 * a, 4 * b + 1)
    if c < d:
        events += (4 * c + 2, 4 * d + 3)
    return False


def _pieces(orig: int, length: int, letters: str, events: list[int], along: bool) -> list[SubSeg]:
    """The typed pieces of segment ``orig`` of this length, from its letters
    and its partial cells' slice events (``along``: a slice is partial all
    along). One sweep over the events keeps two counts, the cells whose
    slice is not empty and those whose slice is not full: a piece is far
    while the first is 0, close while the second is, and boundary otherwise.
    Without an event the counts never change, and a slice partial all along
    keeps both positive: either way the segment is one piece, no sweep."""
    if along:
        return [_piece((orig, 0, length, TYPE_BOUNDARY))]
    nonempty = letters.count("f")
    notfull = len(letters) - nonempty
    if not events:
        return [_piece((orig, 0, length, TYPE_FAR if not nonempty else TYPE_CLOSE if not notfull else TYPE_BOUNDARY))]
    events.append(4 * length)  # closes the last piece; the counts are not read after it
    events.sort()
    starts: list[int] = []
    kinds: list[int] = []
    at = 0
    for event in events:
        t = event >> 2
        if t > at:
            kind = TYPE_FAR if not nonempty else TYPE_CLOSE if not notfull else TYPE_BOUNDARY
            if not kinds or kinds[-1] != kind:
                starts.append(at)
                kinds.append(kind)
            at = t
        change = event & 3
        if change < 2:
            nonempty += 1 - 2 * change
        else:
            notfull += 2 * change - 5
    ends = starts[1:] + [length]
    return [_piece((orig, a, b - a, kind)) for a, b, kind in zip(starts, ends, kinds)]


def subdivide_and_type(diagram: FreeSpaceDiagram1D) -> TypedDiagram:
    """Insert subdivision vertices wherever a segment's slice status changes
    and type every resulting subsegment (far / close / boundary), as in the
    typed diagram: one pass over each column's partial letters adds each
    cell's slice events to its P and its Q segment. Of the typed cells, keep
    the partial ones."""
    widths, heights = diagram.scaled_widths, diagram.scaled_heights
    columns, intercepts = diagram.columns, diagram.scaled_intercepts
    p_segs: list[SubSeg] = []
    cells: dict[int, tuple[list[int], list[CellContent]]] = {}  # the rows and cells of each column's partial letters
    q_events: list[list[int]] = [[] for _ in heights]
    q_along = [False] * len(heights)
    for i, (w, col, ints) in enumerate(zip(widths, columns, intercepts)):
        events, along = [], False  # along: a slice partial all along
        if ints:
            rows, found = [j for j, ch in enumerate(col) if ch in "pn"], []
            for j, lo, hi in zip(rows, ints[::2], ints[1::2]):
                h = heights[j]
                if col[j] == "p":  # mirrored: Q's side for P's slices, P's for Q's
                    found.append(_cell((PARTIAL, 1, lo, hi)))
                    along = _slice_events(events, h - hi, h - lo, h, w) or along
                    q_along[j] = _slice_events(q_events[j], w + lo, w + hi, w, h) or q_along[j]
                else:
                    found.append(_cell((PARTIAL, -1, lo, hi)))
                    along = _slice_events(events, lo, hi, h, w) or along
                    q_along[j] = _slice_events(q_events[j], lo, hi, w, h) or q_along[j]
            cells[i] = rows, found
        p_segs += _pieces(i, w, col, events, along)
    rows = map("".join, zip(*columns))
    q_segs = [s for j, (h, row) in enumerate(zip(heights, rows)) for s in _pieces(j, h, row, q_events[j], q_along[j])]

    # a piece cell can be partial only where its original cell is, and only a
    # slab cut by a split piece changes
    q_pieces: list[list[int]] = [[] for _ in heights]  # Q's pieces of each original row
    for k, qs in enumerate(q_segs):
        q_pieces[qs.orig].append(k)
    partial: dict[tuple[int, int], CellContent] = {}
    for i, ps in enumerate(p_segs):
        if ps.orig not in cells:
            continue
        split = ps.length != widths[ps.orig]
        for j, cell in zip(*cells[ps.orig]):
            for k in q_pieces[j]:
                qs = q_segs[k]
                if not split and qs.length == heights[j]:
                    partial[i, k] = cell
                else:
                    c = cell_restrict(cell, ps.offset, qs.offset, ps.length, qs.length)
                    if c.status == PARTIAL:
                        partial[i, k] = c
    return TypedDiagram(diagram, p_segs, q_segs, partial)


@dataclass
class PlacementGraph:
    """Bipartite graph on subsegments; an edge marks a partial cell."""

    adjacency: dict[tuple[str, int], list[tuple[str, int]]]
    non_singleton: list[list[tuple[str, int]]]  # components with an edge, breadth-first from the least node


def build_placement_graph(typed: TypedDiagram) -> PlacementGraph:
    adjacency: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for i, j in typed.partial:
        adjacency.setdefault(("P", i), []).append(("Q", j))
        adjacency.setdefault(("Q", j), []).append(("P", i))
    components: list[list[tuple[str, int]]] = []
    seen: set[tuple[str, int]] = set()
    for root in sorted(adjacency):
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for node in comp:  # comp grows as the walk reaches new nodes
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    comp.append(other)
        components.append(comp)
    return PlacementGraph(adjacency, components)


@dataclass
class Anchoring:
    """Relative placements of the subsegments that touch a partial cell, one
    rigid frame per non-singleton component; frame 1 (if present) floats with
    an unknown translation and reflection resolved during the search."""

    frames: list[dict[tuple[str, int], tuple[int, int]]]  # node -> (start, sigma)
    frame_of: dict[tuple[str, int], int]
    cross_eqs: list[tuple[int, int, int, int]]  # (frame_a, value_a, frame_b, value_b)


def anchor_components(typed: TypedDiagram, graph: PlacementGraph) -> Optional[Anchoring]:
    """Propagate relative positions over partial cells within each component,
    check each frame against the diagram's cells with
    :func:`fsreal.forward.classify_column`, then bind consecutive anchored
    subsegments of the same curve: a shared vertex within a frame, a
    cross-frame equation between frames; contradictions mean the instance is
    not realizable."""
    diagram, eps = typed.diagram, typed.diagram.scaled_eps
    frames: list[dict[tuple[str, int], tuple[int, int]]] = []
    frame_of: dict[tuple[str, int], int] = {}
    for comp in graph.non_singleton:
        placement: dict[tuple[str, int], tuple[int, int]] = {comp[0]: (0, 1)}
        for node in comp:  # breadth-first, so the node is placed already
            start, sigma = placement[node]
            for other in graph.adjacency[node]:  # relation: c_lo = sQ*(Ps - Qs) - eps
                if node[0] == "P":
                    cell = typed.partial[node[1], other[1]]
                    o_sigma = cell.sigma * sigma  # sQ
                    o_start = start - o_sigma * (cell.c_lo + eps)
                else:
                    cell = typed.partial[other[1], node[1]]
                    o_sigma = cell.sigma * sigma  # sP
                    o_start = start + sigma * (cell.c_lo + eps)
                if other in placement:
                    if placement[other] != (o_start, o_sigma):
                        return None
                else:
                    placement[other] = (o_start, o_sigma)
        idx = len(frames)
        frames.append(placement)
        for node in placement:
            frame_of[node] = idx

    # An anchored piece fixes its original segment, which starts at the
    # piece's start - sigma * offset and runs the same way; each placed
    # original of P must give the diagram's cells with the frame's placed
    # originals of Q. No answer changes. Restricting a cell to a piece's box
    # is exact, so where the originals' cells are the diagram's, every piece
    # cell is its typed cell: the check is at least as strong as one over
    # the frame's pieces. A witness that decide_diagram returns places its
    # originals where the frame does (up to rho and tau, which keep every
    # cell) and reproduces the diagram, so every anchoring that leads to a
    # YES passes.
    widths, heights = diagram.scaled_widths, diagram.scaled_heights
    for placement in frames:
        placed: dict[str, set[tuple[int, int, int]]] = {"P": set(), "Q": set()}  # (orig, start, sigma)
        for (curve, k), (start, sigma) in placement.items():
            seg = (typed.p_segs if curve == "P" else typed.q_segs)[k]
            placed[curve].add((seg.orig, start - sigma * seg.offset, sigma))
        q_placed = sorted(placed["Q"])
        q_segs = [(sigma == 1, start, heights[j]) for j, start, sigma in q_placed]
        rows = [j for j, _, _ in q_placed]
        whole = rows == list(range(len(heights)))  # each original of Q placed once: compare whole columns
        for i, start, sigma in placed["P"]:
            column = diagram.columns[i], diagram.scaled_intercepts[i]
            if not whole:  # the column at the placed rows
                cells = column_cells(*column)
                column = "".join([cells[j][0] for j in rows]), tuple([v for j in rows for v in cells[j][1]])
            if classify_column(start, start + sigma * widths[i], q_segs, eps) != column:
                return None

    cross: list[tuple[int, int, int, int]] = []
    for curve, segs in (("P", typed.p_segs), ("Q", typed.q_segs)):
        for k in range(len(segs) - 1):
            a, b = (curve, k), (curve, k + 1)
            fa, fb = frame_of.get(a), frame_of.get(b)
            if fa is None or fb is None:
                continue  # a run starts or ends here
            sa, ga = frames[fa][a]
            end_a = sa + ga * segs[k].length
            sb, _ = frames[fb][b]
            if fa == fb:
                if end_a != sb:
                    return None
            else:
                cross.append((fa, end_a, fb, sb))
    return Anchoring(frames, frame_of, cross)


# ---------------------------------------------------------------------------
# Reachability tables over integer positions (boolean, bitmask encoded).


def _step_dirs(idx: int, k: int, first_dir: Optional[int], last_dir: Optional[int]) -> tuple[int, ...]:
    """Directions step idx of k may take, rightward first; on a one-step run
    the forced first direction wins."""
    if idx == 0 and first_dir is not None:
        return (first_dir,)
    if idx == k - 1 and last_dir is not None:
        return (last_dir,)
    return (1, -1)


def fixed_boundary_dp(
    lengths: Sequence[int],
    bound: Optional[int],
    start: Optional[int] = None,
    end: Optional[int] = 0,
    first_dir: Optional[int] = None,
    last_dir: Optional[int] = None,
) -> list[int]:
    """Reachability of a subcurve over the integer positions of a region.

    The region is either far, ``bound=None``: unbounded and open at the eps
    boundary 0, so a free vertex lies at 1, 2, ...; or a middle window, the
    closed interval [0, bound], since full cells are closed conditions.
    Positions are capped at ``sum(lengths) + max(start, end)`` (and at bound).
    ``start``/``end`` fix the first/last vertex to a position (None: free);
    ``first_dir``/``last_dir`` force the first/last step direction (+1 right,
    -1 left), used where the neighboring vertex is a subdivision point at
    which the curve may not turn.

    Bit s of ``masks[k]`` is set iff the suffix from vertex k embeds with
    vertex k at s, every vertex within its guard: its fixed position, or the
    region. ``masks[0]`` is the set of feasible first positions.
    """
    k = len(lengths)
    cap = sum(lengths) + max(0, start or 0, end or 0)
    if bound is not None:
        cap = min(cap, bound)
    full = (1 << (cap + 1)) - 1
    region = full if bound is not None else full & ~1

    def guard(pos: Optional[int]) -> int:
        if pos is None:
            return region
        return 1 << pos if 0 <= pos <= cap else 0

    masks = [0] * (k + 1)
    masks[k] = guard(end)
    for idx in range(k - 1, -1, -1):
        step = lengths[idx]
        nxt = masks[idx + 1]
        cur = 0
        for d in _step_dirs(idx, k, first_dir, last_dir):
            cur |= nxt >> step if d == 1 else (nxt << step) & full
        masks[idx] = cur & (guard(start) if idx == 0 else region)
    return masks


def dp_extract_path(
    masks: list[int], lengths: Sequence[int], first_dir: Optional[int] = None, last_dir: Optional[int] = None
) -> list[int]:
    """Vertex positions of one embedding from the tables of
    :func:`fixed_boundary_dp` (called with the same lengths and directions,
    ``masks[0]`` nonempty): start at the lowest feasible position and prefer
    the rightward step."""
    pos = (masks[0] & -masks[0]).bit_length() - 1
    path = [pos]
    last = len(lengths) - 1
    for idx, step in enumerate(lengths):
        # a forced step lands on a feasible position, as the table was built
        # with it; a free one goes right if that is feasible, else left
        forced = first_dir if idx == 0 and first_dir is not None else last_dir if idx == last else None
        if forced is not None:
            pos += forced * step
        elif (masks[idx + 1] >> (pos + step)) & 1:
            pos += step
        else:
            pos -= step
        path.append(pos)
    return path


# ---------------------------------------------------------------------------
# Structure extraction: uncertainty runs and their attachments.


@dataclass
class Run:
    """Maximal run of same-type uncertainty subsegments of one curve."""

    curve: str
    kind: int
    first: int  # subsegment index range [first, last]
    last: int
    lengths: tuple[int, ...]
    # attachments: (frame, vertex value, forced_dir or None) or None per end
    attach_lo: Optional[tuple[int, int, Optional[int]]] = None
    attach_hi: Optional[tuple[int, int, Optional[int]]] = None


def _collect_runs(typed: TypedDiagram, anchoring: Anchoring, curve: str) -> list[Run]:
    """Maximal runs of unanchored subsegments, with attachment values taken
    from the neighboring anchored subsegments.

    An unanchored subsegment touches no partial cell, so its cells are all
    empty (far) or all full (close): a boundary piece has a partial slice
    at its midpoint, since a full slice next to an empty one fails the
    grid-line check. A far and a close piece are never adjacent, as the line
    of their shared vertex would be both empty and full, so each run has one
    kind; being maximal, a run ends at the curve's ends or at anchored
    subsegments.
    """
    segs = typed.p_segs if curve == "P" else typed.q_segs
    anchored = [(curve, k) in anchoring.frame_of for k in range(len(segs))]
    runs: list[Run] = []
    idx = 0
    while idx < len(segs):
        if anchored[idx]:
            idx += 1
            continue
        first = idx
        while idx < len(segs) and not anchored[idx]:
            idx += 1
        last = idx - 1
        run = Run(curve, segs[first].kind, first, last, tuple(s.length for s in segs[first : last + 1]))
        if first > 0:
            run.attach_lo = _attachment(typed, anchoring, curve, first - 1, first, end_hi=True)
        if last + 1 < len(segs):
            run.attach_hi = _attachment(typed, anchoring, curve, last + 1, last, end_hi=False)
        runs.append(run)
    return runs


def _attachment(typed, anchoring: Anchoring, curve: str, seg3: int, run_seg: int, end_hi: bool):
    """(frame, value, forced direction) of the vertex that anchored
    subsegment seg3 shares with the run; the direction is forced where the
    two pieces come from one original segment."""
    node = (curve, seg3)
    frame = anchoring.frame_of[node]
    start, sigma = anchoring.frames[frame][node]
    segs = typed.p_segs if curve == "P" else typed.q_segs
    value = start + sigma * segs[seg3].length if end_hi else start
    return frame, value, sigma if segs[seg3].orig == segs[run_seg].orig else None


# ---------------------------------------------------------------------------
# Exact search over the frame placement and the hull extremes, and assembly.


def _net_displacements(lengths: Sequence[int]) -> set[int]:
    """All signed sums of the segment lengths (walk net displacement): at
    most 2 * sum(lengths) + 1 values."""
    sums = {0}
    for length in lengths:
        sums = {s + length for s in sums} | {s - length for s in sums}
    return sums


def _frame_candidates(anchoring: Anchoring, runs: list[Run]):
    """Every placement tau + rho * value of frame 1 that meets the cross-frame
    equations and the net displacement of every run bridging the two frames.

    Each frame holds nodes of both curves, so both curves pass from one frame
    to the other, each through a cross-frame equation or a bridging run: the
    candidates are finite, and none means that rho admits no placement.
    """
    if len(anchoring.frames) <= 1:
        yield 1, 0
        return
    for rho in (1, -1):
        taus: Optional[set[int]] = None
        for fa, va, fb, vb in anchoring.cross_eqs:
            cand = {va - rho * vb if fa == 0 else vb - rho * va}
            taus = cand if taus is None else taus & cand
        for run in runs:
            if run.attach_lo is None or run.attach_hi is None or run.attach_lo[0] == run.attach_hi[0]:
                continue
            fa, va, _ = run.attach_lo
            _, vb, _ = run.attach_hi
            nets = _net_displacements(run.lengths)
            if fa == 0:
                cand = {va + net - rho * vb for net in nets}
            else:
                cand = {vb - net - rho * va for net in nets}
            taus = cand if taus is None else taus & cand
        for tau in sorted(taus):
            yield rho, tau


def _to_global(frame: int, value: int, direction: Optional[int], rho: int, tau: int):
    """A frame's position and direction (or None) in global coordinates:
    frame 0 is global, frame 1 is reflected by rho and translated by tau."""
    if frame == 0:
        return value, direction
    return tau + rho * value, None if direction is None else rho * direction


def decide_diagram(diagram: FreeSpaceDiagram1D, candidates) -> Optional[Witness]:
    """The first candidate that reproduces the diagram, or None: none past a
    failed grid-line check, the closed form's without a partial cell, else
    those that ``candidates(diagram)`` yields, in order."""
    if consistency_problems(diagram):
        return None  # no curve pair produces disagreeing boundary restrictions
    partial = any(diagram.scaled_intercepts)
    for witness in candidates(diagram) if partial else [closed_form_witness(diagram)]:
        if witness is not None and compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram:
            return witness
    return None


def solve_pseudo_poly(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """Decide realizability of a diagram of rational dimensions; returns a
    forward-verified witness or None. The search runs on the diagram's int
    form, so its tables are as wide as the scaled dimensions."""
    return decide_diagram(diagram, _candidates)


def _candidates(diagram: FreeSpaceDiagram1D):
    """The witness of each placement the search finds, in its order."""
    typed = subdivide_and_type(diagram)
    eps = diagram.scaled_eps

    graph = build_placement_graph(typed)
    if len(graph.non_singleton) > 2:
        return
    anchoring = anchor_components(typed, graph)
    if anchoring is None:
        return

    p_runs = _collect_runs(typed, anchoring, "P")
    q_runs = _collect_runs(typed, anchoring, "Q")
    for rho, tau in _frame_candidates(anchoring, p_runs + q_runs):
        anchored: dict[tuple[str, int], tuple[int, int]] = {}  # node -> global start and end of its piece
        for frame, placement in enumerate(anchoring.frames):
            for (curve, k), (start, sigma) in placement.items():
                start, sigma = _to_global(frame, start, sigma, rho, tau)
                anchored[curve, k] = start, start + sigma * (typed.p_segs if curve == "P" else typed.q_segs)[k].length
        for values in _hull_candidates(anchored, p_runs, q_runs, rho, tau, eps):
            curves = _attempt(typed, anchored, p_runs, q_runs, rho, tau, values, eps)
            if curves is not None:
                yield int_witness(diagram, *curves, diagram.scale)


def _hull_candidates(anchored, p_runs, q_runs, rho, tau, eps):
    """Values of the hull extremes LP, RP, LQ, RQ to try for one frame
    placement, each the anchored extent or outward of it (None: no run is
    checked against that extreme).

    A close subsegment of one curve never coexists with a far one of the
    other: the point (midpoint of the close piece, midpoint of the far piece)
    would be both white and black. So unless both curves have close runs,
    every extreme that a run is checked against is the other curve's
    anchored extent: one candidate suffices. Otherwise every run is close and
    hangs off an anchored vertex inside a window narrower than 2*eps, so each
    hull is narrower than 2*eps and holds its anchored extent. Close runs only fit
    more easily as their own hull grows and less easily as the other hull
    grows, so for each (LP, RP) only the minimal (LQ, RQ) at which Q's runs
    fit are tried. ``anchored`` holds the global ends of every anchored piece.
    """

    def extent(curve: str) -> tuple[int, int]:
        ends = [v for node, pair in anchored.items() if node[0] == curve for v in pair]
        return min(ends), max(ends)

    (lo_p, hi_p), (lo_q, hi_q) = extent("P"), extent("Q")

    if not (any(r.kind == TYPE_CLOSE for r in p_runs) and any(r.kind == TYPE_CLOSE for r in q_runs)):
        yield {
            "LP": lo_p if q_runs else None,
            "RP": hi_p if q_runs else None,
            "LQ": lo_q if p_runs else None,
            "RQ": hi_q if p_runs else None,
        }
        return

    lqs = range(lo_q, hi_q - 2 * eps, -1)
    rqs = range(hi_q, lo_q + 2 * eps)
    for lp in range(lo_p, hi_p - 2 * eps, -1):
        for rp in range(hi_p, lo_p + 2 * eps):
            if rp - lp >= 2 * eps:
                break  # Q's close runs need a window [rp - eps, lp + eps] of size >= 1

            def q_fits(lq: int, rq: int) -> bool:
                return all(_place_run(run, lp, rp, lq, rq, rho, tau, eps) is not None for run in q_runs)

            for lq, rq in _minimal_pairs(lqs, rqs, q_fits):
                yield {"LP": lp, "RP": rp, "LQ": lq, "RQ": rq}


def _minimal_pairs(lows, highs, fits):
    """The minimal pairs (low, high) with fits(low, high): those that no
    other fitting pair lies inside.

    ``lows`` descend and ``highs`` ascend, and fits only gains as low falls
    and high rises, so the least fitting high never rises from one low to
    the next: O(len(lows) + len(highs)) checks.
    """
    top = len(highs)  # index of the least high that fit the previous low; len: none did
    for low in lows:
        if top < len(highs):
            least = top
            while least > 0 and fits(low, highs[least - 1]):
                least -= 1
            if least == top:
                continue  # the pair at the previous low lies inside
            top = least
        elif highs and fits(low, highs[-1]):
            # upward from the anchored extent, so that a fit there stays cheap
            top = next(i for i, high in enumerate(highs) if fits(low, high))
        else:
            continue
        yield low, highs[top]


def _attempt(typed, anchored, p_runs, q_runs, rho, tau, values, eps) -> Optional[tuple[list[int], list[int]]]:
    """The original vertices of P and Q that the runs placed under these
    candidates and the anchored frames fix, or None.

    Each curve is read straight off its pieces' (start, end) pairs, since two
    pieces never disagree at the vertex they share: a run's path starts and
    ends at its attachments' global values (:func:`_run_path` fixes them),
    two consecutive pieces of one frame meet (:func:`anchor_components`
    checks it), and every tau meets every cross-frame equation
    (:func:`_frame_candidates` intersects them). No piece is flat: each has
    positive length, and a path step or a frame moves by it. Once the pieces
    of each original segment run one way, its ends differ by its width."""
    lp, rp = values["LP"], values["RP"]
    lq, rq = values["LQ"], values["RQ"]
    ends = dict(anchored)  # the runs add their pieces

    for runs, other_lo, other_hi, own_lo, own_hi in (
        (q_runs, lp, rp, lq, rq),
        (p_runs, lq, rq, lp, rp),
    ):
        for run in runs:
            path = _place_run(run, other_lo, other_hi, own_lo, own_hi, rho, tau, eps)
            if path is None:
                return None
            for off, idx in enumerate(range(run.first, run.last + 1)):
                ends[(run.curve, idx)] = path[off], path[off + 1]

    curves = {}
    for curve, segs in (("P", typed.p_segs), ("Q", typed.q_segs)):
        pairs = [ends[curve, k] for k in range(len(segs))]
        # orientation must not change at subdivision vertices: two anchored
        # pieces of one segment in different frames can disagree under rho
        rising = [end > start for start, end in pairs]
        for k in range(len(segs) - 1):
            if segs[k].orig == segs[k + 1].orig and rising[k] != rising[k + 1]:
                return None
        # keep original vertices only: P's or Q's start, then the end of each segment's last piece
        curves[curve] = [pairs[0][0]] + [
            pairs[k][1] for k in range(len(segs)) if k + 1 == len(segs) or segs[k].orig != segs[k + 1].orig
        ]
    return curves["P"], curves["Q"]


def _place_run(
    run: Run,
    other_lo: int,
    other_hi: int,
    own_lo: Optional[int],
    own_hi: Optional[int],
    rho,
    tau,
    eps,
) -> Optional[list[int]]:
    """Concrete vertex positions for an uncertainty run under candidate
    extreme values (other curve's extremes define the region; the run's own
    declared extremes bound middle runs so the two middles stay mutually
    within eps).

    A far run lies on the side of its first attachment: left of the band
    [other_lo - eps, other_hi + eps] if that attachment is at or beyond its
    left end, else right of it (right too when the run has no attachment).
    An attachment inside the band, or one on the other side, then sits at a
    negative region coordinate, where :func:`fixed_boundary_dp` admits no
    position, so such a run gets no path."""
    att_lo, att_hi = (None if att is None else _to_global(*att, rho, tau) for att in (run.attach_lo, run.attach_hi))

    if run.kind == TYPE_FAR:
        left_b = other_lo - eps
        att = att_lo or att_hi
        if att is not None and att[0] <= left_b:
            return _run_path(run, att_lo, att_hi, left_b, -1, None)
        return _run_path(run, att_lo, att_hi, other_hi + eps, 1, None)

    # middle run: confined to [other_hi - eps, other_lo + eps], intersected
    # with the run's own declared hull
    lo_val = other_hi - eps
    hi_val = other_lo + eps
    if own_lo is not None and own_lo > lo_val:
        lo_val = own_lo
    if own_hi is not None and own_hi < hi_val:
        hi_val = own_hi
    r_size = hi_val - lo_val
    if r_size < 1:
        return None
    return _run_path(run, att_lo, att_hi, lo_val, 1, r_size)


def _run_path(run: Run, att_lo, att_hi, base: int, flip: int, bound: Optional[int]) -> Optional[list[int]]:
    """Solve one run in region coordinates pos = flip * (value - base): a far
    run (bound None) beyond the eps boundary at 0, a middle run in the closed
    window [0, bound]; see :func:`fixed_boundary_dp`."""
    start = end = first_dir = last_dir = None
    if att_lo is not None:
        start = flip * (att_lo[0] - base)
        if att_lo[1] is not None:
            first_dir = att_lo[1] * flip
    if att_hi is not None:
        end = flip * (att_hi[0] - base)
        if att_hi[1] is not None:
            last_dir = att_hi[1] * flip
    masks = fixed_boundary_dp(run.lengths, bound, start, end, first_dir, last_dir)
    if not masks[0]:
        return None
    return [base + flip * p for p in dp_extract_path(masks, run.lengths, first_dir, last_dir)]


def int_witness(diagram: FreeSpaceDiagram1D, p_pts, q_pts, scale: int) -> Witness:
    """The unchecked witness whose vertices are these ints over ``scale``."""
    return Witness._built(Curve1D.from_scaled(scale, p_pts), Curve1D.from_scaled(scale, q_pts), diagram.epsilon)


def _smallest_window(lengths: Sequence[int], limit: int) -> Optional[tuple[int, list[int]]]:
    """The smallest closed window [0, a], a <= limit, holding a walk with
    these steps, and the walk :func:`dp_extract_path` takes in it: the lowest
    start, then the rightward step wherever the rest still fits. ``fronts[i]``
    holds the least pairs (down, up) of room that the walk from vertex i
    needs below and above it: at most min(2^(n-i), sum(lengths) + 1) pairs,
    so neither the magnitudes nor eps make the search slow."""
    fronts = [[(0, 0)]]
    for step in reversed(lengths):
        rooms = {(max(0, down - step), up + step) for down, up in fronts[-1]}
        rooms |= {(down + step, max(0, up - step)) for down, up in fronts[-1]}
        front = []
        for down, up in sorted(rooms):
            if not front or up < front[-1][1]:
                front.append((down, up))
        fronts.append(front)
    fronts.reverse()
    a = min(down + up for down, up in fronts[0])
    if a > limit:
        return None
    path = [min(down for down, up in fronts[0] if down + up == a)]
    for step, front in zip(lengths, fronts[1:]):
        pos = path[-1]
        path.append(next(t for t in (pos + step, pos - step) if any(d <= t and u <= a - t for d, u in front)))
    return a, path


def closed_form_witness(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """The unchecked candidate for a diagram without partial cells, or None.

    A consistent one is all empty or all full, since a full cell next to an
    empty one fails the grid-line check; its first cell picks the case. All
    empty: both curves run rightward, Q starting more than 2*eps beyond P's
    end (one unit more). All full: every point of each curve lies within
    eps of every point of the other iff the curves fit in windows of sizes
    a_p + a_q <= 2*eps centred on each other, so the smallest window of each
    curve decides; the centring shifts Q by (a_p - a_q) / 2, so the witness
    counts halves.
    """
    scale, eps = diagram.scale, diagram.scaled_eps
    widths, heights = diagram.scaled_widths, diagram.scaled_heights
    if diagram.columns[0][0] == "e":
        p_pts = list(accumulate(widths, initial=0))
        q0 = p_pts[-1] + sum(heights) + 2 * eps + scale
        return int_witness(diagram, p_pts, accumulate(heights, initial=q0), scale)
    found_p = _smallest_window(widths, 2 * eps - 1)
    if found_p is None:
        return None
    a_p, path_p = found_p
    found_q = _smallest_window(heights, 2 * eps - a_p)
    if found_q is None:
        return None
    a_q, path_q = found_q
    return int_witness(diagram, [2 * v for v in path_p], [2 * v + a_p - a_q for v in path_q], 2 * scale)
