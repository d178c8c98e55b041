"""Pseudo-polynomial solver for 1D free space diagrams.

Each segment of P and Q is typed by its letters: far if all its cells are
empty, close if all are full, and boundary if it has a partial cell. The
paper subdivides segments where their slice type changes; on a diagram that
passes the grid-line check that decides nothing (see
:func:`subdivide_and_type`), so the segments are the diagram's own.
The partial cells, the edges of the placement graph, anchor boundary
segments in rigid frames, one per component of the placement graph (at most
two; the second floats with an unknown reflection rho and translation tau).
Each frame is checked against the diagram's own cells with the forward
computation's cell test, one column per placed segment of P. The far and
close segments left between anchored ones form runs, placed by boolean
reachability tables over integer positions in the region that the hulls of
the two curves leave them: beyond the eps boundary for a far run, open at
that boundary, and a closed window for a close (middle) run, since full
cells are closed conditions. A
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
from typing import Optional, Sequence

from .model import (
    PARTIAL,
    CellContent,
    Curve1D,
    FreeSpaceDiagram1D,
    Witness,
    column_cells,
    consistency_problems,
    structural_problems,  # noqa: F401  not called: bench/tracing.py patches this name
)
from .forward import classify_column, compute_diagram_1d

TYPE_FAR = 1
TYPE_CLOSE = 2
TYPE_BOUNDARY = 3

# a cell from its fields, without the named tuple's Python-level __new__
_cell = partial(tuple.__new__, CellContent)


@dataclass
class TypedDiagram:
    diagram: FreeSpaceDiagram1D
    p_kinds: list[int]  # TYPE_FAR / TYPE_CLOSE / TYPE_BOUNDARY of each segment of P
    q_kinds: list[int]
    partial: dict[tuple[int, int], CellContent]  # (i, j) -> the partial cell of column i, row j


def _kind(letters: str) -> int:
    """A segment's type from its cells' letters: far if all empty, close if
    all full, else boundary."""
    return TYPE_FAR if not letters.strip("e") else TYPE_CLOSE if not letters.strip("f") else TYPE_BOUNDARY


def subdivide_and_type(diagram: FreeSpaceDiagram1D) -> TypedDiagram:
    """Type every segment of P and Q by its letters, and keep the partial
    cells. The name is older than this body, which subdivides nothing:
    bench/tracing.py patches the stage under it (ROADMAP item 1).

    The paper subdivides a segment wherever its slice type changes. On a
    diagram that passes the grid-line check that is never needed. A segment
    without a partial letter is all empty or all full, since a full cell
    next to an empty one fails that check: it is one far or one close piece.
    Every other segment has a partial cell, so it is a node of the placement
    graph, and an anchored piece fixes its whole segment: its frame fixes
    all of its pieces, whatever their types."""
    columns, intercepts = diagram.columns, diagram.scaled_intercepts
    cells: dict[tuple[int, int], CellContent] = {}
    for i, (col, ints) in enumerate(zip(columns, intercepts)):
        if ints:
            rows = [j for j, ch in enumerate(col) if ch in "pn"]
            for j, lo, hi in zip(rows, ints[::2], ints[1::2]):
                cells[i, j] = _cell((PARTIAL, 1 if col[j] == "p" else -1, lo, hi))
    p_kinds = [_kind(col) for col in columns]
    q_kinds = [_kind(row) for row in map("".join, zip(*columns))]
    return TypedDiagram(diagram, p_kinds, q_kinds, cells)


@dataclass
class PlacementGraph:
    """Bipartite graph on segments; an edge marks a partial cell."""

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
    """Relative placements of the segments that touch a partial cell, one
    rigid frame per non-singleton component; frame 1 (if present) floats with
    an unknown translation and reflection resolved during the search."""

    frames: list[dict[tuple[str, int], tuple[int, int]]]  # node -> (start, sigma)
    frame_of: dict[tuple[str, int], int]
    cross_eqs: list[tuple[int, int, int, int]]  # (frame_a, value_a, frame_b, value_b)


def anchor_components(typed: TypedDiagram, graph: PlacementGraph) -> Optional[Anchoring]:
    """Propagate relative positions over partial cells within each component,
    check each frame against the diagram's cells with
    :func:`fsreal.forward.classify_column`, then bind consecutive anchored
    segments of the same curve: a shared vertex within a frame, a
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

    # Each placed segment of P must give the diagram's cells with the
    # frame's placed segments of Q. A witness that decide_diagram returns
    # places its segments where the frame does (up to rho and tau, which keep
    # every cell) and reproduces the diagram, so every anchoring that leads
    # to a YES passes.
    widths, heights = diagram.scaled_widths, diagram.scaled_heights
    for placement in frames:
        q_placed = sorted((j, start, sigma) for (curve, j), (start, sigma) in placement.items() if curve == "Q")
        q_segs = [(sigma == 1, start, heights[j]) for j, start, sigma in q_placed]
        rows = [j for j, _, _ in q_placed]
        whole = len(rows) == len(heights)  # every segment of Q placed: compare whole columns
        for (curve, i), (start, sigma) in placement.items():
            if curve != "P":
                continue
            column = diagram.columns[i], diagram.scaled_intercepts[i]
            if not whole:  # the column at the placed rows
                cells = column_cells(*column)
                column = "".join([cells[j][0] for j in rows]), tuple([v for j in rows for v in cells[j][1]])
            if classify_column(start, start + sigma * widths[i], q_segs, eps) != column:
                return None

    cross: list[tuple[int, int, int, int]] = []
    for curve, lengths in (("P", widths), ("Q", heights)):
        for k in range(len(lengths) - 1):
            a, b = (curve, k), (curve, k + 1)
            fa, fb = frame_of.get(a), frame_of.get(b)
            if fa is None or fb is None:
                continue  # a run starts or ends here
            sa, ga = frames[fa][a]
            end_a = sa + ga * lengths[k]
            sb, _ = frames[fb][b]
            if fa == fb:
                if end_a != sb:
                    return None
            else:
                cross.append((fa, end_a, fb, sb))
    return Anchoring(frames, frame_of, cross)


# ---------------------------------------------------------------------------
# Reachability tables over integer positions (boolean, bitmask encoded).


def fixed_boundary_dp(
    lengths: Sequence[int],
    bound: Optional[int],
    start: Optional[int] = None,
    end: Optional[int] = 0,
) -> list[int]:
    """Reachability of a subcurve over the integer positions of a region.

    The region is either far, ``bound=None``: unbounded and open at the eps
    boundary 0, so a free vertex lies at 1, 2, ...; or a middle window, the
    closed interval [0, bound], since full cells are closed conditions.
    Positions are capped at ``sum(lengths) + max(start, end)`` (and at bound).
    ``start``/``end`` fix the first/last vertex to a position (None: free).

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
        masks[idx] = (nxt >> step | (nxt << step) & full) & (guard(start) if idx == 0 else region)
    return masks


def dp_extract_path(masks: list[int], lengths: Sequence[int]) -> list[int]:
    """Vertex positions of one embedding from the tables of
    :func:`fixed_boundary_dp` (called with the same lengths, ``masks[0]``
    nonempty): start at the lowest feasible position and prefer the
    rightward step."""
    pos = (masks[0] & -masks[0]).bit_length() - 1
    path = [pos]
    for idx, step in enumerate(lengths):
        pos += step if (masks[idx + 1] >> (pos + step)) & 1 else -step
        path.append(pos)
    return path


# ---------------------------------------------------------------------------
# Structure extraction: uncertainty runs and their attachments.


@dataclass
class Run:
    """Maximal run of unanchored segments of one curve."""

    curve: str
    kind: int
    first: int  # segment index range [first, last]
    last: int
    lengths: tuple[int, ...]
    # attachments: (frame, vertex value) or None per end
    attach_lo: Optional[tuple[int, int]] = None
    attach_hi: Optional[tuple[int, int]] = None


def _collect_runs(typed: TypedDiagram, anchoring: Anchoring, curve: str) -> list[Run]:
    """Maximal runs of unanchored segments, attached at the vertices they
    share with the neighbouring anchored segments.

    An unanchored segment has no partial letter, so it is far or close
    (:func:`subdivide_and_type`). A far and a close segment are never
    adjacent, as the line of their shared vertex would be both empty and
    full, so each run has one kind; being maximal, a run ends at the curve's
    ends or at anchored segments.
    """
    diagram = typed.diagram
    kinds, lengths = (typed.p_kinds, diagram.scaled_widths) if curve == "P" else (typed.q_kinds, diagram.scaled_heights)
    frame_of, frames = anchoring.frame_of, anchoring.frames
    runs: list[Run] = []
    idx, n = 0, len(kinds)
    while idx < n:
        if (curve, idx) in frame_of:
            idx += 1
            continue
        first = idx
        while idx < n and (curve, idx) not in frame_of:
            idx += 1
        run = Run(curve, kinds[first], first, idx - 1, tuple(lengths[first:idx]))
        if first > 0:  # the end of the anchored segment before the run
            frame = frame_of[curve, first - 1]
            start, sigma = frames[frame][curve, first - 1]
            run.attach_lo = frame, start + sigma * lengths[first - 1]
        if idx < n:  # the start of the anchored segment after it
            frame = frame_of[curve, idx]
            run.attach_hi = frame, frames[frame][curve, idx][0]
        runs.append(run)
    return runs


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
            fa, va = run.attach_lo
            vb = run.attach_hi[1]
            nets = _net_displacements(run.lengths)
            if fa == 0:
                cand = {va + net - rho * vb for net in nets}
            else:
                cand = {vb - net - rho * va for net in nets}
            taus = cand if taus is None else taus & cand
        for tau in sorted(taus):
            yield rho, tau


def _to_global(frame: int, value: int, rho: int, tau: int) -> int:
    """A frame's position in global coordinates: frame 0 is global, frame 1
    is reflected by rho and translated by tau."""
    return value if frame == 0 else tau + rho * value


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
    lengths = {"P": diagram.scaled_widths, "Q": diagram.scaled_heights}
    for rho, tau in _frame_candidates(anchoring, p_runs + q_runs):
        anchored: dict[tuple[str, int], tuple[int, int]] = {}  # node -> global start and end of its segment
        for frame, placement in enumerate(anchoring.frames):
            for (curve, k), (start, sigma) in placement.items():
                end = start + sigma * lengths[curve][k]
                anchored[curve, k] = _to_global(frame, start, rho, tau), _to_global(frame, end, rho, tau)
        for values in _hull_candidates(anchored, p_runs, q_runs, rho, tau, eps):
            curves = _attempt(typed, anchored, p_runs, q_runs, rho, tau, values, eps)
            if curves is not None:
                yield int_witness(diagram, *curves, diagram.scale)


def _hull_candidates(anchored, p_runs, q_runs, rho, tau, eps):
    """Values of the hull extremes LP, RP, LQ, RQ to try for one frame
    placement, each the anchored extent or outward of it (None: no run is
    checked against that extreme).

    A close segment of one curve never coexists with a far one of the other:
    the point (midpoint of the close one, midpoint of the far one) would be
    both white and black. So unless both curves have close runs,
    every extreme that a run is checked against is the other curve's
    anchored extent: one candidate suffices. Otherwise every run is close and
    hangs off an anchored vertex inside a window narrower than 2*eps, so each
    hull is narrower than 2*eps and holds its anchored extent. Close runs only fit
    more easily as their own hull grows and less easily as the other hull
    grows, so for each (LP, RP) only the minimal (LQ, RQ) at which Q's runs
    fit are tried. ``anchored`` holds the global ends of every anchored segment.
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
    """The vertices of P and Q that the runs placed under these candidates
    and the anchored frames fix, or None.

    Each curve is read straight off its segments' (start, end) pairs, since
    two segments never disagree at the vertex they share: a run's path
    starts and ends at its attachments' global values (:func:`_run_path`
    fixes them), two consecutive segments of one frame meet
    (:func:`anchor_components` checks it), and every tau meets every
    cross-frame equation (:func:`_frame_candidates` intersects them)."""
    lp, rp = values["LP"], values["RP"]
    lq, rq = values["LQ"], values["RQ"]
    ends = dict(anchored)  # the runs add their segments

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

    p_n, q_n = len(typed.p_kinds), len(typed.q_kinds)
    p_pts = [ends["P", 0][0]] + [ends["P", k][1] for k in range(p_n)]
    return p_pts, [ends["Q", 0][0]] + [ends["Q", k][1] for k in range(q_n)]


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
        att = att_hi if att_lo is None else att_lo
        if att is not None and att <= left_b:
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
    start = None if att_lo is None else flip * (att_lo - base)
    end = None if att_hi is None else flip * (att_hi - base)
    masks = fixed_boundary_dp(run.lengths, bound, start, end)
    if not masks[0]:
        return None
    return [base + flip * p for p in dp_extract_path(masks, run.lengths)]


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
