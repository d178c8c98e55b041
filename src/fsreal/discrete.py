"""Polynomial-time realizability of a free space matrix by curves on the line.

The solver decides the twin quotient of the matrix: each distinct row and
each distinct column kept once, in order of first occurrence. Twins share a
value in the witness: every row takes the P value of its quotient row and
every column the Q value of its quotient column. This is sound and complete,
since the quotient is a submatrix of the matrix, and giving a twin column
the Q value of its representative makes the two columns equal, as they are
in the matrix (rows likewise). A twin-free matrix is its own quotient.
The quotient is found by writing the distinct rows as one table of
characters '0'/'1', whose strided slices are the columns.

Pipeline per connected component of the quotient's derived unit-interval
graph: anchored BFS ordering, two order refinements, a greedy unit-interval
arrangement, and verification that every row's prescribed cell exists.
Every YES answer carries a witness that reproduces the caller's matrix
exactly.

Every set of columns, from the adjacency of the graph through the row
refinements to the blocks of the linear extension, is a Python int mask
(bit v is column v). The geometry runs on Python ints too: a component of m
columns is laid out at eps = 1/2 on the grid of unit 1/(8m), where the
interval width 2*eps is 8m, eps is 4m and the spacing quantum eps/(2m) is
2. :func:`solve` lays all components out on one int grid whose unit divides
every component's, and builds the witness's point sequences from those ints
in their int form, without a Fraction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Optional, Sequence

from .model import FreeSpaceMatrix, PointSeq1D, Witness, checked_epsilon
from .forward import compute_matrix


class UnitIntervalGraph:
    """Columns of the matrix as vertices; rows contribute cliques.

    ``adj[v]`` is the int mask of v's neighbors and ``row_masks[r]`` the int
    mask of row r's 1 columns.
    """

    __slots__ = ("m", "adj", "row_masks")

    def __init__(self, m: int, adj: list[int], row_masks: list[int]):
        self.m = m
        self.adj = adj
        self.row_masks = row_masks

    def closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def components(self) -> list[list[int]]:
        seen = 0
        comps = []
        for v in range(self.m):
            if seen >> v & 1:
                continue
            frontier = 1 << v
            comp = frontier
            while frontier:
                nxt = 0
                u = frontier
                while u:
                    w = (u & -u).bit_length() - 1
                    nxt |= self.adj[w]
                    u &= u - 1
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            comps.append(_mask_bits(comp))
        return comps


def _mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


def twin_quotient(matrix: FreeSpaceMatrix) -> tuple[FreeSpaceMatrix, list[int], list[int]]:
    """The matrix with equal rows merged and equal columns merged, each kept
    once in order of first occurrence; and ``row_class``, ``col_class``, the
    quotient row of each row and the quotient column of each column.

    The t distinct rows are written once, one after another, as a table of
    m characters '0'/'1' each, column v at place v (as
    :meth:`FreeSpaceMatrix.tolist` formats a row). Column v over the
    distinct rows is then the strided slice ``table[v::m]``, so two columns
    are twins iff their slices are equal; the quotient rows are read back by
    the stride t over the distinct slices joined. The work is string copies
    of O(t * m) characters, and the table holds one byte per (distinct row,
    column) cell. The conversions are base 2, which CPython's limit on
    int/str digits does not cover."""
    row_index: dict[int, int] = {}
    row_class = [row_index.setdefault(r, len(row_index)) for r in matrix.row_masks]
    m, t = matrix.m_cols, len(row_index)
    table = "".join([format(r, "b").zfill(m)[::-1] for r in row_index])
    col_index: dict[str, int] = {}
    col_class = [col_index.setdefault(table[v::m], len(col_index)) for v in range(m)]
    cols = "".join(col_index)
    rows = [int(cols[r::t][::-1], 2) for r in range(t)]
    return FreeSpaceMatrix._built(len(col_index), rows), row_class, col_class


def build_uig(matrix: FreeSpaceMatrix) -> UnitIntervalGraph:
    """Abstract unit-interval graph: an edge joins two columns that share a
    row with both entries 1."""
    m = matrix.m_cols
    row_masks = matrix.row_masks
    adj = [0] * m
    for rm in row_masks:
        u = rm
        while u:
            v = (u & -u).bit_length() - 1
            adj[v] |= rm
            u &= u - 1
    for v in range(m):
        adj[v] &= ~(1 << v)
    return UnitIntervalGraph(m, adj, row_masks)


def _prefix_masks(order: Sequence[int]) -> list[int]:
    """``prefix[k]`` is the mask of the first k vertices of ``order``."""
    prefix = [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << v)
    return prefix


class OrderState:
    """Ordering knowledge accumulated over the pipeline for one component."""

    def __init__(self, vertices: list[int], level: dict[int, int]):
        self.vertices = vertices
        self.level = level
        self.d_value: dict[int, int] = {}
        self.classes: list[list[int]] = []
        self.class_of: dict[int, int] = {}
        # row refinements: per class, (subset mask, 'left'|'right') records
        self.constraints: dict[int, list[tuple[int, str]]] = {}
        # rows supported entirely inside one class: such a cell exists only when
        # the subset sits at a free end of the class (prefix of the first class /
        # suffix of the last); these are resolved in extend_global_order
        self.within_rows: dict[int, list[int]] = {}


def _bfs_levels(g: UnitIntervalGraph, sources: Sequence[int], base: int) -> dict[int, int]:
    level = {v: base for v in sources}
    frontier = 0
    for v in sources:
        frontier |= 1 << v
    seen = frontier
    depth = base
    while frontier:
        depth += 1
        nxt = 0
        u = frontier
        while u:
            w = (u & -u).bit_length() - 1
            nxt |= g.adj[w]
            u &= u - 1
        frontier = nxt & ~seen
        seen |= frontier
        u = frontier
        while u:
            w = (u & -u).bit_length() - 1
            level[w] = depth
            u &= u - 1
    return level


def choose_left_anchor(g: UnitIntervalGraph, component: Sequence[int], start: Optional[int] = None) -> list[list[int]]:
    """Anchor candidates partitioned into indistinguishability classes.

    BFS from ``start`` (default: smallest vertex); candidates are the
    minimum-degree vertices of the deepest level, grouped by closed
    neighborhood. More than two groups means the graph is not a unit
    interval graph; the virtual anchor attaches to one returned class.
    """
    comp = sorted(component)
    if start is None:
        start = comp[0]
    level = _bfs_levels(g, [start], 0)
    deepest = max(level[v] for v in comp)
    last = [v for v in comp if level[v] == deepest]
    min_deg = min(g.degree(v) for v in last)
    candidates = [v for v in last if g.degree(v) == min_deg]
    groups: dict[int, list[int]] = {}
    for v in candidates:
        groups.setdefault(g.closed(v), []).append(v)
    return [sorted(grp) for _, grp in sorted(groups.items(), key=lambda kv: kv[1][0])]


def bfs_partial_order(g: UnitIntervalGraph, anchor_class: Sequence[int]) -> OrderState:
    """Levels of a BFS rooted at the virtual anchor vertex attached to the
    chosen class (the class itself is level 1)."""
    level = _bfs_levels(g, list(anchor_class), 1)
    vertices = sorted(level)
    return OrderState(vertices=vertices, level=level)


def refine_by_d(g: UnitIntervalGraph, state: OrderState) -> OrderState:
    """Within-level order by D(v) = |Next(v)| - |Prev(v)|; equal-D vertices of
    one level stay incomparable and form the equivalence classes."""
    level_masks: dict[int, int] = {}
    for v in state.vertices:
        level_masks.setdefault(state.level[v], 0)
        level_masks[state.level[v]] |= 1 << v
    for v in state.vertices:
        lev = state.level[v]
        nxt = (g.adj[v] & level_masks.get(lev + 1, 0)).bit_count()
        prv = (g.adj[v] & level_masks.get(lev - 1, 0)).bit_count()
        state.d_value[v] = nxt - prv
    groups: dict[tuple[int, int], list[int]] = {}
    for v in state.vertices:
        groups.setdefault((state.level[v], state.d_value[v]), []).append(v)
    state.classes = [sorted(groups[key]) for key in sorted(groups)]
    state.class_of = {v: idx for idx, cls in enumerate(state.classes) for v in cls}
    state.constraints = {}
    return state


def refine_by_rows(state: OrderState, rows: Sequence[int]) -> Optional[OrderState]:
    """Pull each row's class members toward the row's outside members.

    For a row with support I and a class C with proper nonempty C' = C & I:
    an outside member of I ordered before (after) C pulls C' before (after)
    C \\ C'. A row demanding both directions at once is a contradiction; a
    row that meets no class but C is recorded as a within-class row.
    Classes are sorted by (level, D), so a class's index is its place in
    that order.

    The work per row is bounded by the classes it cuts: a singleton class is
    never cut, so only ``row & multi`` is scanned, ``multi`` being the union
    of the classes of two or more members; the side of a cut class is two
    ANDs of the row with the members ordered before and after the class.
    """
    class_masks = [sum(1 << v for v in cls) for cls in state.classes]
    prefix = [0]
    multi = 0
    for cls, mask in zip(state.classes, class_masks):
        prefix.append(prefix[-1] | mask)
        if len(cls) > 1:
            multi |= mask
    everything = prefix[-1]
    for row in rows:
        # the classes of two or more members that the row meets, in order of
        # the row's lowest column in each
        u = row & multi
        while u:
            idx = state.class_of[(u & -u).bit_length() - 1]
            sub = row & class_masks[idx]
            u &= ~sub
            if sub == class_masks[idx]:
                continue
            before = row & prefix[idx]
            after = row & (everything ^ prefix[idx + 1])
            if before and after:
                return None
            if before:
                state.constraints.setdefault(idx, []).append((sub, "left"))
            elif after:
                state.constraints.setdefault(idx, []).append((sub, "right"))
            else:
                state.within_rows.setdefault(idx, []).append(sub)
    return state


def _within_sides(sets: list[int], first: bool, last: bool) -> Optional[list[tuple[int, str]]]:
    """Assign within-class row subsets to the class's free end: the left end
    of the first class, the right end of the last; None for a class flanked
    by its own neighbors on both sides. The sets at one end must form a
    containment chain, which :func:`extend_global_order` checks.

    No class with subsets is both first and last. Such a class would be its
    component's only class, the anchor class, which
    :func:`choose_left_anchor` takes from the deepest BFS level from the
    component's least vertex: it is the whole component only for a
    one-vertex component, whose class has no proper subset."""
    uniq = sorted(set(sets), key=lambda msk: (msk.bit_count(), msk))
    if not uniq:
        return []
    if not first and not last:
        return None
    side = "left" if first else "right"
    return [(s, side) for s in uniq]


def extend_global_order(state: OrderState) -> Optional[list[int]]:
    """Linear extension of levels, D order, and row refinements; ties broken
    by ascending column index. Returns None when the refinements conflict.

    Each rule (sub, side) names a proper nonempty subset of its class, so it
    holds iff sub is the class's first (``left``) or last (``right``)
    sub.bit_count() vertices of the order.

    The work is bounded by the classes that have rules: a class without one
    (every singleton class, as no rule names a proper subset of it) is
    appended as it is, ascending already."""
    order: list[int] = []
    n_classes = len(state.classes)
    for idx, cls in enumerate(state.classes):
        extra = _within_sides(state.within_rows.get(idx, []), idx == 0, idx == n_classes - 1)
        if extra is None:
            return None
        rules = state.constraints.get(idx, []) + extra
        if not rules:
            order.extend(cls)
            continue
        blocks = [sum(1 << v for v in cls)]
        for sub, side in rules:
            new_blocks: list[int] = []
            for blk in blocks:
                inside, outside = blk & sub, blk & ~sub
                if inside and outside:
                    new_blocks.extend((inside, outside) if side == "left" else (outside, inside))
                else:
                    new_blocks.append(blk)
            blocks = new_blocks
        flat = [v for blk in blocks for v in _mask_bits(blk)]
        prefix = _prefix_masks(flat)
        for sub, side in rules:
            k = sub.bit_count()
            held = prefix[k] == sub if side == "left" else prefix[-1] ^ prefix[-1 - k] == sub
            if not held:
                return None
        order.extend(flat)
    return order


def build_arrangement(order: Sequence[int], g: UnitIntervalGraph) -> Optional[dict[int, int]]:
    """Interval centers realizing a total order, on the component's grid.

    The order is valid only if every vertex's later neighbors form a
    contiguous block and the blocks are monotone; the centers then come from
    the merged endpoint sequence (left endpoints in order, each right
    endpoint after its last neighbor's left endpoint), solved exactly with
    spacing quantum 2 between consecutive endpoints. Centers are ints in
    units of 1/(8m) for a component of m columns: at eps = 1/2 the interval
    width 2*eps is 8m and the quantum eps/(2m) is 2, so every endpoint is
    even.
    """
    m = len(order)
    prefix = _prefix_masks(order)
    last = [0] * m
    for k, v in enumerate(order):
        later = g.adj[v] & (prefix[m] ^ prefix[k + 1])
        cnt = later.bit_count()
        last[k] = k + cnt
        if cnt:
            block = prefix[k + 1 + cnt] ^ prefix[k + 1]
            if later != block:
                return None  # later neighbors are not contiguous
        if k > 0 and last[k] < last[k - 1]:
            return None  # equal lengths force monotone right endpoints
    # merged endpoint chain: after l_j come the right endpoints r_i with
    # last(i) = j, ordered by i; each event is (interval, offset of the
    # endpoint from the interval's left end)
    width = 8 * m
    by_slot: dict[int, list[int]] = {}
    for i, c in enumerate(last):
        by_slot.setdefault(c, []).append(i)
    events: list[tuple[int, int]] = []
    for j in range(m):
        events.append((j, 0))
        events.extend((i, width) for i in by_slot.get(j, ()))

    # Each sweep raises every endpoint to at least 2 past the one before it;
    # a sweep that changes nothing leaves every gap at least 2. The sweeps
    # settle: after the two checks above, left ends and right ends both run
    # in index order along the chain, each right end after its own left end,
    # at most 2m - 1 chain steps, so the gaps need at most 4m - 2 of the
    # width 8m. Every cycle of the constraints (+2 per chain step forward,
    # -8m from a right end back to its left end) is then negative, and a
    # longest path takes each interval's back link at most once: the sweeps
    # settle within m + 2 <= 2m + 1 passes. The bound stays so that no loop
    # can hang, and the forward check in :func:`solve` guards the witness.
    left = [0] * m
    for _ in range(2 * m + 1):
        changed = False
        prev = None
        for idx, off in events:
            val = left[idx] + off
            if prev is not None and val < prev + 2:
                val = prev + 2
                left[idx] = val - off
                changed = True
            prev = val
        if not changed:
            break
    # gauge: the first center, the leftmost (left ends increase along the
    # chain), sits at 0
    return {order[k]: left[k] - left[0] for k in range(m)}


def verify_and_witness(positions: dict[int, int], rows: Sequence[int]) -> Optional[dict[int, int]]:
    """Map each row to a point of an arrangement cell covering exactly the
    row's columns. ``positions`` are the int centers of
    :func:`build_arrangement` (unit 1/(8m), so eps is 4m); the points are
    ints on the same grid, cell endpoints or midpoints of consecutive
    endpoints (exact, as endpoints are even). ``rows`` are nonempty column
    masks: the caller places empty rows in the global outside cell. Returns
    {row index: point}, or None if some prescribed cell does not exist."""
    eps = 4 * len(positions)
    cols = sorted(positions, key=lambda v: (positions[v], v))
    centers = [positions[v] for v in cols]
    prefix = _prefix_masks(cols)
    events = sorted({c - eps for c in centers} | {c + eps for c in centers})
    reps: list[int] = []
    for idx, x in enumerate(events):
        reps.append(x)
        if idx + 1 < len(events):
            reps.append((x + events[idx + 1]) // 2)
    # a cell covers the centers within eps of its points, a run of columns
    # in center order; key each cell by its column mask
    cell_rep: dict[int, int] = {}
    for x in reps:
        lo = bisect_left(centers, x - eps)
        hi = bisect_right(centers, x + eps)
        if lo < hi:
            cell_rep.setdefault(prefix[hi] ^ prefix[lo], x)
    out: dict[int, int] = {}
    for r_idx, row in enumerate(rows):
        rep = cell_rep.get(row)
        if rep is None:
            return None
        out[r_idx] = rep
    return out


def _solve_component(g: UnitIntervalGraph, component: list[int], comp_rows: list[tuple[int, int]]):
    """Run steps 2-7 on one component, retrying the second anchor class on
    failure. ``comp_rows`` are the (row index, mask) pairs of the nonempty
    rows inside the component. Returns (positions, row placements) as ints
    on the component's grid (unit 1/(8m)), or None."""
    classes = choose_left_anchor(g, component)
    if len(classes) > 2:
        return None
    # Prescribed cells can distinguish indistinguishable candidates, making
    # the anchor attachment load-bearing; besides attaching to a whole class
    # (the default), retry anchored on each single candidate.
    attempts: list[list[int]] = []
    for cls in classes:
        attempts.append(cls)
        if len(cls) > 1:
            attempts.extend([v] for v in cls)
    masks = [r for _, r in comp_rows]
    for anchor_class in attempts:
        state = bfs_partial_order(g, anchor_class)
        refine_by_d(g, state)
        if refine_by_rows(state, masks) is None:
            continue
        order = extend_global_order(state)
        if order is None:
            continue
        positions = build_arrangement(order, g)
        if positions is None:
            continue
        placed = verify_and_witness(positions, masks)
        if placed is None:
            continue
        return positions, {comp_rows[k][0]: x for k, x in placed.items()}
    return None


def solve(matrix, eps=Fraction(1, 2)) -> Optional[Witness]:
    """Decide realizability of a free space matrix in R^1.

    Decides the twin quotient (see :func:`twin_quotient`) and expands its
    witness by copying: every row takes its quotient row's P value and every
    column its quotient column's Q value, so equal rows share a point and
    equal columns share a point. Returns a witness (built at eps = 1/2 and
    rescaled to ``eps``) that forward computation checks against the
    caller's matrix, or None. Components are placed left to right with gaps
    above 2*eps; empty rows land in the leftmost outside cell.
    """
    if not isinstance(matrix, FreeSpaceMatrix):
        matrix = FreeSpaceMatrix(matrix)
    eps = checked_epsilon(eps, exact=True)
    quotient, row_class, col_class = twin_quotient(matrix)
    g = build_uig(quotient)
    components = g.components()
    # a nonempty row is a clique, so its lowest column names its component
    comp_of = [0] * g.m
    for c, component in enumerate(components):
        for v in component:
            comp_of[v] = c
    comp_rows: list[list[tuple[int, int]]] = [[] for _ in components]
    for r_idx, row in enumerate(g.row_masks):
        if row:
            comp_rows[comp_of[(row & -row).bit_length() - 1]].append((r_idx, row))
    solved = []
    for component, rows in zip(components, comp_rows):
        placed = _solve_component(g, component, rows)
        if placed is None:
            return None
        solved.append(placed)

    # At eps = 1/2 the components sit left to right on one int grid of unit
    # 1/U, U the least common multiple of their 8m, so a component's unit
    # 1/(8m) is U/(8m) grid steps. Each component starts at base: the
    # previous component's rightmost center plus a gap of 2 (2U steps), or
    # 0 for the first. Point X on the grid is X/U at eps = 1/2, and the
    # witness is that scaled by eps/(1/2): X * num / ((U/2) * den).
    grid = math.lcm(*(8 * len(positions) for positions, _ in solved))
    q_ints = [0] * quotient.m_cols
    p_ints = [-3 * grid // 2] * quotient.n_rows  # 2*eps left of every interval
    base = 0
    for positions, row_points in solved:
        step = grid // (8 * len(positions))
        for v, x in positions.items():
            q_ints[v] = base + step * x
        for r_idx, x in row_points.items():
            p_ints[r_idx] = base + step * x
        base += step * max(positions.values()) + 2 * grid
    num, den = eps.as_integer_ratio()
    scale = grid // 2 * den
    witness = Witness._built(
        PointSeq1D.from_scaled(scale, [num * p_ints[k] for k in row_class]),
        PointSeq1D.from_scaled(scale, [num * q_ints[c] for c in col_class]),
        eps,
    )
    if compute_matrix(witness.curve_p, witness.curve_q, eps) != matrix:
        raise AssertionError("internal error: discrete witness failed verification")
    return witness
