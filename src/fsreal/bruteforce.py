"""Brute-force realizability oracles used to validate the main solvers.

Both oracles enumerate finite combinatorial classes and check candidates with
the forward computation only; they share no code with the solvers they test.
Both compute on Python ints: the discrete oracle lays m unit intervals out on
the grid of unit 1/(8m), and the continuous oracle builds its curves from a
diagram's ``scaled_*`` ints.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .diagram import FULL, PARTIAL, FreeSpaceDiagram1D
from .model import Curve1D, FreeSpaceMatrix, PointSeq1D, Witness
from .forward import compute_diagram_1d, compute_matrix

DISCRETE_CAP = 6
CONTINUOUS_CAP = 20


def _interleavings(m: int) -> list[tuple[int, ...]]:
    """Endpoint patterns of m equal-length intervals with left endpoints in
    index order: pattern[i] = number of left endpoints at or before the i-th
    right endpoint. Valid patterns are nondecreasing with pattern[i] >= i+1."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int]):
        i = len(prefix)
        if i == m:
            out.append(tuple(prefix))
            return
        lo = max(i + 1, prefix[-1] if prefix else 1)
        for c in range(lo, m + 1):
            prefix.append(c)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def _materialize(pattern: tuple[int, ...], m: int) -> Optional[list[int]]:
    """Left endpoints realizing a pattern with all 2m endpoints distinct, as
    ints on the grid of unit 1/(8m): intervals of width 8m, spacing quantum
    2, so every endpoint is even. Solved as longest paths over the chain of
    merged events."""
    events: list[tuple[str, int]] = []
    by_slot: dict[int, list[int]] = {}
    for i, c in enumerate(pattern):
        by_slot.setdefault(c - 1, []).append(i)
    for j in range(m):
        events.append(("l", j))
        for i in by_slot.get(j, []):
            events.append(("r", i))
    width, delta = 8 * m, 2
    # positions: l_j variables; r_i = l_i + width. Longest-path over the
    # event chain; a pass that changes nothing has checked the whole chain
    pos = [0] * m
    for _ in range(2 * m + 1):
        changed = False
        prev_val = None
        for kind, idx in events:
            val = pos[idx] + (width if kind == "r" else 0)
            if prev_val is not None and val < prev_val + delta:
                need = prev_val + delta
                pos[idx] = need if kind == "l" else need - width
                val = need
                changed = True
            prev_val = val
        if not changed:
            return pos
    return None


def arrangement_cells(centers: list[int], eps: int) -> list[tuple[frozenset[int], int]]:
    """(cover, representative) of each maximal constant-cover region of the
    intervals [c - eps, c + eps], in order along the line: the two outside
    regions (one interval width out), every endpoint, and each open gap
    between consecutive endpoints (at its midpoint). Ints whose endpoints
    are all even, as on the grid of :func:`arrangements`, so that every
    midpoint is an int."""
    events = sorted({c - eps for c in centers} | {c + eps for c in centers})
    reps = [events[0] - 2 * eps]
    for x, y in zip(events, events[1:]):
        reps += [x, (x + y) // 2]
    reps += [events[-1], events[-1] + 2 * eps]
    return [(frozenset(j for j, c in enumerate(centers) if c - eps <= x <= c + eps), x) for x in reps]


@lru_cache(maxsize=None)
def arrangements(m: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """One entry per endpoint pattern of m unit intervals (C_m of them), with
    the intervals in sorted slots, as ints on the grid of unit 1/(8m) (so
    eps = 1/2 is 4m): (sorted centers, (cover as a bitmask of slots,
    representative point) per cell). A combinatorial class is a pattern with
    the columns placed at its slots in some order; the callers apply the m!
    orders themselves."""
    eps = 4 * m
    out = []
    for pattern in _interleavings(m):
        left = _materialize(pattern, m)
        if left is None:
            raise RuntimeError(f"endpoint pattern {pattern} of {m} intervals did not materialize")
        centers = [l + eps for l in left]
        cells = tuple((sum(1 << k for k in cover), rep) for cover, rep in arrangement_cells(centers, eps))
        out.append((tuple(centers), cells))
    return tuple(out)


def _mask_table(to) -> list[int]:
    """table[mask] is the bitmask of {to[k] : bit k of mask is set}, for
    every mask of len(to) bits."""
    table = [0]
    for t in to:
        table += [x | 1 << t for x in table]
    return table


def realizable_row_families(m: int) -> list[frozenset[frozenset[int]]]:
    """Distinct families of point-cover sets achievable by m unit intervals.

    A matrix with m columns is realizable iff the set of its row supports is
    contained in one of these families (the empty support is always
    achievable outside the arrangement).
    """
    # a family sorts by its size, then by its covers' sorted column lists,
    # sorted. It is gathered as one int: the cover whose column list is k-th
    # in sorted order, by_rank[k], sets bit size-1-k. Of two families of one
    # size, the one holding the first column list that they do not share
    # sorts first, and it is the larger int.
    size = 1 << m
    columns = [[j for j in range(m) if mask >> j & 1] for mask in range(size)]
    by_rank = sorted(range(size), key=columns.__getitem__)
    bit = [0] * size
    for k, mask in enumerate(by_rank):
        bit[mask] = 1 << (size - 1 - k)
    # perm[k] = column placed at sorted slot k; to_bit[cover] is the bit of
    # the column mask that a cover of slots becomes
    to_bits = [list(map(bit.__getitem__, _mask_table(perm))) for perm in itertools.permutations(range(m))]
    families = set()
    for _, cells in arrangements(m):
        covers = {cover for cover, _ in cells}
        families.update(sum(map(to_bit.__getitem__, covers)) for to_bit in to_bits)
    ordered = sorted(families, key=lambda fam: (fam.bit_count(), -fam))
    # frozensets only for these; a family's size binary digits, highest
    # first, say which of the sorted column lists it holds
    sets = [frozenset(columns[mask]) for mask in by_rank]
    return [frozenset(itertools.compress(sets, map("1".__eq__, f"{fam:0{size}b}"))) for fam in ordered]


def brute_force_discrete_1d(matrix: FreeSpaceMatrix) -> Optional[Witness]:
    """Exhaustive oracle for discrete 1D realizability (m <= DISCRETE_CAP columns).

    Enumerates every combinatorial class of interval-endpoint orders, checks
    that each row's prescribed cell exists, and places P points at cell
    representatives. The returned witness is verified by compute_matrix.
    """
    m = matrix.m_cols
    if m > DISCRETE_CAP:
        raise ValueError(f"brute force capped at {DISCRETE_CAP} columns (got {m})")
    rows = matrix.row_masks
    distinct = [[c for c in range(m) if row >> c & 1] for row in set(rows)]  # each distinct row's columns
    # each distinct needed mask, with the first column order that gives it:
    # the orders that share a mask pass or fail the cover test together
    orders: dict[int, tuple[int, ...]] = {}
    for perm in itertools.permutations(range(m)):
        # perm[k] = column placed at sorted slot k, and slot[c] column c's
        # slot; needed has bit s set for each slot set s that a row asks for
        slot = sorted(range(m), key=perm.__getitem__)
        orders.setdefault(sum(1 << sum(1 << slot[c] for c in cols) for cols in distinct), perm)
    for centers_sorted, cells in arrangements(m):
        first_rep: dict[int, int] = {}
        for cover, rep in cells:
            first_rep.setdefault(cover, rep)
        covers = sum(1 << cover for cover in first_rep)
        for needed, perm in orders.items():
            if needed & covers == needed:
                to_slot = _mask_table(sorted(range(m), key=perm.__getitem__))  # every set of columns to its slots
                centers = [0] * m
                for slot, col in enumerate(perm):
                    centers[col] = centers_sorted[slot]
                placement = PointSeq1D.from_scaled(8 * m, [first_rep[to_slot[row]] for row in rows])
                witness = Witness(placement, PointSeq1D.from_scaled(8 * m, centers), "1/2")
                if compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == matrix:
                    return witness
    return None


def _orientation_vectors(n_free: int):
    for bits in range(1 << n_free):
        yield [1 if (bits >> k) & 1 == 0 else -1 for k in range(n_free)]


def brute_force_continuous_1d(diagram: FreeSpaceDiagram1D) -> Optional[Witness]:
    """Exhaustive oracle for continuous 1D realizability (n+m segments <= CONTINUOUS_CAP).

    Enumerates segment orientation vectors (P's first segment fixed positive;
    all of Q's free, covering both mirror classes), fixes the inter-curve
    offset from the first partial cell, recomputes the diagram, and compares
    it cell-exactly. The curves are ints over the diagram's scale.
    """
    n = diagram.n_cols
    m = diagram.m_rows
    if n + m > CONTINUOUS_CAP:
        raise ValueError(f"brute force capped at {CONTINUOUS_CAP} segments (got {n + m})")
    scale = diagram.scale
    eps = diagram.scaled_eps
    widths = diagram.scaled_widths
    heights = diagram.scaled_heights
    cells = diagram.scaled_cells

    def check(p_pts, q_pts, scale=scale) -> Optional[Witness]:
        """The witness of these ints over ``scale``, if it reproduces the diagram."""
        p, q = Curve1D.from_scaled(scale, p_pts), Curve1D.from_scaled(scale, q_pts)
        return Witness._built(p, q, diagram.epsilon) if compute_diagram_1d(p, q, diagram.epsilon) == diagram else None

    partials = [(i, j) for i in range(n) for j in range(m) if cells[i][j].status == PARTIAL]

    if not partials:
        any_full = any(cells[i][j].status == FULL for i in range(n) for j in range(m))
        if not any_full:
            # all empty: any orientations, curves far apart
            p_pts = _curve_points(0, [1] * n, widths)
            span_p = max(p_pts) - min(p_pts)
            span_q = sum(heights)
            q0 = min(p_pts) + span_p + span_q + 2 * eps + scale
            return check(p_pts, _curve_points(q0, [1] * m, heights))
        # all full: folding may be needed to shrink the spans; center each
        # orientation combination on the other curve, on twice the scale so
        # that the half-unit centring is an int
        for q_bits in _orientation_vectors(m):
            for p_bits in _orientation_vectors(n - 1):
                sp = [1] + p_bits
                p_pts = _curve_points(0, sp, widths)
                q_rel = _curve_points(0, q_bits, heights)
                q0 = max(p_pts) + min(p_pts) - max(q_rel) - min(q_rel)
                witness = check([2 * v for v in p_pts], [q0 + 2 * v for v in q_rel], 2 * scale)
                if witness is not None:
                    return witness
        return None

    i0, j0 = partials[0]
    cell0 = cells[i0][j0]
    for q_bits in _orientation_vectors(m):
        sq = q_bits
        for p_bits in _orientation_vectors(n - 1):
            sp = [1] + p_bits
            ok = True
            for (i, j) in partials:
                if sp[i] * sq[j] != cells[i][j].sigma:
                    ok = False
                    break
            if not ok:
                continue
            # c_lo = sq_j * (Pstart_i - Qstart_j) - eps fixes the offset.
            pre_p = _prefix(sp, widths, i0)
            pre_q = _prefix(sq, heights, j0)
            q0 = pre_p - sq[j0] * (cell0.c_lo + eps) - pre_q
            witness = check(_curve_points(0, sp, widths), _curve_points(q0, sq, heights))
            if witness is not None:
                return witness
    return None


def _prefix(orient, lengths, k: int) -> int:
    total = 0
    for t in range(k):
        total += orient[t] * lengths[t]
    return total


def _curve_points(start: int, orient, lengths) -> list[int]:
    pts = [start]
    for s, w in zip(orient, lengths):
        pts.append(pts[-1] + s * w)
    return pts
