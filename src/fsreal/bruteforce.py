"""Brute-force realizability oracles used to validate the main solvers.

Both oracles enumerate finite combinatorial classes and check candidates with
the forward computation only; they share no code with the solvers they test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .model import (
    FULL,
    PARTIAL,
    Curve1D,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
)
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


def _materialize(pattern: tuple[int, ...], m: int) -> Optional[list[Fraction]]:
    """Left endpoints (length-1 intervals, eps = 1/2) realizing a pattern with
    all 2m endpoints distinct. Solved as longest paths over the chain of
    merged events with spacing quantum 1/(4m)."""
    events: list[tuple[str, int]] = []
    by_slot: dict[int, list[int]] = {}
    for i, c in enumerate(pattern):
        by_slot.setdefault(c - 1, []).append(i)
    for j in range(m):
        events.append(("l", j))
        for i in by_slot.get(j, []):
            events.append(("r", i))
    delta = Fraction(1, 4 * m)
    # positions: l_j variables; r_i = l_i + 1. Longest-path over the event chain.
    pos = [Fraction(0)] * m
    for _ in range(2 * m + 1):
        changed = False
        prev_val = None
        for kind, idx in events:
            val = pos[idx] + (1 if kind == "r" else 0)
            if prev_val is not None and val < prev_val + delta:
                need = prev_val + delta
                if kind == "l":
                    pos[idx] = need
                else:
                    pos[idx] = need - 1
                val = need
                changed = True
            prev_val = val
        if not changed:
            break
    else:
        return None
    # sanity: chain strictly increasing
    prev_val = None
    for kind, idx in events:
        val = pos[idx] + (1 if kind == "r" else 0)
        if prev_val is not None and val < prev_val + delta:
            return None
        prev_val = val
    return pos


def arrangement_cells(centers: list[Fraction], eps: Fraction) -> list[tuple[frozenset[int], Fraction]]:
    """(cover, representative) of each maximal constant-cover region of the
    intervals [c - eps, c + eps], in order along the line: the two outside
    regions, every endpoint, and each open gap between consecutive
    endpoints (at its midpoint)."""
    events = sorted({c - eps for c in centers} | {c + eps for c in centers})
    reps = [events[0] - 1]
    for x, y in zip(events, events[1:]):
        reps += [x, (x + y) / 2]
    reps += [events[-1], events[-1] + 1]
    return [(frozenset(j for j, c in enumerate(centers) if c - eps <= x <= c + eps), x) for x in reps]


@lru_cache(maxsize=None)
def arrangements(m: int) -> tuple[tuple[tuple[Fraction, ...], tuple[tuple[int, Fraction], ...]], ...]:
    """One entry per endpoint pattern of m unit intervals (C_m of them), with
    the intervals in sorted slots: (sorted centers, (cover as a bitmask of
    slots, representative point) per cell). A combinatorial class is a
    pattern with the columns placed at its slots in some order; the callers
    apply the m! orders themselves."""
    eps = Fraction(1, 2)
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
    # perm[k] = column placed at sorted slot k
    tables = [_mask_table(perm) for perm in itertools.permutations(range(m))]
    families = set()
    for _, cells in arrangements(m):
        covers = {cover for cover, _ in cells}
        for table in tables:
            families.add(frozenset(table[cover] for cover in covers))
    # a family sorts by its size, then by its covers' sorted column lists,
    # sorted; rank[mask] is the place of the mask's sorted column list among
    # all of them, so the covers' ranks, sorted, give the same order
    columns = [[j for j in range(m) if mask >> j & 1] for mask in range(1 << m)]
    rank = [0] * (1 << m)
    for k, mask in enumerate(sorted(range(1 << m), key=columns.__getitem__)):
        rank[mask] = k
    ordered = sorted(families, key=lambda fam: (len(fam), sorted(map(rank.__getitem__, fam))))
    sets = [frozenset(cols) for cols in columns]
    return [frozenset(sets[mask] for mask in fam) for fam in ordered]


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
    distinct = set(rows)
    orders = []
    for perm in itertools.permutations(range(m)):
        # perm[k] = column placed at sorted slot k; to_slot maps a set of
        # columns to the set of their slots
        to_slot = _mask_table(sorted(range(m), key=perm.__getitem__))
        orders.append((perm, to_slot, frozenset(to_slot[row] for row in distinct)))
    for centers_sorted, cells in arrangements(m):
        first_rep: dict[int, Fraction] = {}
        for cover, rep in cells:
            first_rep.setdefault(cover, rep)
        covers = frozenset(first_rep)
        for perm, to_slot, needed in orders:
            if needed <= covers:
                centers = [Fraction(0)] * m
                for slot, col in enumerate(perm):
                    centers[col] = centers_sorted[slot]
                placement = [first_rep[to_slot[row]] for row in rows]
                witness = Witness._built(PointSeq1D(placement), PointSeq1D(centers), Fraction(1, 2))
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
    it cell-exactly.
    """
    n = diagram.n_cols
    m = diagram.m_rows
    if n + m > CONTINUOUS_CAP:
        raise ValueError(f"brute force capped at {CONTINUOUS_CAP} segments (got {n + m})")
    eps = diagram.epsilon
    widths = diagram.col_widths
    heights = diagram.row_heights

    partials = [
        (i, j)
        for i in range(n)
        for j in range(m)
        if diagram.cells[i][j].status == PARTIAL
    ]

    if not partials:
        any_full = any(diagram.cells[i][j].status == FULL for i in range(n) for j in range(m))
        if not any_full:
            # all empty: any orientations, curves far apart
            p_pts = _curve_points(Fraction(0), [1] * n, widths)
            span_p = max(p_pts) - min(p_pts)
            span_q = sum(heights)
            q0 = min(p_pts) + span_p + span_q + 2 * eps + 1
            q_pts = _curve_points(q0, [1] * m, heights)
            witness = Witness._built(Curve1D(p_pts), Curve1D(q_pts), eps)
            if compute_diagram_1d(witness.curve_p, witness.curve_q, eps) == diagram:
                return witness
            return None
        # all full: folding may be needed to shrink the spans; center each
        # orientation combination on the other curve
        for q_bits in _orientation_vectors(m):
            for p_bits in _orientation_vectors(n - 1):
                sp = [1] + p_bits
                p_pts = _curve_points(Fraction(0), sp, widths)
                q_rel = _curve_points(Fraction(0), q_bits, heights)
                q0 = (max(p_pts) + min(p_pts)) / 2 - (max(q_rel) + min(q_rel)) / 2
                q_pts = [q0 + v for v in q_rel]
                witness = Witness._built(Curve1D(p_pts), Curve1D(q_pts), eps)
                if compute_diagram_1d(witness.curve_p, witness.curve_q, eps) == diagram:
                    return witness
        return None

    i0, j0 = partials[0]
    cell0 = diagram.cells[i0][j0]
    for q_bits in _orientation_vectors(m):
        sq = q_bits
        for p_bits in _orientation_vectors(n - 1):
            sp = [1] + p_bits
            ok = True
            for (i, j) in partials:
                if sp[i] * sq[j] != diagram.cells[i][j].sigma:
                    ok = False
                    break
            if not ok:
                continue
            # c_lo = sq_j * (Pstart_i - Qstart_j) - eps fixes the offset.
            pre_p = _prefix(sp, widths, i0)
            pre_q = _prefix(sq, heights, j0)
            q0 = pre_p - sq[j0] * (cell0.c_lo + eps) - pre_q
            p_pts = _curve_points(Fraction(0), sp, widths)
            q_pts = _curve_points(q0, sq, heights)
            witness = Witness._built(Curve1D(p_pts), Curve1D(q_pts), eps)
            if compute_diagram_1d(witness.curve_p, witness.curve_q, eps) == diagram:
                return witness
    return None


def _prefix(orient, lengths, k: int) -> Fraction:
    total = Fraction(0)
    for t in range(k):
        total += orient[t] * lengths[t]
    return total


def _curve_points(start: Fraction, orient, lengths) -> list[Fraction]:
    pts = [start]
    for s, w in zip(orient, lengths):
        pts.append(pts[-1] + s * w)
    return pts
