import itertools
import random
import sys
from fractions import Fraction

import pytest

from fsreal import (
    CellContent,
    Curve1D,
    FreeSpaceDiagram1D,
    brute_force_continuous_1d,
    compute_diagram_1d,
    fixed_boundary_dp,
    gen_partition,
    solve_fpt,
    solve_pseudo_poly,
    subdivide_and_type,
)
from fsreal import pseudopoly
from fsreal.model import (
    EMPTY,
    FULL,
    PARTIAL,
    cell_restrict,
    consistency_problems,
    transpose_diagram,
)
from fsreal.pseudopoly import (
    TYPE_BOUNDARY,
    TYPE_CLOSE,
    TYPE_FAR,
    Run,
    SubSeg,
    _collect_runs,
    _place_run,
    _smallest_window,
    anchor_components,
    build_placement_graph,
    dp_extract_path,
)

from conftest import divided_diagram, random_integer_diagram, random_rational_diagram
from test_fuzz_pseudopoly import _verified, consistent_diagrams, forward_diagrams


def _diagram(eps, widths, heights, cells):
    return FreeSpaceDiagram1D(eps, widths, heights, cells)


def test_typing_all_empty():
    d = _diagram(1, [2, 3], [2], [[CellContent.empty()], [CellContent.empty()]])
    typed = subdivide_and_type(d)
    assert all(s.kind == TYPE_FAR for s in typed.p_segs)
    assert all(s.kind == TYPE_FAR for s in typed.q_segs)


def test_typing_all_full():
    d = compute_diagram_1d(Curve1D([0, 1]), Curve1D([0, 1]), 5)
    typed = subdivide_and_type(d)
    assert all(s.kind == TYPE_CLOSE for s in typed.p_segs)
    assert all(s.kind == TYPE_CLOSE for s in typed.q_segs)


def test_typing_partial_cell_spanning_its_row():
    # 2x1 grid: first column partial spanning the whole row, second empty
    d = compute_diagram_1d(Curve1D([0, 2, 8]), Curve1D([0, 2]), 1)
    typed = subdivide_and_type(d)
    assert typed.q_segs[0].kind == TYPE_BOUNDARY
    kinds = {(s.orig, s.kind) for s in typed.p_segs}
    assert (0, TYPE_BOUNDARY) in kinds
    assert any(orig == 1 and kind == TYPE_FAR for orig, kind in kinds)


def _reference_pieces(columns, widths, heights):
    """A per-slice classifier: cut each segment at every breakpoint of its
    partial cells and classify all its cells again at the midpoint of every
    piece (doubled coordinates)."""
    out = []
    for i, col in enumerate(columns):
        w = widths[i]
        points = {
            c.sigma * (level - bound)
            for j, c in enumerate(col)
            if c.status == PARTIAL
            for bound in (c.c_lo, c.c_hi)
            for level in (0, heights[j])
        }
        cuts = [0] + sorted(x for x in points if 0 < x < w) + [w]
        pieces = []
        for a, b in zip(cuts, cuts[1:]):
            statuses = set()
            for j, c in enumerate(col):
                if c.status != PARTIAL:
                    statuses.add(c.status)
                    continue
                lo, hi, h2 = 2 * c.c_lo + c.sigma * (a + b), 2 * c.c_hi + c.sigma * (a + b), 2 * heights[j]
                statuses.add(EMPTY if lo > h2 or hi < 0 else FULL if lo <= 0 and hi >= h2 else PARTIAL)
            kind = TYPE_FAR if statuses == {EMPTY} else TYPE_CLOSE if statuses == {FULL} else TYPE_BOUNDARY
            if pieces and pieces[-1].kind == kind:
                pieces[-1] = SubSeg(i, pieces[-1].offset, b - pieces[-1].offset, kind)
            else:
                pieces.append(SubSeg(i, a, b - a, kind))
        out += pieces
    return out


def _reference_typing(scaled):
    """(p_segs, q_segs, cells) from the per-slice classifier, Q's segments
    through the transposed diagram, every cell restricted in x, then in y."""
    widths, heights = scaled.col_widths, scaled.row_heights
    p_segs = _reference_pieces(scaled.cells, widths, heights)
    q_segs = _reference_pieces(transpose_diagram(scaled).cells, heights, widths)

    def cell(ps, qs):
        c = cell_restrict(scaled.cells[ps.orig][qs.orig], ps.offset, 0, ps.length, heights[qs.orig])
        return cell_restrict(c, 0, qs.offset, ps.length, qs.length)

    return p_segs, q_segs, [[cell(ps, qs) for qs in q_segs] for ps in p_segs]


def _long_forward_diagrams(rng: random.Random, count: int):
    """Forward diagrams of 60..200-segment walks against 2..12-segment ones,
    the shape of the benchmark's long pseudo-poly diagrams."""
    for _ in range(count):
        n, m, eps = rng.randint(60, 200), rng.randint(2, 12), rng.randint(2, 20)
        yield random_integer_diagram(rng.randrange(1 << 30), n, m, eps, max_step=10)


def test_typing_sweep_matches_the_per_slice_classifier():
    rng = random.Random(77)
    diagrams = [
        random_integer_diagram(seed, rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 4)) for seed in range(200)
    ]
    diagrams += [random_rational_diagram(rng) for _ in range(150)]
    diagrams += _rational_one_slab_mutants(random.Random(2024), 60)
    diagrams += consistent_diagrams(60, seed=12)
    diagrams += _long_forward_diagrams(random.Random(5), 6)
    # degenerate cases: a slab line through a cell corner, on the P and on
    # the Q axis; two rows (columns) whose breakpoints coincide; sigma -1
    diagrams += [
        compute_diagram_1d(Curve1D(p), Curve1D(q), eps)
        for p, q, eps in (
            ((0, 2), (1, 3), 1),
            ((0, 4), (2, 0), 1),
            ((0, 4), (0, 2, 4), 1),
            ((4, 0, 4), (0, 4), 2),
            ((0, 2, 0, 2), (3, 1, 3), 1),
        )
    ]
    corner = shared = q_reversed = 0
    for index, diagram in enumerate(diagrams):
        # the reference reads the Fractions of an explicit copy L times the
        # size; the sweep reads the diagram's ints, which are in those units
        scaled = divided_diagram(diagram, Fraction(1, diagram.scale))
        typed = subdivide_and_type(diagram)
        p_segs, q_segs, cells = _reference_typing(scaled)
        partial = [((i, k), c) for i, row in enumerate(cells) for k, c in enumerate(row) if c.status == PARTIAL]
        assert (typed.p_segs, typed.q_segs, list(typed.partial.items())) == (p_segs, q_segs, partial), index
        for axis in (scaled, transpose_diagram(scaled)):
            for col, w in zip(axis.cells, axis.col_widths):
                per_cell = [
                    {c.sigma * (level - bound) for bound in (c.c_lo, c.c_hi) for level in (0, h)}
                    for c, h in zip(col, axis.row_heights)
                    if c.status == PARTIAL
                ]
                corner += any(0 in points or w in points for points in per_cell)
                inside = [x for points in per_cell for x in points if 0 < x < w]
                shared += len(inside) > len(set(inside))
        q_reversed += any(c.status == PARTIAL and c.sigma == -1 for col in scaled.cells for c in col)
    assert corner > 500 and shared > 500 and q_reversed > 200


def test_solver_decides_rational_diagrams():
    # the search runs on the diagram's int numerators; the witness, ints over
    # the diagram's scale, must reproduce the rational diagram
    d = _diagram(Fraction(1, 2), [1], [1], [[CellContent.empty()]])
    assert _verified(d, solve_pseudo_poly(d))
    rng = random.Random(2024)
    for index in range(60):
        d = random_rational_diagram(rng)
        assert _verified(d, solve_pseudo_poly(d)), index
    answers = []
    for items in ([1, 1, 1], [1, 1, 4], [3, 2, 1, 2]):
        d = divided_diagram(gen_partition(items), 3)
        w = solve_pseudo_poly(d)
        assert w is None or _verified(d, w), items
        assert (w is not None) == (solve_fpt(d) is not None), items
        answers.append(w is not None)
    assert answers == [False, False, True]
    d = compute_diagram_1d(Curve1D([0, Fraction(3, 2), 3]), Curve1D([0, 2]), 1)
    assert _verified(d, solve_pseudo_poly(d))
    cells = [list(col) for col in d.cells]
    c = cells[1][0]
    cells[1][0] = CellContent(c.status, c.sigma, c.c_lo + Fraction(1, 2), c.c_hi + Fraction(1, 2))
    mutated = FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, cells)
    # the consistency check runs first, so an inconsistent rational diagram is NO
    assert consistency_problems(mutated)
    assert solve_pseudo_poly(mutated) is None


def test_solvers_build_no_fractions(monkeypatch):
    # both solvers decide on the diagram's ints and check their witness by an
    # int comparison: no Fraction is built in the solver modules or in the
    # forward computation, counted at the first caller outside fractions
    # (Fraction arithmetic builds its result there)
    rng = random.Random(16)
    diagrams = [random_integer_diagram(seed, 6, 3, 2) for seed in range(8)]
    diagrams += [random_rational_diagram(rng) for _ in range(12)]
    diagrams += [gen_partition([3, 2, 1, 2]), gen_partition([1, 1, 4]), divided_diagram(gen_partition([3, 2, 1, 2]), 3)]
    diagrams += [
        _diagram(1, [2, 3], [2], [[CellContent.empty()], [CellContent.empty()]]),  # all empty
        _diagram(Fraction(1, 2), [Fraction(1, 3)], [1], [[CellContent.empty()]]),
        compute_diagram_1d(Curve1D([0, 1]), Curve1D([0, 1]), 5),  # all full
        _diagram(Fraction(7, 3), [Fraction(1, 2), Fraction(5, 4)], [Fraction(2, 3)], [[CellContent.full()]] * 2),
        compute_diagram_1d(Curve1D([0, 2, 8, 4]), Curve1D([0, 2]), 1),  # a far run
        gen_partition([1, 1, 1]),  # NO
    ]
    counts = {}
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "fractions":
            frame = frame.f_back
        name = frame.f_globals["__name__"]
        counts[name] = counts.get(name, 0) + 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and counts == {__name__: 3}
    answers = [(solve_fpt(d) is not None, solve_pseudo_poly(d) is not None) for d in diagrams]
    solver_modules = ("fsreal.folding", "fsreal.pseudopoly", "fsreal.forward")
    assert [counts.get(name, 0) for name in solver_modules] == [0, 0, 0], counts
    monkeypatch.undo()
    assert all(a == b for a, b in answers) and 20 < sum(a for a, _ in answers) < len(diagrams)


def test_every_diagram_yes_passes_the_one_forward_check(monkeypatch):
    # both solvers answer YES only through the forward check of their shared
    # entry: once it never matches, no diagram is YES, whether the closed
    # form (all full, all empty) or a solver's candidates decide it
    diagrams = [
        _diagram(2, [1, Fraction(3, 2)], [1], [[CellContent.full()]] * 2),
        _diagram(1, [2, 1], [3, Fraction(1, 2)], [[CellContent.empty()] * 2] * 2),
        gen_partition([3, 2, 1, 2]),
        *forward_diagrams(4, seed=17),
    ]
    assert all(solve_fpt(d) is not None and solve_pseudo_poly(d) is not None for d in diagrams)
    never = _diagram(1, [7], [7], [[CellContent.empty()]])
    assert never not in diagrams
    monkeypatch.setattr(pseudopoly, "compute_diagram_1d", lambda p, q, eps: never)
    for d in diagrams:
        assert solve_fpt(d) is None and solve_pseudo_poly(d) is None


def test_placement_graph_diagonal_chain():
    d = compute_diagram_1d(Curve1D([0, 2, 4]), Curve1D([0, 2, 4]), 1)
    typed = subdivide_and_type(d)
    g = build_placement_graph(typed)
    assert len(g.non_singleton) == 1


def test_placement_graph_three_clusters_rejected():
    # three far-apart interacting pairs cannot come from connected 1D curves
    widths = [2, 2, 2]
    heights = [2, 2, 2]
    cells = [[CellContent.empty() for _ in range(3)] for _ in range(3)]
    for k in range(3):
        cells[k][k] = CellContent.partial(1, -1, 1)
    d = _diagram(1, widths, heights, cells)
    assert solve_pseudo_poly(d) is None


def test_anchoring_reproduces_forward_layout():
    p = Curve1D([0, 3, 1])
    q = Curve1D([1, 4])
    d = compute_diagram_1d(p, q, 2)
    typed = subdivide_and_type(d)
    g = build_placement_graph(typed)
    anch = anchor_components(typed, g)
    assert anch is not None
    frame = anch.frames[0]
    # relative distances inside the frame match the generating curves up to
    # translation: compare two anchored P starts against the true gap
    p_nodes = sorted(n for n in frame if n[0] == "P")
    if len(p_nodes) >= 2:
        (a, b) = p_nodes[:2]
        true_gap = None
        starts = {}
        offset = 0
        v = p.scaled_vertices
        for k, seg in enumerate(typed.p_segs):
            starts[k] = v[seg.orig] + (1 if v[seg.orig + 1] > v[seg.orig] else -1) * seg.offset
        true_gap = starts[b[1]] - starts[a[1]]
        assert frame[b][0] - frame[a][0] == true_gap


def test_shifted_intercepts_fail_the_grid_line_check():
    p = Curve1D([0, 2, 4])
    q = Curve1D([0, 2, 4])
    d = compute_diagram_1d(p, q, 1)
    cells = [list(col) for col in d.cells]
    c = cells[1][1]
    assert c.is_partial
    cells[1][1] = CellContent(c.status, c.sigma, c.c_lo + 2, c.c_hi + 2)
    mutated = FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, cells)
    assert consistency_problems(mutated) == [
        "grid line between columns 0,1 at row 1: white sets disagree",
        "grid line between rows 0,1 at column 1: white sets disagree",
    ]
    assert solve_pseudo_poly(mutated) is None


def test_frame_check_rejects_a_consistent_diagram():
    # each is consistent on every grid line, one placement-graph component,
    # and not realizable. In the first the frame's placement matches every
    # partial cell it was propagated over, but not every P x Q cell of the
    # frame. In the second every pair of the frame's pieces gives its typed
    # cell, but the frame places P's column 0 from its first piece at 0 and
    # from its last at 1, and neither placement of the whole column gives
    # the diagram's cells with the frame's rows.
    empty = CellContent.empty()
    diagrams = [
        _diagram(
            3,
            [2, 5],
            [5, 3, 4],
            [
                [CellContent.partial(1, -5, 1), CellContent.partial(-1, 4, 10), CellContent.partial(-1, 1, 7)],
                [CellContent.partial(1, -3, 3), CellContent.partial(-1, 2, 8), CellContent.full()],
            ],
        ),
        _diagram(
            6,
            [8, 3, 7, 3, 8, 8, 1],
            [3, 3],
            [
                [CellContent.partial(1, -7, 5), CellContent.partial(1, -11, 1)],
                [CellContent.partial(1, 1, 13), CellContent.partial(1, -2, 10)],
                [empty, CellContent.partial(1, 1, 13)],
            ]
            + [[empty, empty]] * 4,
        ),
    ]
    for index, d in enumerate(diagrams):
        assert consistency_problems(d) == [], index
        typed = subdivide_and_type(d)
        graph = build_placement_graph(typed)
        assert len(graph.non_singleton) == 1, index
        assert brute_force_continuous_1d(d) is None, index
        assert anchor_components(typed, graph) is None, index
        assert solve_pseudo_poly(d) is None, index


def test_fixed_dp_base_case():
    masks = fixed_boundary_dp([2, 3], 6, end=0)
    assert masks[-1] == 1  # R(j, 0) true, R(j, s != 0) false


def test_fixed_dp_three_vertex_example():
    # lengths (1,1), last vertex at 0, region [0,2]: first vertex at 0 or 2
    masks = fixed_boundary_dp([1, 1], 2, start=None, end=0)
    assert masks[0] == 0b101


def test_fixed_dp_segment_exceeding_region():
    masks = fixed_boundary_dp([5], 3, start=3, end=0)
    assert masks[0] == 0


def test_solve_partition_instances(partition_diagram):
    w = solve_pseudo_poly(partition_diagram)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, partition_diagram.epsilon) == partition_diagram
    assert solve_pseudo_poly(gen_partition([1, 1, 1])) is None


def _rational_one_slab_mutants(rng: random.Random, count: int):
    """Rational forward diagrams with one partial cell's slab shifted by a
    rational amount, kept when they are still well formed (the constructor
    checks that) and pass the grid-line check."""
    made = 0
    while made < count:
        d = random_rational_diagram(rng)
        spots = [(i, j) for i, col in enumerate(d.cells) for j, c in enumerate(col) if c.is_partial]
        if not spots:
            continue
        i, j = rng.choice(spots)
        c = d.cells[i][j]
        shift = rng.choice([-1, 1]) * Fraction(rng.randint(1, 6), rng.choice([2, 3, 4, 6]))
        cells = [list(col) for col in d.cells]
        cells[i][j] = CellContent.partial(c.sigma, c.c_lo + shift, c.c_hi + shift)
        try:
            mutant = FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, cells)
        except ValueError:
            continue
        if consistency_problems(mutant):
            continue
        made += 1
        yield mutant


def test_three_way_agreement_on_random_diagrams():
    rng = random.Random(55)
    diagrams = [
        random_integer_diagram(seed + 900, rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 3))
        for seed in range(60)
    ]
    diagrams += _rational_one_slab_mutants(random.Random(2024), 100)
    answers = []
    for index, d in enumerate(diagrams):
        b = brute_force_continuous_1d(d) is not None
        f = solve_fpt(d) is not None
        p = solve_pseudo_poly(d) is not None
        assert b == f == p, index
        answers.append(b)
    # 13 of the 33 rational NOs get past the crease inference
    assert answers[60:].count(False) == 33


def test_all_full_diagrams_agree_with_oracle():
    # widths and heights at most eps, so every cell can be full; P = (3, 1, 3)
    # needs a window of 4 and Q = (3) one of 3, more than 2*eps together
    full = CellContent.full()
    rng = random.Random(31)
    shapes = [(3, [3, 1, 3], [3])]
    for _ in range(120):
        eps = rng.randint(1, 8)
        widths = [rng.randint(1, eps) for _ in range(rng.randint(1, 6))]
        shapes.append((eps, widths, [rng.randint(1, eps) for _ in range(rng.randint(1, 4))]))
    answers = []
    for eps, widths, heights in shapes:
        d = FreeSpaceDiagram1D(eps, widths, heights, [[full] * len(heights) for _ in widths])
        w = solve_pseudo_poly(d)
        assert (w is not None) == (brute_force_continuous_1d(d) is not None) == (solve_fpt(d) is not None)
        if w is not None:
            assert compute_diagram_1d(w.curve_p, w.curve_q, eps) == d
        answers.append(w is not None)
    assert answers[0] is False
    assert answers.count(False) > 1


def test_smallest_window_matches_the_dp_scan():
    # the closed form's window search gives the size and the walk that the
    # smallest window accepted by fixed_boundary_dp gives, read off by
    # dp_extract_path, so the witnesses are those of the DP
    rng = random.Random(17)
    for _ in range(2000):
        lengths = [rng.randint(1, rng.choice([2, 5, 12, 40])) for _ in range(rng.randint(1, 9))]
        a = next(a for a in itertools.count(1) if fixed_boundary_dp(lengths, a, end=None)[0])
        walk = dp_extract_path(fixed_boundary_dp(lengths, a, end=None), lengths)
        assert _smallest_window(lengths, a) == (a, walk), lengths
        assert _smallest_window(lengths, a - 1) is None


def test_witness_positions_respect_regions():
    # replayed witness reproduces the diagram, so every placement obeyed the
    # region bounds; spot-check a far-run instance explicitly
    d = compute_diagram_1d(Curve1D([0, 2, 8, 4]), Curve1D([0, 2]), 1)
    w = solve_pseudo_poly(d)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, 1) == d
    q_low = min(w.curve_q.vertices)
    q_high = max(w.curve_q.vertices)
    # the far excursion vertex stays strictly beyond eps of the other curve
    for v in w.curve_p.vertices[2:3]:
        assert v > q_high + 1 or v < q_low - 1


def _walk_ok(path, lengths, bound, start, end, first_dir, last_dir):
    """Whether a vertex path takes the given steps in the allowed directions
    and keeps every vertex at its fixed position (which may lie on the far
    boundary 0) or inside the region, and within the cap."""
    cap = sum(lengths) + max(0, start or 0, end or 0)
    if bound is not None:
        cap = min(cap, bound)
    lowest = 0 if bound is not None else 1  # a far region is open at 0
    k = len(lengths)
    dirs = [1 if b > a else -1 for a, b in zip(path, path[1:])]
    if [abs(b - a) for a, b in zip(path, path[1:])] != list(lengths):
        return False
    if first_dir is not None and dirs[0] != first_dir:
        return False
    if last_dir is not None and dirs[-1] != last_dir and not (k == 1 and first_dir is not None):
        return False
    fixed = {0: start, k: end}
    return all(
        0 <= pos <= cap and (pos == fixed[idx] if fixed.get(idx) is not None else pos >= lowest)
        for idx, pos in enumerate(path)
    )


def test_dp_matches_brute_force_step_directions():
    rng = random.Random(13)
    for _ in range(600):
        k = rng.randint(1, 6)
        lengths = [rng.randint(1, 5) for _ in range(k)]
        bound = rng.choice([None, rng.randint(1, 12)])
        start = rng.choice([None, rng.randint(0, 8)])
        end = rng.choice([None, rng.randint(0, 8)])
        first_dir = rng.choice([None, 1, -1])
        last_dir = rng.choice([None, 1, -1])
        guards = (bound, start, end, first_dir, last_dir)
        masks = fixed_boundary_dp(lengths, *guards)
        # every walk starts within the cap, which is at most sum + 8 here
        walks = [
            path
            for s0 in range(sum(lengths) + 9)
            for dirs in itertools.product((1, -1), repeat=k)
            for path in [list(itertools.accumulate((d * step for d, step in zip(dirs, lengths)), initial=s0))]
            if _walk_ok(path, lengths, *guards)
        ]
        starts = {path[0] for path in walks}
        assert {s for s in range(masks[0].bit_length()) if (masks[0] >> s) & 1} == starts, (lengths, guards)
        if walks:
            # the replay takes the lowest start, then the rightward step wherever
            # a walk goes on from it: the greatest walk from that start
            lowest = min(starts)
            expected = max(path for path in walks if path[0] == lowest)
            assert dp_extract_path(masks, lengths, first_dir, last_dir) == expected, (lengths, guards)


def test_dp_table_size_bound():
    masks = fixed_boundary_dp([3, 2, 4], 7, end=0)
    n_prime = 3
    assert len(masks) == n_prime + 1
    assert all(m.bit_length() <= min(7, 3 + 2 + 4) + 1 for m in masks)


def test_placement_graph_two_components_from_short_curves():
    # both curves span less than 2*eps; the exactly-eps zones on either side
    # split the partial cells into two components, and solving proceeds
    p = Curve1D([2, -2])
    q = Curve1D([-2, 0, 3])
    d = compute_diagram_1d(p, q, 3)
    typed = subdivide_and_type(d)
    g = build_placement_graph(typed)
    assert len(g.non_singleton) == 2
    w = solve_pseudo_poly(d)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, 3) == d


def test_minimal_pairs_match_brute_force():
    from fsreal.pseudopoly import _minimal_pairs

    rng = random.Random(8)
    for _ in range(300):
        lows = range(0, -rng.randint(0, 7), -1)
        highs = range(0, rng.randint(0, 7))
        # an upward-closed predicate: some generator lies inside the pair
        gens = [(rng.randint(-8, 0), rng.randint(0, 8)) for _ in range(rng.randint(0, 3))]

        def fits(low, high):
            return any(low <= gl and high >= gh for gl, gh in gens)

        pairs = [(lo, hi) for lo in lows for hi in highs if fits(lo, hi)]
        minimal = [
            (lo, hi) for lo, hi in pairs if not any((l2, h2) != (lo, hi) and l2 >= lo and h2 <= hi for l2, h2 in pairs)
        ]
        assert list(_minimal_pairs(lows, highs, fits)) == minimal


def _two_frame_diagrams():
    """Forward diagrams whose partial cells fall into two frames (rare in the
    corpora); in the last three, a curve passes from one frame straight to
    the other, which makes a cross-frame equation."""
    return [
        compute_diagram_1d(Curve1D(p), Curve1D(q), eps)
        for p, q, eps in (
            ((2, -2), (-2, 0, 3), 3),
            ((0, -6, 4), (-4, 2), 6),
            ((-2, 6, 9), (2, 6, 11, 6, 13), 6),
            ((3, 4, 3, 0, -1), (0, -3, 0, 3, 0), 3),
            ((1, 3, 0, -3), (2, 0, -2), 3),
            ((1, 4, 0), (3, 2, 0), 2),
            ((-2, 4, 8), (-2, 1, 3, 7), 5),
        )
    ]


def test_typing_and_anchoring_invariants():
    """The facts behind the solver's run collection and search, which have no
    NO exit of their own: once the grid-line check has passed, no curve has a
    close subsegment while the other has a far one; once anchoring has
    succeeded, every unanchored subsegment is far or close, each run has one
    kind, and each run's neighbours on its curve are anchored."""
    rng = random.Random(11)
    partitions = [gen_partition([rng.randint(1, 30) for _ in range(rng.randint(2, 9))]) for _ in range(40)]
    diagrams = itertools.chain(
        forward_diagrams(60, seed=7), consistent_diagrams(120, seed=8), partitions, _two_frame_diagrams()
    )
    anchored = 0
    for index, diagram in enumerate(diagrams):
        if consistency_problems(diagram):
            continue
        typed = subdivide_and_type(diagram)
        p_kinds = {s.kind for s in typed.p_segs}
        q_kinds = {s.kind for s in typed.q_segs}
        assert not (TYPE_CLOSE in p_kinds and TYPE_FAR in q_kinds), index
        assert not (TYPE_CLOSE in q_kinds and TYPE_FAR in p_kinds), index
        graph = build_placement_graph(typed)
        if not graph.adjacency or len(graph.non_singleton) > 2:
            continue
        anchoring = anchor_components(typed, graph)
        if anchoring is None:
            continue
        anchored += 1
        for curve, segs in (("P", typed.p_segs), ("Q", typed.q_segs)):
            free = [(curve, k) not in anchoring.frame_of for k in range(len(segs))]
            assert not all(free), index
            in_runs = []
            for run in _collect_runs(typed, anchoring, curve):
                members = range(run.first, run.last + 1)
                in_runs += members
                assert {segs[k].kind for k in members} == {run.kind} and run.kind in (TYPE_FAR, TYPE_CLOSE), index
                for att, k in ((run.attach_lo, run.first - 1), (run.attach_hi, run.last + 1)):
                    if 0 <= k < len(segs):
                        assert att is not None and att[0] == anchoring.frame_of[(curve, k)], index
                    else:
                        assert att is None, index
            assert in_runs == [k for k in range(len(segs)) if free[k]], index
    assert anchored >= 190



def test_run_paths_end_at_attachments_and_taus_meet_cross_equations(monkeypatch):
    """The premises on which _attempt reads each curve straight off its
    pieces, with no check that two pieces agree at a shared vertex: a run's
    path starts and ends at its attachments' global values, and every frame
    placement meets every cross-frame equation."""
    import fsreal.pseudopoly as pp

    place_run, frame_candidates = pp._place_run, pp._frame_candidates
    seen = {"ends": 0, "equations": 0}

    def checked_place_run(run, other_lo, other_hi, own_lo, own_hi, rho, tau, eps):
        path = place_run(run, other_lo, other_hi, own_lo, own_hi, rho, tau, eps)
        if path is not None:
            assert len(path) == len(run.lengths) + 1
            for att, vertex in ((run.attach_lo, path[0]), (run.attach_hi, path[-1])):
                if att is not None:
                    assert vertex == pp._to_global(*att, rho, tau)[0]
                    seen["ends"] += 1
        return path

    def checked_candidates(anchoring, runs):
        for rho, tau in frame_candidates(anchoring, runs):
            for fa, va, fb, vb in anchoring.cross_eqs:
                assert pp._to_global(fa, va, None, rho, tau)[0] == pp._to_global(fb, vb, None, rho, tau)[0]
                seen["equations"] += 1
            yield rho, tau

    monkeypatch.setattr(pp, "_place_run", checked_place_run)
    monkeypatch.setattr(pp, "_frame_candidates", checked_candidates)
    for diagram in itertools.chain(forward_diagrams(40, seed=7), consistent_diagrams(80, seed=8), _two_frame_diagrams()):
        solve_pseudo_poly(diagram)
    assert seen["ends"] >= 1000 and seen["equations"] >= 5


@pytest.mark.parametrize(
    "attach_lo, attach_hi",
    [
        ((0, 2, None), None),
        (None, (0, 5, None)),
        ((1, -3, None), None),
        ((0, -3, None), (0, 7, None)),
        ((0, 7, None), (0, -3, None)),
        ((0, -3, None), (0, 0, None)),
    ],
    ids=["first-inside", "last-inside", "reflected-inside", "left-then-right", "right-then-left", "left-then-inside"],
)
def test_far_run_attached_inside_the_band_or_on_both_sides_gets_no_path(attach_lo, attach_hi):
    # the other curve spans [0, 4] at eps 2, so the band is [-2, 6]; frame 1
    # is reflected (rho = -1, tau = 0), so its value -3 is 3 globally
    run = Run("P", TYPE_FAR, 0, 1, (1, 1), attach_lo, attach_hi)
    assert _place_run(run, 0, 4, None, None, -1, 0, 2) is None


@pytest.mark.parametrize(
    "attach_lo, attach_hi, path",
    [
        ((0, -3, None), None, [-3, -4, -5]),
        ((1, 3, None), (0, -5, None), [-3, -4, -5]),
        ((0, -2, None), None, [-2, -3, -4]),
        (None, (0, 7, None), [7, 8, 7]),
        (None, None, [7, 8, 7]),
    ],
    ids=["left", "left-both-ends", "left-at-the-boundary", "right", "unattached"],
)
def test_far_run_lies_on_the_side_of_its_first_attachment(attach_lo, attach_hi, path):
    run = Run("P", TYPE_FAR, 0, 1, (1, 1), attach_lo, attach_hi)
    assert _place_run(run, 0, 4, None, None, -1, 0, 2) == path


# The 60 x 20 forward diagram at eps 20 quoted in bench/README.md.
_LONG_P = (
    0, -9, -11, -13, -14, -8, -16, -23, -21, -19, -15, -12, -9, -3, -5, -13, -19, -25, -27, -19,
    -9, 0, -9, -16, -20, -22, -17, -21, -24, -27, -21, -25, -22, -23, -18, -17, -9, -3, 3, -7,
    -13, -8, -4, -9, -15, -23, -14, -11, -14, -20, -10, -11, -6, -11, -1, -4, 2, -8, -3, -10, -17,
)
_LONG_Q = (0, -10, -15, -18, -10, -5, -10, -5, -7, -5, -7, -17, -8, -4, 2, 3, -1, 6, 11, 14, 13)


@pytest.mark.parametrize(
    "p, q, eps",
    [
        ((0, -6, 4), (-4, 2), 6),  # only the reflected frame placement exists
        ((-2, 6, 9), (2, 6, 11, 6, 13), 6),  # a frame spans more than 2*eps
        ((3, 4, 3, 0, -1), (0, -3, 0, 3, 0), 3),  # the same, with close runs on Q only
        # both curves have close runs
        ((0, 2, 8, 2, -4, 0, 1, 4, 1, 4, 1, -4, -5, -8), (16, 14, 12, 13, 12, 11, 6, 8, 10, 7, 8, 11), 19),
        (_LONG_P, _LONG_Q, 20),
    ],
)
def test_forward_diagram_solves_yes(p, q, eps):
    d = compute_diagram_1d(Curve1D(p), Curve1D(q), eps)
    w = solve_pseudo_poly(d)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, eps) == d
