import itertools
import random
import time
from fractions import Fraction

import pytest

from fsreal import (
    CellContent,
    Curve1D,
    FreeSpaceDiagram1D,
    brute_force_continuous_1d,
    check_foldable,
    compute_diagram_1d,
    extract_curves,
    gen_partition,
    gen_random_instance,
    infer_creases,
    solve_fpt,
    solve_pseudo_poly,
)
from fsreal import folding
from fsreal.folding import FOLD, STRAIGHT, UNKNOWN
from fsreal.model import consistency_problems, transpose_diagram

from conftest import divided_diagram, random_integer_diagram, random_rational_diagram


def test_infer_fold_at_alternating_slopes():
    # a fold at the shared vertex mirrors the slab: +45 then -45
    d = compute_diagram_1d(Curve1D([0, 2, 0]), Curve1D([0, 2]), 1)
    ca = infer_creases(d)
    assert ca.vertical == (FOLD,)
    assert not ca.contradictions


def test_infer_straight_continuation():
    d = compute_diagram_1d(Curve1D([0, 2, 4]), Curve1D([0, 2]), 1)
    ca = infer_creases(d)
    assert ca.vertical == (STRAIGHT,)


def test_infer_partition_interior_lines_unknown(partition_diagram):
    ca = infer_creases(partition_diagram)
    assert all(label == UNKNOWN for label in ca.vertical)
    assert ca.k == len(partition_diagram.col_widths) - 1
    assert not ca.contradictions


def test_infer_contradiction_reported():
    good = compute_diagram_1d(Curve1D([0, 2, 0]), Curve1D([0, 2]), 1)
    cells = [list(col) for col in good.cells]
    c = cells[1][0]
    cells[1][0] = CellContent(c.status, c.sigma, c.c_lo + 2, c.c_hi + 2)
    # structurally valid (the constructor checks it) but locally unmatchable
    bad = FreeSpaceDiagram1D(good.epsilon, good.col_widths, good.row_heights, cells)
    assert consistency_problems(bad)
    ca = infer_creases(bad)
    assert ca.contradictions


def test_check_foldable_trivial_pattern():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([0, 2]), 1)
    assert check_foldable(d, [], [])


def test_check_foldable_mirror_pair():
    d = compute_diagram_1d(Curve1D([0, 2, 0]), Curve1D([0, 2]), 1)
    assert check_foldable(d, [FOLD], [])
    assert not check_foldable(d, [STRAIGHT], [])


def test_check_foldable_partition_odd_all_assignments_false():
    d = gen_partition([1, 1, 1])
    k = len(d.col_widths) - 1
    for counter in range(1 << k):
        labels = [FOLD if (counter >> b) & 1 else STRAIGHT for b in range(k)]
        assert not check_foldable(d, labels, [])


def _assignments(diagram):
    """Every completion of the inferred labels: (vertical, horizontal)."""
    inferred = infer_creases(diagram)
    n_v = len(inferred.vertical)
    labels = inferred.vertical + inferred.horizontal
    open_lines = [i for i, label in enumerate(labels) if label == UNKNOWN]
    for choice in itertools.product((FOLD, STRAIGHT), repeat=len(open_lines)):
        full = list(labels)
        for i, label in zip(open_lines, choice):
            full[i] = label
        yield full[:n_v], full[n_v:]


def test_check_foldable_is_scale_invariant():
    # realizability is invariant under scaling, so every assignment must get
    # the same answer on the diagram and on an explicit copy L times its size
    # (L its scale), whose values are all integers
    rng = random.Random(11)
    checked = accepted = 0
    for _ in range(150):
        d = random_rational_diagram(rng)
        scaled = divided_diagram(d, Fraction(1, d.scale))
        assert scaled.scale == 1 and scaled.scaled_cells == d.scaled_cells
        for vertical, horizontal in _assignments(d):
            answer = check_foldable(d, vertical, horizontal)
            assert answer == check_foldable(scaled, vertical, horizontal), (d, vertical, horizontal)
            checked += 1
            accepted += answer
    # 716 of the assignments are on all-full diagrams, which extract_curves
    # places by the closed form whatever the labels: all are accepted
    assert (checked, accepted) == (1174, 1077)


def test_extract_single_partial_cell():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([0, 2]), 1)
    w = extract_curves(d, [], [])
    assert w.curve_p.vertices == (Fraction(0), Fraction(2))
    assert w.curve_q.vertices == (Fraction(0), Fraction(2))


def test_extract_all_empty_far_rule():
    d = FreeSpaceDiagram1D(1, [2], [2], [[CellContent.empty()]])
    w = extract_curves(d, [], [])
    assert w.curve_p.vertices == (Fraction(0), Fraction(2))
    assert w.curve_q.vertices == (Fraction(7), Fraction(9))
    assert compute_diagram_1d(w.curve_p, w.curve_q, 1) == d


def test_check_foldable_without_partial_cells():
    # extract_curves places a diagram without partial cells by the closed
    # form, unchecked; check_foldable's forward check is what rejects it
    mixed = FreeSpaceDiagram1D(2, [1, 1], [1], [[CellContent.full()], [CellContent.empty()]])
    assert extract_curves(mixed, [STRAIGHT], []) is not None
    assert not check_foldable(mixed, [STRAIGHT], []) and not check_foldable(mixed, [FOLD], [])
    fits = FreeSpaceDiagram1D(2, [1, Fraction(3, 2)], [1], [[CellContent.full()]] * 2)
    assert check_foldable(fits, [STRAIGHT], []) and check_foldable(fits, [FOLD], [])


def test_partition_witness_round_trip(partition_diagram):
    w = solve_fpt(partition_diagram)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, partition_diagram.epsilon) == partition_diagram


def test_solve_partition_yes(partition_diagram):
    assert solve_fpt(partition_diagram) is not None


def test_solve_partition_odd_sum_no():
    assert solve_fpt(gen_partition([1, 1, 1])) is None


def test_solve_rejects_malformed_diagram():
    # the diagram rejects itself when it is built, before a solver sees it
    with pytest.raises(ValueError, match=r"^invalid diagram: cell \(0,0\): slab width != 2\*eps$"):
        solve_fpt(FreeSpaceDiagram1D(1, [2], [2], [[CellContent.partial(1, 0, 1)]]))


def test_forward_diagrams_always_solve_yes_exactly():
    rng = random.Random(31)
    for seed in range(40):
        d = random_integer_diagram(seed, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3))
        w = solve_fpt(d)
        assert w is not None
        assert compute_diagram_1d(w.curve_p, w.curve_q, d.epsilon) == d


def test_agreement_with_brute_force():
    rng = random.Random(77)
    diagrams = [
        random_integer_diagram(seed + 500, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3))
        for seed in range(50)
    ]
    # mutated diagrams of the acceptance corpus's shape that get past the
    # consistency check and the crease inference, so FPT has to decide them
    for seed in range(2000):
        d = gen_random_instance(
            seed,
            kind="diagram",
            n_points=rng.randint(2, 8),
            m_points=rng.randint(2, 6),
            max_coord=5,
            eps=rng.randint(1, 3),
            mutate=True,
        )
        if not consistency_problems(d) and not infer_creases(d).contradictions:
            diagrams.append(d)
    answers = [solve_fpt(d) is not None for d in diagrams]
    assert len(diagrams) == 347 and answers.count(False) == 39
    for d, answer in zip(diagrams, answers):
        assert answer == (brute_force_continuous_1d(d) is not None), d


def test_fold_trace_extent_matches_accordion_image():
    # the witness's P folds back onto itself as the input's does, so it
    # spans exactly as far
    p = Curve1D([0, 3, 1, 4, 0])
    q = Curve1D([0, 2])
    d = compute_diagram_1d(p, q, 1)
    w = solve_fpt(d)
    assert w is not None
    assert max(w.curve_p.vertices) - min(w.curve_p.vertices) == max(p.vertices) - min(p.vertices)


def test_fold_alignment_rejects_one_bad_layer():
    # three layers fold onto each other; flipping one layer's slab must
    # refute the assignment even though the other two still agree
    p = Curve1D([0, 2, 0, 2])
    q = Curve1D([0, 2])
    d = compute_diagram_1d(p, q, 1)
    assert check_foldable(d, [FOLD, FOLD], [])
    cells = [list(col) for col in d.cells]
    c = cells[2][0]
    cells[2][0] = CellContent(c.status, -c.sigma, c.c_lo, c.c_hi)
    broken = FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, cells)
    assert not check_foldable(broken, [FOLD, FOLD], [])


def test_forward_diagrams_of_rational_curves_solve_yes():
    # the solver decides on the diagram's int numerators; the witness, ints
    # over the diagram's scale, must reproduce the rational diagram
    rng = random.Random(2024)
    for _ in range(60):
        d = random_rational_diagram(rng)
        w = solve_fpt(d)
        assert w is not None, d
        assert compute_diagram_1d(w.curve_p, w.curve_q, d.epsilon) == d


def test_partition_divided_by_three_keeps_its_answer():
    assert solve_fpt(divided_diagram(gen_partition([1, 1, 1]), 3)) is None
    assert solve_fpt(divided_diagram(gen_partition([1, 1, 4]), 3)) is None  # even sum, no balanced split
    balanced = divided_diagram(gen_partition([3, 2, 1, 2]), 3)
    w = solve_fpt(balanced)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, balanced.epsilon) == balanced


def _verified(diagram, witness) -> bool:
    return witness is not None and compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram


def test_sweep_decides_long_diagrams_and_large_partitions():
    # diagrams of the benchmark's long shape leave about a hundred crease
    # lines unknown, far beyond an enumeration of all 2^k assignments
    t0 = time.process_time()
    rng = random.Random(13)
    ks = []
    for index in range(10):
        n, m, eps = rng.randint(60, 200), rng.randint(2, 6), rng.randint(3, 20)
        d = random_integer_diagram(rng.randrange(1 << 30), n, m, eps, max_step=10)
        ks.append(infer_creases(d).k)
        assert _verified(d, solve_fpt(d)), index
        assert _verified(d, solve_pseudo_poly(d)), index
    assert min(ks) >= 30, ks
    t1 = time.process_time()
    assert solve_fpt(gen_partition([2] * 23 + [1])) is None  # k = 25, odd sum
    assert time.process_time() - t1 < 1.0
    assert time.process_time() - t0 < 20.0


def test_all_full_grid_takes_the_closed_form():
    # the 21 vertical lines stay unknown, and every completion of their
    # labels reproduces the diagram; the closed form asks only for the
    # smallest window of each curve
    d = FreeSpaceDiagram1D(100, [1] * 22, [1], [[CellContent.full()] for _ in range(22)])
    assert infer_creases(d).k == 21
    t0 = time.process_time()
    w = solve_fpt(d)
    assert time.process_time() - t0 < 0.5
    assert _verified(d, w)


def test_all_full_closed_form_is_magnitude_safe():
    # few long segments: the window search keeps at most 2^(n-i) pairs of
    # room per vertex, so it needs no table as wide as the lengths, which
    # the rational grid scales to about 10^6 and 10^12
    full = CellContent.full()
    big = 10**6
    rng = random.Random(8)
    grids = [
        (big, [big], [1]),
        (1, [Fraction(1, 1000003), Fraction(1, 999983)], [1]),
        (10**8, [rng.randint(1, big) for _ in range(16)], [rng.randint(1, big) for _ in range(3)]),
        # P = (10^6, 1, 10^6) needs a window of 10^6 + 1, and Q = (10^6)
        # one of 10^6: more than 2*eps together
        (big, [big, 1, big], [big]),
    ]
    t0 = time.process_time()
    answers = []
    for eps, widths, heights in grids:
        d = FreeSpaceDiagram1D(eps, widths, heights, [[full] * len(heights) for _ in widths])
        for solver in (solve_fpt, solve_pseudo_poly):
            w = solver(d)
            assert w is None or _verified(d, w)
            answers.append(w is not None)
    assert time.process_time() - t0 < 0.5
    assert answers == [True] * 6 + [False] * 2


def test_transposed_diagram_gets_the_same_verdict(monkeypatch):
    # solve_fpt enumerates the side with fewer unknown lines; it hands
    # _sweep the diagram itself when that side is Q and the transposed one
    # when it is P
    branches = []
    current = []
    sweep = folding._sweep

    def recorded(d, labels):
        branches.append("Q" if d == current[-1] else "P")
        return sweep(d, labels)

    monkeypatch.setattr(folding, "_sweep", recorded)
    rng = random.Random(41)
    diagrams = []
    for seed in range(150):
        diagrams.append(random_integer_diagram(seed, rng.randint(1, 9), rng.randint(1, 5), rng.randint(1, 3)))
        diagrams.append(
            gen_random_instance(
                seed,
                kind="diagram",
                n_points=rng.randint(2, 8),
                m_points=rng.randint(2, 6),
                max_coord=5,
                eps=rng.randint(1, 3),
                mutate=True,
            )
        )
    for index, d in enumerate(diagrams):
        t = transpose_diagram(d)
        assert transpose_diagram(t) == d
        answers = []
        for instance in (d, t):
            current.append(instance)
            witness = solve_fpt(instance)
            assert witness is None or _verified(instance, witness), index
            answers.append(witness is not None)
        assert answers[0] == answers[1], index
    assert len(diagrams) == 300
    assert branches.count("Q") >= 50 and branches.count("P") >= 50, (branches.count("Q"), branches.count("P"))
