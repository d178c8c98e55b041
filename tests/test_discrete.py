import copy
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from fsreal import FreeSpaceMatrix, PointSeq1D, compute_matrix, discrete, solve_discrete_1d, verify_witness
from fsreal.bruteforce import brute_force_discrete_1d
from fsreal.formats import parse, serialize
from fsreal.discrete import (
    OrderState,
    bfs_partial_order,
    build_arrangement,
    build_uig,
    choose_left_anchor,
    extend_global_order,
    refine_by_d,
    refine_by_rows,
    twin_quotient,
    verify_and_witness,
)


def test_build_uig_path():
    g = build_uig(FreeSpaceMatrix([[1, 1, 0], [0, 1, 1]]))
    assert g.adj == [0b010, 0b101, 0b010]


def test_build_uig_two_components():
    g = build_uig(FreeSpaceMatrix([[1, 0], [0, 1]]))
    assert g.adj == [0, 0]
    assert g.components() == [[0], [1]]


def test_build_uig_triangle():
    g = build_uig(FreeSpaceMatrix([[1, 1, 1]] * 3))
    assert g.adj == [0b110, 0b101, 0b011]


def test_build_uig_matches_cooccurrence_matrix():
    # sides above 64 with repeated rows; the reference is the co-occurrence
    # matrix E^T E with the diagonal cleared
    rng = np.random.default_rng(3)
    for n, m, density in ((80, 70, 0.05), (200, 90, 0.3), (70, 300, 0.02)):
        base = (rng.random((n // 2, m)) < density).astype(np.uint8)
        ent = base[rng.integers(0, len(base), size=n)]
        co = (ent.T.astype(np.int64) @ ent.astype(np.int64)) > 0
        np.fill_diagonal(co, False)
        g = build_uig(FreeSpaceMatrix(ent))
        assert g.adj == [sum(1 << int(u) for u in np.flatnonzero(co[v])) for v in range(m)]


def test_anchor_candidates_on_path():
    g = build_uig(FreeSpaceMatrix([[1, 1, 0], [0, 1, 1]]))
    classes = choose_left_anchor(g, [0, 1, 2], start=1)
    assert classes == [[0], [2]]  # two singleton candidate classes


def test_anchor_single_vertex():
    g = build_uig(FreeSpaceMatrix([[1]]))
    assert choose_left_anchor(g, [0]) == [[0]]


def test_claw_is_not_realizable():
    # star K_{1,3}: center column 0 shares a row with each leaf
    m = FreeSpaceMatrix([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    assert brute_force_discrete_1d(m) is None
    assert solve_discrete_1d(m) is None


def test_bfs_levels_match_graph_distance():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(2, 6)
        n = rng.randint(1, 5)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        g = build_uig(FreeSpaceMatrix(ent))
        comp = g.components()[0]
        state = bfs_partial_order(g, [comp[0]])
        # independent BFS distance check
        dist = {comp[0]: 1}
        frontier = [comp[0]]
        while frontier:
            nxt = []
            for v in frontier:
                u = g.adj[v]
                while u:
                    w = (u & -u).bit_length() - 1
                    u &= u - 1
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert state.level == dist


def test_refine_by_d_orders_levels():
    # two same-level vertices, one with two next-level neighbors vs none
    #   anchor - a, anchor - b, a - c, a - d
    ent = [
        [1, 1, 0, 0, 0],  # anchor~a
        [1, 0, 1, 0, 0],  # anchor~b
        [0, 1, 0, 1, 0],  # a~c
        [0, 1, 0, 0, 1],  # a~d
    ]
    g = build_uig(FreeSpaceMatrix(ent))
    state = bfs_partial_order(g, [0])
    refine_by_d(g, state)
    assert state.level[1] == state.level[2] == 2
    assert state.d_value[1] > state.d_value[2]


def test_refine_by_d_twins_incomparable():
    g = build_uig(FreeSpaceMatrix([[1, 1, 1]]))
    state = bfs_partial_order(g, [0])
    refine_by_d(g, state)
    assert state.d_value[1] == state.d_value[2]
    assert any(set(cls) == {1, 2} for cls in state.classes)


def test_refine_by_rows_pulls_subset_toward_outside_member():
    # intervals a=0, b=1, c=2, d=3; row {a, c}; class {b, c, d} with a before
    state = OrderState(vertices=[0, 1, 2, 3], level={0: 1, 1: 2, 2: 2, 3: 2})
    state.d_value = {0: 0, 1: 0, 2: 0, 3: 0}
    state.classes = [[0], [1, 2, 3]]
    state.class_of = {0: 0, 1: 1, 2: 1, 3: 1}
    assert refine_by_rows(state, [0b0101]) is not None
    order = extend_global_order(state)
    assert order is not None
    assert order.index(2) < order.index(1) and order.index(2) < order.index(3)


def test_refine_by_rows_inside_one_class_is_handled_at_extension():
    state = OrderState(vertices=[0, 1, 2], level={0: 1, 1: 1, 2: 1})
    state.d_value = {0: 0, 1: 0, 2: 0}
    state.classes = [[0, 1, 2]]
    state.class_of = {0: 0, 1: 0, 2: 0}
    refine_by_rows(state, [0b011])
    assert state.constraints == {}
    assert state.within_rows == {0: [0b011]}
    assert extend_global_order(state) is not None


def test_refine_by_rows_direct_contradiction():
    # outside members on both sides of the class pull the same proper subset
    state = OrderState(
        vertices=[0, 1, 2, 3], level={0: 1, 1: 2, 2: 2, 3: 3}
    )
    state.d_value = {0: 0, 1: 0, 2: 0, 3: 0}
    state.classes = [[0], [1, 2], [3]]
    state.class_of = {0: 0, 1: 1, 2: 1, 3: 2}
    assert refine_by_rows(state, [0b1011]) is None


def _ordered_classes():
    # classes in (level, D) order: [3], [1, 2], [0]; the column order differs,
    # so a row's lowest column can lie in a later class than another one the
    # row touches
    state = OrderState(vertices=[0, 1, 2, 3], level={3: 1, 1: 2, 2: 2, 0: 3})
    state.d_value = {0: 0, 1: 0, 2: 0, 3: 0}
    state.classes = [[3], [1, 2], [0]]
    state.class_of = {3: 0, 1: 1, 2: 1, 0: 2}
    return state


def test_refine_by_rows_sides_follow_class_order_not_column_order():
    state = _ordered_classes()
    # row {0, 2} visits class 2 (column 0) before class 1, yet pulls {2} to
    # the right of class 1; row {1, 3} visits class 1 before class 0, yet
    # pulls {1} to the left
    assert refine_by_rows(state, [0b0101, 0b1010]) is not None
    assert state.constraints == {1: [(0b0100, "right"), (0b0010, "left")]}
    assert extend_global_order(state) == [3, 1, 2, 0]


def test_refine_by_rows_contradiction_across_column_order():
    # {0, 1, 3} meets class 1 in {1} and reaches classes 0 and 2 on both sides;
    # it visits class 2 first and class 0 last
    assert refine_by_rows(_ordered_classes(), [0b1011]) is None


def test_refine_by_rows_singleton_classes_yield_nothing():
    # no singleton class can be cut: no rule and no within-class row
    state = OrderState(vertices=[0, 1, 2], level={0: 1, 1: 2, 2: 3})
    state.d_value = {0: 0, 1: 0, 2: 0}
    state.classes = [[0], [1], [2]]
    state.class_of = {0: 0, 1: 1, 2: 2}
    assert refine_by_rows(state, [0b011, 0b110, 0b010, 0b111]) is state
    assert state.constraints == {} and state.within_rows == {}


def _reference_refine_by_rows(state, rows):
    """Row refinement one column at a time: every class the row touches, in
    order of the row's lowest column in each, with the least and greatest
    touched class index deciding the sides."""
    class_masks = [sum(1 << v for v in cls) for cls in state.classes]
    for row in rows:
        touched = []
        lo, hi = len(class_masks), -1
        u = row
        while u:
            idx = state.class_of[(u & -u).bit_length() - 1]
            sub = row & class_masks[idx]
            touched.append((idx, sub))
            lo, hi = min(lo, idx), max(hi, idx)
            u &= ~sub
        if len(touched) == 1:
            ((idx, sub),) = touched
            if sub != class_masks[idx]:
                state.within_rows.setdefault(idx, []).append(sub)
            continue
        for idx, sub in touched:
            if sub == class_masks[idx]:
                continue
            if lo < idx < hi:
                return None
            if lo < idx:
                state.constraints.setdefault(idx, []).append((sub, "left"))
            elif hi > idx:
                state.constraints.setdefault(idx, []).append((sub, "right"))
    return state


def _fresh(state):
    """A copy of ``state`` whose refinement records can be written to."""
    fresh = copy.copy(state)
    fresh.constraints = {k: list(v) for k, v in state.constraints.items()}
    fresh.within_rows = {k: list(v) for k, v in state.within_rows.items()}
    return fresh


def _compare_refinements(monkeypatch, matrices):
    """Solve the matrices with every ``refine_by_rows`` call checked against
    the reference on a copy of the state it is passed. Returns the number of
    calls, of refusals, and the most classes a checked state had."""
    seen = {"calls": 0, "refused": 0, "classes": 0}
    real = discrete.refine_by_rows

    def checked(state, rows):
        expected = _reference_refine_by_rows(_fresh(state), rows)
        got = real(state, rows)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got.constraints, got.within_rows) == (expected.constraints, expected.within_rows)
        seen["calls"] += 1
        seen["refused"] += got is None
        seen["classes"] = max(seen["classes"], len(state.classes))
        return got

    monkeypatch.setattr(discrete, "refine_by_rows", checked)
    for matrix in matrices:
        solve_discrete_1d(matrix)
    monkeypatch.undo()
    return seen


def test_refine_by_rows_matches_reference_on_4x4(monkeypatch):
    # every state the solver builds over all 4x4 matrices: it decides the
    # twin quotient, so solving each distinct quotient once builds them all.
    # None of them refuses a row.
    quotients = {}
    for code in range(1 << 16):
        quotient = twin_quotient(FreeSpaceMatrix.from_row_masks(4, [code >> 4 * r & 15 for r in range(4)]))[0]
        quotients.setdefault((quotient.m_cols, tuple(quotient.row_masks)), quotient)
    seen = _compare_refinements(monkeypatch, quotients.values())
    assert seen["calls"] > 70_000


def test_refine_by_rows_matches_reference_on_walks_and_random(monkeypatch):
    # walk matrices of both regimes, the same with a few cells flipped, and
    # random matrices of 6 to 12 columns, which reach the refusals
    rng = random.Random(31)
    matrices = []
    for giant in (True, False):
        for n, m in ((150, 1000), (400, 400), (1000, 150)):
            walk = _walk_matrix(rng, n, m, giant)
            flipped = list(walk.row_masks)
            for _ in range(4):
                flipped[rng.randrange(n)] ^= 1 << rng.randrange(m)
            matrices += [walk, FreeSpaceMatrix.from_row_masks(m, flipped)]
    for _ in range(300):
        n, m, density = rng.randint(4, 12), rng.randint(6, 12), rng.uniform(0.15, 0.5)
        matrices.append(FreeSpaceMatrix([[int(rng.random() < density) for _ in range(m)] for _ in range(n)]))
    seen = _compare_refinements(monkeypatch, matrices)
    assert seen["refused"] > 50 and seen["calls"] > 2 * seen["refused"]
    assert seen["classes"] > 60  # the giant walks, most classes singletons


def _one_class(n, rules):
    state = OrderState(vertices=list(range(n)), level=dict.fromkeys(range(n), 1))
    state.d_value = dict.fromkeys(range(n), 0)
    state.classes = [list(range(n))]
    state.class_of = dict.fromkeys(range(n), 0)
    state.constraints = {0: rules}
    return state


def test_extension_honours_right_rule():
    assert extend_global_order(_one_class(3, [(0b001, "right")])) == [1, 2, 0]
    assert extend_global_order(_one_class(4, [(0b0011, "left"), (0b1000, "right")])) == [0, 1, 2, 3]


@pytest.mark.parametrize("side", ["left", "right"])
def test_extension_rejects_subset_straddling_earlier_blocks(side):
    # {0, 1} | {2, 3}, then {1, 2} meets both blocks and cannot be one end
    assert extend_global_order(_one_class(4, [(0b0011, "left"), (0b0110, side)])) is None


def test_extension_tie_break_by_index():
    state = OrderState(vertices=[0, 1], level={0: 1, 1: 1})
    state.d_value = {0: 0, 1: 0}
    state.classes = [[0, 1]]
    state.class_of = {0: 0, 1: 0}
    assert extend_global_order(state) == [0, 1]


def test_extension_detects_conflicting_pulls():
    state = OrderState(vertices=[0, 1], level={0: 1, 1: 1})
    state.d_value = {0: 0, 1: 0}
    state.classes = [[0, 1]]
    state.class_of = {0: 0, 1: 0}
    state.constraints = {0: [(0b01, "left"), (0b01, "right")]}
    assert extend_global_order(state) is None


def test_arrangement_path_intersections_match_graph():
    # centers are ints in units of 1/(8m): the interval width 2*eps is 8m
    g = build_uig(FreeSpaceMatrix([[1, 1, 0], [0, 1, 1]]))
    pos = build_arrangement([0, 1, 2], g)
    assert pos is not None
    for u in range(3):
        for v in range(u + 1, 3):
            touching = abs(pos[u] - pos[v]) <= 8 * 3
            assert touching == bool(g.adj[u] >> v & 1)


def test_arrangement_single_vertex():
    g = build_uig(FreeSpaceMatrix([[1]]))
    pos = build_arrangement([0], g)
    assert pos == {0: 0} and type(pos[0]) is int


def test_arrangement_triangle_fits_unit_window():
    g = build_uig(FreeSpaceMatrix([[1, 1, 1]]))
    pos = build_arrangement([0, 1, 2], g)
    assert pos is not None
    assert max(pos.values()) - min(pos.values()) <= 8 * 3


def test_verify_and_witness_finds_prescribed_cells():
    g = build_uig(FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]))
    pos = build_arrangement([0, 1], g)
    placed = verify_and_witness(pos, [0b01, 0b11, 0b10])
    assert placed is not None and set(placed) == {0, 1, 2}
    assert all(type(x) is int for x in placed.values())


def test_solve_trivial_yes():
    assert solve_discrete_1d([[1]]) is not None


def test_solve_fixture_no():
    assert solve_discrete_1d([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) is None


def test_solve_fixture_yes_with_verified_witness():
    m = FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]])
    w = solve_discrete_1d(m)
    assert w is not None
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == m


def test_solve_all_zero_matrix():
    m = FreeSpaceMatrix([[0, 0], [0, 0]])
    w = solve_discrete_1d(m)
    assert w is not None
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == m


def test_solve_rescales_to_caller_epsilon():
    m = FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]])
    w = solve_discrete_1d(m, eps=3)
    assert w.epsilon == Fraction(3)
    assert compute_matrix(w.curve_p, w.curve_q, 3) == m


@pytest.mark.parametrize("eps", [0, -1, "-1/2"])
def test_solve_rejects_nonpositive_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        solve_discrete_1d(FreeSpaceMatrix([[1]]), eps=eps)


def test_column_permutation_preserves_answer():
    rng = random.Random(9)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(2, 5)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        matrix = FreeSpaceMatrix(ent)
        perm = list(range(m))
        rng.shuffle(perm)
        permuted = FreeSpaceMatrix([[row[p] for p in perm] for row in ent])
        assert (solve_discrete_1d(matrix) is None) == (solve_discrete_1d(permuted) is None)


def test_agreement_with_oracle_random_m5():
    rng = random.Random(21)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(2, 5)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        matrix = FreeSpaceMatrix(ent)
        assert (solve_discrete_1d(matrix) is not None) == (
            brute_force_discrete_1d(matrix) is not None
        )


def _assert_verified_yes(matrix):
    w = solve_discrete_1d(matrix)
    assert w is not None
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == matrix


def test_interleaved_components_with_empty_rows():
    # components {0, 2, 4} (a path) and {1, 3}; rows 2 and 5 are empty
    ent = [
        [1, 0, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ]
    matrix = FreeSpaceMatrix(ent)
    assert sorted(build_uig(matrix).components()) == [[0, 2, 4], [1, 3]]
    _assert_verified_yes(matrix)


def test_permuted_block_diagonal_agrees_with_oracle():
    # 2 or 3 random blocks of at most 5 columns in all (the oracle's cost
    # grows steeply beyond), plus an empty row; rows and columns shuffled.
    # Most draws are realizable, so draw until 20 unrealizable ones are seen.
    rng = random.Random(33)
    verdicts = []
    for _ in range(1000):
        sizes = rng.choice([[4, 1], [3, 2], [3, 1, 1], [2, 2, 1]])
        rng.shuffle(sizes)
        m = sum(sizes)
        ent = [[0] * m]
        start = 0
        for k in sizes:
            for _ in range(rng.randint(1, 6)):
                row = [0] * m
                row[start:start + k] = [rng.randint(0, 1) for _ in range(k)]
                ent.append(row)
            start += k
        rng.shuffle(ent)
        perm = list(range(m))
        rng.shuffle(perm)
        matrix = FreeSpaceMatrix([[row[p] for p in perm] for row in ent])
        expected = brute_force_discrete_1d(matrix) is not None
        solved = solve_discrete_1d(matrix)
        assert (solved is not None) == expected
        if solved is not None:
            assert compute_matrix(solved.curve_p, solved.curve_q, solved.epsilon) == matrix
        verdicts.append(expected)
        if verdicts.count(False) == 20:
            break
    assert verdicts.count(False) == 20 and verdicts.count(True) >= 20


def _walks(rng, n, m=None):
    """Two integer walks of n and m points (m defaults to n) with steps
    -9..9, Q shifted to P's median."""
    m = n if m is None else m
    p, q = [0], [0]
    for k in range(1, max(n, m)):
        if k < n:
            p.append(p[-1] + rng.randint(-9, 9))
        if k < m:
            q.append(q[-1] + rng.randint(-9, 9))
    shift = sorted(p)[n // 2] - sorted(q)[m // 2]
    return p, [x + shift for x in q]


def _walk_matrix(rng, n, m, giant):
    """The n x m matrix of two walks: at eps 1/16 of their range it has one
    giant UIG component, at eps 1 several."""
    p, q = _walks(rng, n, m)
    eps = max(9, (max(p + q) - min(p + q)) // 16) if giant else 1
    return compute_matrix(p, q, eps)


def test_forward_walk_matrices_solve_yes():
    rng = random.Random(5)
    for giant in (True, False):
        for _ in range(3):
            matrix = _walk_matrix(rng, 200, 200, giant)
            sizes = [len(c) for c in build_uig(matrix).components()]
            assert max(sizes) > 100 if giant else len(sizes) >= 5
            _assert_verified_yes(matrix)


def _transpose(matrix):
    return FreeSpaceMatrix([list(col) for col in zip(*matrix.tolist())])


def _solve_checked(matrix):
    """The verdict of ``solve_discrete_1d``, its witness checked forward."""
    witness = solve_discrete_1d(matrix)
    assert witness is None or verify_witness(witness, matrix)
    return witness is not None


def test_walk_verdicts_hold_under_permutations_transpose_and_subsets():
    # past the oracles' caps, the verdict is checked against itself: a row
    # permutation, a column permutation and the transpose keep it, and every
    # row-and-column subset of a YES matrix is YES (restrict the witness)
    rng = random.Random(29)
    matrices = []
    for giant in (True, False):
        for side in (60, 100, 140, 200) * 2:
            walk = _walk_matrix(rng, side, side, giant)
            flipped = walk.tolist()
            for _ in range(4):
                row = flipped[rng.randrange(side)]
                row[rng.randrange(side)] ^= 1
            matrices += [walk, FreeSpaceMatrix(flipped)]
    noes = 0
    for k, matrix in enumerate(matrices):
        verdict = _solve_checked(matrix)
        # the walks are forward-built; the flipped copies may go either way
        assert verdict or k % 2
        rows = matrix.tolist()
        n, m = matrix.n_rows, matrix.m_cols
        cols = rng.sample(range(m), m)
        variants = [
            FreeSpaceMatrix(rng.sample(rows, n)),
            FreeSpaceMatrix([[row[j] for j in cols] for row in rows]),
            _transpose(matrix),
        ]
        assert [_solve_checked(variant) for variant in variants] == [verdict] * 3
        if not verdict:
            noes += 1
            continue
        for _ in range(5):
            sub_rows = sorted(rng.sample(range(n), rng.randint(1, n)))
            sub_cols = sorted(rng.sample(range(m), rng.randint(1, m)))
            assert _solve_checked(FreeSpaceMatrix([[rows[i][j] for j in sub_cols] for i in sub_rows]))
    assert noes == 16


def test_discrete_builds_no_fractions(monkeypatch):
    # the solver places its witness on one int grid and builds the point
    # sequences in their int form; the forward check and serialization read
    # those ints. No Fraction is built in discrete, forward or formats,
    # counted at the first caller outside fractions (Fraction arithmetic
    # builds its result there)
    rng = random.Random(17)
    cases = []
    for _ in range(30):
        p = PointSeq1D(Fraction(rng.randint(-60, 60), rng.choice([1, 3, 7])) for _ in range(rng.randint(1, 8)))
        q = PointSeq1D(Fraction(rng.randint(-60, 60), rng.choice([1, 2, 5])) for _ in range(rng.randint(1, 8)))
        cases.append((compute_matrix(p, q, Fraction(rng.randint(1, 30), rng.choice([1, 3, 4]))), None))
    for _ in range(30):
        n, m = rng.randint(3, 8), rng.randint(1, 6)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        ent[rng.randrange(n)] = [0] * m
        cases.append((FreeSpaceMatrix(ent), rng.choice([Fraction(1, 2), Fraction(5, 3), 2])))
    for _ in range(3):
        p, q = _walks(rng, 60)
        cases.append((compute_matrix(p, q, 1), Fraction(7, 11)))
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
    answers = []
    for matrix, eps in cases:
        witness = solve_discrete_1d(matrix) if eps is None else solve_discrete_1d(matrix, eps)
        if witness is None:
            answers.append(None)
        else:
            text = serialize(witness)
            again = parse(text)
            answers.append(verify_witness(again, matrix) and serialize(again) == text)
        serialize(matrix)
    modules = ("fsreal.discrete", "fsreal.forward", "fsreal.formats")
    assert [counts.get(name, 0) for name in modules] == [0, 0, 0], counts
    monkeypatch.undo()
    assert all(answers[:30]) and all(answers[-3:]) and None in answers and all(a in (True, None) for a in answers)
    assert max(len(build_uig(matrix).components()) for matrix, _ in cases[-3:]) >= 5


def test_twin_quotient_keeps_first_occurrences():
    # rows 0 and 2 are equal, as are columns 0 and 3; column 2 is all zero
    matrix = FreeSpaceMatrix([[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 0, 1], [1, 0, 0, 1]])
    quotient, row_class, col_class = twin_quotient(matrix)
    assert quotient == FreeSpaceMatrix([[1, 1, 0], [0, 1, 0], [1, 0, 0]])
    assert row_class == [0, 1, 0, 2]
    assert col_class == [0, 1, 2, 0]


def test_twin_free_matrix_is_its_own_quotient():
    matrix = FreeSpaceMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert twin_quotient(matrix) == (matrix, [0, 1, 2], [0, 1, 2])


def _reference_quotient(matrix):
    """Columns grouped by their column tuple and rows by their row tuple,
    each group in order of first occurrence."""
    rows = [tuple(row) for row in matrix.tolist()]
    col_index: dict[tuple, int] = {}
    col_class = [col_index.setdefault(col, len(col_index)) for col in zip(*rows)]
    row_index: dict[tuple, int] = {}
    row_class = [row_index.setdefault(row, len(row_index)) for row in rows]
    firsts = [col_class.index(k) for k in range(len(col_index))]
    quotient = FreeSpaceMatrix([[row[j] for j in firsts] for row in row_index])
    return quotient, row_class, col_class


def test_twin_quotient_matches_reference():
    rng = random.Random(8)
    matrices = []
    for _ in range(400):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.random()
        matrices.append(FreeSpaceMatrix([[int(rng.random() < density) for _ in range(m)] for _ in range(n)]))
    for giant in (True, False):
        for n, m in ((150, 1000), (1000, 150), (400, 400), (60, 90)):
            matrices.append(_walk_matrix(rng, n, m, giant))
    walks = matrices[400:]
    # edge shapes: one row, one column, one distinct row, all 0, all 1,
    # first and last columns twins, widths around byte and word boundaries,
    # a width past the int/str digit limit for base 10 (4300 digits), and a
    # dense matrix in which every row and every column is distinct
    matrices += [FreeSpaceMatrix([[1, 0, 1, 1, 0]]), FreeSpaceMatrix([[1], [0], [1], [1]])]
    matrices += [FreeSpaceMatrix([[0, 1, 1, 0, 1, 0]] * 5)]
    matrices += [FreeSpaceMatrix([[b] * m for _ in range(n)]) for b in (0, 1) for n, m in ((1, 1), (3, 7), (6, 2))]
    matrices += [FreeSpaceMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [1, 1, 0, 1, 1]])]
    for m in (7, 8, 9, 63, 64, 65):
        for density in (0.1, 0.5, 0.9):
            matrices.append(FreeSpaceMatrix.from_row_masks(m, [_random_mask(rng, m, density) for _ in range(12)]))
    matrices.append(FreeSpaceMatrix.from_row_masks(5000, [rng.getrandbits(5000) for _ in range(3)]))
    dense = FreeSpaceMatrix.from_row_masks(200, [rng.getrandbits(200) for _ in range(200)])
    matrices.append(dense)
    for matrix in matrices:
        assert twin_quotient(matrix) == _reference_quotient(matrix)
    assert twin_quotient(dense)[0] == dense
    # the walks merge many twins: columns in the giant regime, rows in both
    quotients = [twin_quotient(matrix)[0] for matrix in walks]
    assert quotients[0].m_cols < 200 and all(q.n_rows < matrix.n_rows for q, matrix in zip(quotients, walks))


def _random_mask(rng, m, density):
    mask = 0
    for v in range(m):
        if rng.random() < density:
            mask |= 1 << v
    return mask


def _blow_up(rng, ent):
    """``ent`` with each row and each column repeated 1 to 3 times, then the
    rows and the columns shuffled."""
    rows = [row for row in ent for _ in range(rng.randint(1, 3))]
    cols = [j for j in range(len(ent[0])) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    rng.shuffle(cols)
    return FreeSpaceMatrix([[row[j] for j in cols] for row in rows])


def _assert_twins_share_points(matrix, witness):
    """Equal rows got equal P values, equal columns equal Q values, and the
    witness reproduces the matrix."""
    rows = [tuple(row) for row in matrix.tolist()]
    for points, lines in ((witness.curve_p.points, rows), (witness.curve_q.points, list(zip(*rows)))):
        first: dict[tuple, Fraction] = {}
        for line, x in zip(lines, points):
            assert first.setdefault(line, x) == x
    assert compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == matrix


def test_twin_blow_up_keeps_verdict_and_twins_share_points():
    # bases: random matrices of at most 5 columns, labelled by the oracle,
    # and round trips of small integer point sets, YES by construction
    rng = random.Random(12)
    bases = []
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        bases.append((ent, brute_force_discrete_1d(FreeSpaceMatrix(ent)) is not None))
    for _ in range(50):
        p = [rng.randint(-15, 15) for _ in range(rng.randint(1, 10))]
        q = [rng.randint(-15, 15) for _ in range(rng.randint(1, 10))]
        bases.append((compute_matrix(p, q, rng.randint(1, 5)).tolist(), True))
    verdicts = []
    for ent, expected in bases:
        blown = _blow_up(rng, ent)
        witness = solve_discrete_1d(blown)
        assert (witness is not None) == expected
        if witness is not None:
            _assert_twins_share_points(blown, witness)
        verdicts.append(expected)
    assert verdicts.count(False) >= 15 and verdicts.count(True) >= 150


def test_zero_column_block_and_empty_rows_share_points():
    rng = random.Random(4)
    # a path with a block of three all-zero columns, and an empty row
    ent = [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0]]
    blown = _blow_up(rng, ent)
    witness = solve_discrete_1d(blown)
    assert witness is not None
    _assert_twins_share_points(blown, witness)
    assert len(set(witness.curve_q.points)) == 4  # three path columns, one zero class
    # every row empty: one point for P, one for Q
    for n, m in ((1, 1), (3, 4), (5, 2)):
        empty = FreeSpaceMatrix([[0] * m for _ in range(n)])
        witness = solve_discrete_1d(empty)
        assert witness is not None
        _assert_twins_share_points(empty, witness)
        assert len(set(witness.curve_p.points)) == len(set(witness.curve_q.points)) == 1
