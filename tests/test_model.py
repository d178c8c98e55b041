import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from fsreal import (
    CellContent,
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    compute_diagram_1d,
    compute_matrix,
    gen_partition,
    gen_random_instance,
    rat,
    rat_str,
    solve_discrete_1d,
    solve_fpt,
    solve_pseudo_poly,
)
from fsreal.model import (
    EMPTY,
    PARTIAL,
    cell_edge_interval,
    checked_epsilon,
    classify_slab,
    consistency_problems,
    scaled_str,
    structural_problems,
)

from conftest import divided_diagram, random_integer_diagram, random_rational_diagram, scrambled_diagram


def test_rat_parsing():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(2, 4)) == Fraction(1, 2)
    assert rat_str(Fraction(6, 4)) == "3/2"
    assert rat_str(Fraction(5)) == "5"
    assert [scaled_str(v, s) for v, s in ((-6, 8), (8, 4), (0, 5), (7, 1), (3, 6))] == ["-3/4", "2", "0", "7", "1/2"]


def test_constructors_read_strings_as_int_pairs():
    # "num/den" strings are scaled as int pairs, unreduced and with the sign
    # on either side, to the same canonical form as their Fractions
    curve = Curve1D(["6/8", "3/-4", " 1_000 ", 2])
    assert (curve.scale, curve.scaled_vertices) == (4, (3, -3, 4000, 8))
    assert curve == Curve1D([Fraction(3, 4), Fraction(-3, 4), 1000, 2])
    points = PointSeq1D(["-2/-6", "4/6"])
    assert (points.scale, points.scaled_points) == (3, (1, 2))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        Curve1D(["0", "1/0"])
    with pytest.raises(ValueError, match="bad rational"):
        PointSeq1D(["1/2/3"])


def test_rational_arithmetic_is_exact():
    rng = random.Random(0)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        assert (a + b) - b == a


def test_curve1d_invariants():
    c = Curve1D([0, 2, 1])
    assert c.vertices == (Fraction(0), Fraction(2), Fraction(1))
    v = c.scaled_vertices
    assert [1 if b > a else -1 for a, b in zip(v, v[1:])] == [1, -1]  # it folds at vertex 1
    with pytest.raises(ValueError):
        Curve1D([0])
    with pytest.raises(ValueError):
        Curve1D([0, 0, 1])


def test_point_seq_allows_repeats():
    s = PointSeq1D([1, 1, 2])
    assert len(s) == 3


def test_point_seq_int_form():
    s = PointSeq1D([Fraction(1, 2), 1, Fraction(-3, 4)])
    assert (s.scale, s.scaled_points) == (4, (2, 4, -3))
    assert s.points == (Fraction(1, 2), Fraction(1), Fraction(-3, 4))
    t = PointSeq1D.from_scaled(8, [4, 8, -6])
    assert (t.scale, t.scaled_points) == (4, (2, 4, -3))
    assert t == s and hash(t) == hash(s)
    assert PointSeq1D(["1/2", "1", "-3/4"]) == s
    with pytest.raises(ValueError):
        PointSeq1D([])
    with pytest.raises(ValueError):
        PointSeq1D.from_scaled(8, [])
    # compute_matrix reads the same ints from raw lists, curves and point
    # sequences, and agrees with the definition on Fractions
    rng = random.Random(17)
    for _ in range(60):
        p, q = ([Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7]))] for _ in range(2))
        for pts in (p, q):
            k = rng.randint(2, 7)
            while len(pts) < k:
                v = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 7]))
                if v != pts[-1]:
                    pts.append(v)
        eps = Fraction(rng.randint(1, 40), rng.choice([1, 2, 3, 10]))
        expected = [[int(abs(a - b) <= eps) for b in q] for a in p]
        assert compute_matrix(p, q, eps).tolist() == expected
        for cp, cq in ((PointSeq1D(p), PointSeq1D(q)), (Curve1D(p), Curve1D(q)), (Curve1D(p), q), (p, PointSeq1D(q))):
            assert compute_matrix(cp, cq, eps).tolist() == expected


_BAD_SCALES = [0, -1, -4, True, 1.0, Fraction(1), "1", None]


@pytest.mark.parametrize("scale", _BAD_SCALES)
def test_curve_from_scaled_rejects_a_scale_that_is_not_a_positive_int(scale):
    # at scale -1 the ints [0, 1] would be the vertices (0, -1)
    with pytest.raises(ValueError, match="scale must be a positive int"):
        Curve1D.from_scaled(scale, [0, 1])
    assert Curve1D.from_scaled(1, [0, 1]) == Curve1D([0, 1])


@pytest.mark.parametrize("scale", _BAD_SCALES)
def test_point_seq_from_scaled_rejects_a_scale_that_is_not_a_positive_int(scale):
    with pytest.raises(ValueError, match="scale must be a positive int"):
        PointSeq1D.from_scaled(scale, [0, 1])
    assert PointSeq1D.from_scaled(1, [0, 1]) == PointSeq1D([0, 1])


@pytest.mark.parametrize("scale", _BAD_SCALES)
def test_diagram_from_scaled_rejects_a_scale_that_is_not_a_positive_int(scale):
    # at scale -1 every int passes the structural check, which reads only
    # the ints, but epsilon would be -1
    with pytest.raises(ValueError, match="scale must be a positive int"):
        FreeSpaceDiagram1D.from_scaled(scale, 1, [1], [1], [[CellContent.empty()]])
    assert FreeSpaceDiagram1D.from_scaled(1, 1, [1], [1], [[CellContent.empty()]]).epsilon == 1


def test_curved_checks_dimension():
    c = CurveD([(0, 0), (1, 2)])
    assert c.dimension == 2
    with pytest.raises(ValueError):
        CurveD([(0,), (1,)])
    with pytest.raises(ValueError):
        CurveD([(0, 0), (1, 2, 3)])
    with pytest.raises(ValueError, match="at least one vertex"):
        CurveD([])


def test_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        FreeSpaceMatrix([[0, 2]])
    m = FreeSpaceMatrix([[1, 0], [0, 1]])
    assert m.n_rows == 2 and m.m_cols == 2


@pytest.mark.parametrize(
    "m_cols, masks, message",
    [
        (0, [0], "two-dimensional"),
        (2, [], "two-dimensional"),
        (2, [4], "row masks must be ints"),
        (2, [-1], "row masks must be ints"),
        (2, [True], "row masks must be ints"),
        (2, [1.0], "row masks must be ints"),
    ],
)
def test_from_row_masks_checks_the_masks_of_callers(m_cols, masks, message):
    with pytest.raises(ValueError, match=message):
        FreeSpaceMatrix.from_row_masks(m_cols, masks)


def test_library_built_masks_skip_the_mask_check(monkeypatch):
    # the forward computation, the twin quotient and a file's 0/1 string
    # rows build masks that are well formed by construction
    from fsreal import formats

    calls = []
    real = FreeSpaceMatrix.from_row_masks.__func__
    monkeypatch.setattr(FreeSpaceMatrix, "from_row_masks", classmethod(lambda cls, *a: calls.append(a) or real(cls, *a)))
    matrix = compute_matrix(PointSeq1D([0, 3, 1, 7]), PointSeq1D([1, 2, 2, 8]), 1)
    assert formats.parse(formats.serialize(matrix)) == matrix
    assert solve_discrete_1d(matrix) is not None
    assert calls == []


def test_solver_witnesses_skip_the_epsilon_check(monkeypatch):
    # a solver's epsilon is a diagram's or an already checked Fraction; its
    # witness equals the one the checking constructor builds
    from fsreal import model

    calls = []
    real = model.checked_epsilon
    monkeypatch.setattr(model, "checked_epsilon", lambda *a, **k: calls.append(a) or real(*a, **k))
    diagram = compute_diagram_1d(Curve1D([0, 3, 1, 4]), Curve1D([1, 2, 0, 5]), Fraction(1, 2))
    matrix = compute_matrix(PointSeq1D([0, 3, 1, 7]), PointSeq1D([1, 2, 2, 8]), 1)
    witnesses = [solve_pseudo_poly(diagram), solve_discrete_1d(matrix, "2/3")]
    assert None not in witnesses and calls == []
    for w in witnesses:
        assert model.Witness(w.curve_p, w.curve_q, w.epsilon) == w
    with pytest.raises(ValueError):
        solve_discrete_1d(matrix, 0)


@pytest.mark.parametrize(
    "value, exact, expected",
    [
        (3, True, Fraction(3)),
        (3, False, 3.0),
        (Fraction(3, 4), True, Fraction(3, 4)),
        (Fraction(3, 4), False, 0.75),
        ("3/4", True, Fraction(3, 4)),
        ("6/8", False, 0.75),
        (" 5 ", True, Fraction(5)),
        (0.75, False, 0.75),
        (10**400, False, None),
        (True, True, None),
        (True, False, None),
        (0, True, None),
        (0, False, None),
        (-1, True, None),
        (Fraction(-1, 2), True, None),
        ("-1/2", True, None),
        ("1/0", True, None),
        ("one", True, None),
        (0.75, True, None),
        (math.nan, False, None),
        (math.inf, False, None),
        (-0.5, False, None),
        (None, True, None),
    ],
)
def test_checked_epsilon_accepts_and_rejects(value, exact, expected):
    # one table for the epsilon rule: a positive rational, as a Fraction on
    # the line and as a positive finite float in R^d; None means ValueError
    if expected is None:
        with pytest.raises(ValueError):
            checked_epsilon(value, exact)
        return
    eps = checked_epsilon(value, exact)
    assert eps == expected and type(eps) is type(expected)
    if isinstance(value, Fraction) and exact:
        assert eps is value


@pytest.mark.parametrize("bad", [[[0.5, 1]], [[1.0, 0.0]], [["1", 0]], [[256, 0]], [[-1, 0]]])
def test_matrix_rejects_non_binary_entries_before_cast(bad):
    # a cast to uint8 first would truncate 0.5 to 0, accept "1" and wrap or
    # overflow on 256 and -1
    with pytest.raises(ValueError):
        FreeSpaceMatrix(bad)
    with pytest.raises(ValueError):
        solve_discrete_1d(bad)


def test_matrix_accepts_bool_and_int_arrays():
    expected = FreeSpaceMatrix([[1, 0]])
    assert FreeSpaceMatrix([[True, False]]) == expected
    assert FreeSpaceMatrix(np.array([[1, 0]], dtype=np.int64)) == expected
    assert FreeSpaceMatrix(np.array([[True, False]])) == expected
    assert FreeSpaceMatrix([np.array([1, 0], dtype=np.uint8)]) == expected
    assert FreeSpaceMatrix([[np.int64(1), np.bool_(False)]]) == expected
    assert FreeSpaceMatrix(((1, 0),)) == expected


@pytest.mark.parametrize(
    "bad",
    [[], [[]], [1, 0], [[1, 0], [1]], [[[1]]], [[1, 0], 7], 5, "10", ["10"], [b"\x01\x00"],
     (r for r in [[1, 0]]), np.zeros((0, 3), dtype=int), np.zeros(3, dtype=int), np.zeros((1, 1, 1), dtype=int),
     np.array([[1.0, 0.0]]), np.array([[2, 0]]), np.array([[-1, 0]]), [[np.float64(1.0), 0]], [[None, 0]]],
)
def test_matrix_rejects_bad_shapes_and_types(bad):
    with pytest.raises(ValueError):
        FreeSpaceMatrix(bad)


def test_matrix_row_masks_and_views():
    rng = random.Random(4)
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 140)
        ent = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        matrix = FreeSpaceMatrix(ent)
        assert matrix.n_rows == n and matrix.m_cols == m
        assert matrix.row_masks == tuple(sum(v << j for j, v in enumerate(row)) for row in ent)
        assert matrix.tolist() == ent
        arr = matrix.entries
        assert arr.dtype == np.uint8 and arr.shape == (n, m) and not arr.flags.writeable
        assert arr.tolist() == ent
        assert FreeSpaceMatrix(arr) == matrix and FreeSpaceMatrix(np.array(ent, dtype=bool)) == matrix
        assert FreeSpaceMatrix.from_row_masks(m, matrix.row_masks) == matrix
        assert hash(FreeSpaceMatrix.from_row_masks(m, matrix.row_masks)) == hash(matrix)
        assert matrix.row_sets() == [frozenset(j for j in range(m) if row[j]) for row in ent]
        assert repr(matrix) == f"FreeSpaceMatrix([{', '.join(''.join(map(str, row)) for row in ent)}])"
    # same masks, another width
    assert FreeSpaceMatrix([[1, 0]]) != FreeSpaceMatrix([[1, 0, 0]])


@pytest.mark.parametrize("m, masks", [(0, [0]), (2, []), (2, [4]), (2, [-1]), (2, [True]), (2, [1.0])])
def test_from_row_masks_rejects_out_of_range(m, masks):
    with pytest.raises(ValueError):
        FreeSpaceMatrix.from_row_masks(m, masks)


def test_cell_content_is_an_immutable_value():
    cell = CellContent.partial(1, -1, 1)
    assert cell == CellContent("partial", 1, Fraction(-1), Fraction(1)) == CellContent(status=PARTIAL, sigma=1, c_lo=-1, c_hi=1)
    assert (cell.status, cell.sigma, cell.c_lo, cell.c_hi, cell.is_partial) == (PARTIAL, 1, -1, 1, True)
    assert hash(CellContent(PARTIAL, 1, -1, 1)) == hash(cell)  # int against Fraction intercepts
    assert len({cell, CellContent(PARTIAL, 1, -1, 1), CellContent.partial(-1, -1, 1)}) == 2
    assert CellContent.empty() == CellContent("empty") and CellContent.full() == CellContent("full", 0, None, None)
    assert not CellContent.full().is_partial and CellContent.empty() != CellContent.full()
    assert repr(cell) == "CellContent(status='partial', sigma=1, c_lo=Fraction(-1, 1), c_hi=Fraction(1, 1))"
    assert repr(CellContent.empty()) == "CellContent(status='empty', sigma=0, c_lo=None, c_hi=None)"
    with pytest.raises(AttributeError):
        cell.c_lo = 0
    with pytest.raises(ValueError, match="slab orientation"):
        CellContent.partial(0, -1, 1)


def _single_cell(cell, w=2, h=2, eps=1):
    return FreeSpaceDiagram1D(eps, [w], [h], [[cell]])


@pytest.mark.parametrize("sigma", [True, 1.0, Fraction(1)], ids=["True", "1.0", "Fraction(1)"])
def test_non_int_sigma_rejected(sigma):
    # each equals 1, but serialize would write it as true or 1.0, which parse
    # refuses, or fail on it
    with pytest.raises(ValueError, match="^slab orientation must be"):
        CellContent.partial(sigma, -1, 1)
    message = r"^invalid diagram: cell \(0,0\): slab orientation must be \+1 or -1$"
    with pytest.raises(ValueError, match=message):
        _single_cell(CellContent(PARTIAL, sigma, -1, 1))
    with pytest.raises(ValueError, match=message):
        FreeSpaceDiagram1D.from_scaled(1, 1, [2], [2], [[CellContent(PARTIAL, sigma, -1, 1)]])


def test_validate_single_partial_ok():
    d = _single_cell(CellContent.partial(1, -1, 1))
    assert structural_problems(d) == [] and consistency_problems(d) == []


def test_validate_slab_width():
    with pytest.raises(ValueError, match=r"^invalid diagram: cell \(0,0\): slab width != 2\*eps$"):
        _single_cell(CellContent(status="partial", sigma=1, c_lo=Fraction(0), c_hi=Fraction(1)))


def test_validate_empty_white_set():
    with pytest.raises(ValueError, match=r"^invalid diagram: cell \(0,0\): white set empty$"):
        _single_cell(CellContent.partial(1, 10, 12))


def test_validate_full_coverage_rejected():
    # slab way below the cell: empty; slab covering it entirely: not partial
    with pytest.raises(ValueError, match="white set empty"):
        _single_cell(CellContent.partial(1, -10, -8), w=Fraction(1, 2), h=Fraction(1, 2), eps=1)
    with pytest.raises(ValueError, match="covers the whole cell"):
        FreeSpaceDiagram1D(4, [1], [1], [[CellContent.partial(1, -4, 4)]])


@pytest.mark.parametrize("widths, heights", [([], []), ([], [1]), ([1, 2], [])])
def test_empty_grid_rejected(widths, heights):
    with pytest.raises(ValueError, match="^invalid diagram: cell grid is empty$"):
        FreeSpaceDiagram1D(1, widths, heights, [[] for _ in widths])
    with pytest.raises(ValueError, match="^invalid diagram: cell grid is empty$"):
        FreeSpaceDiagram1D.from_scaled(1, 1, widths, heights, [[] for _ in widths])


def test_boundary_consistency_detection():
    good = CellContent.partial(1, -1, 1)
    bad = CellContent.partial(1, 0, 2)
    d = FreeSpaceDiagram1D(1, [2, 2], [2], [[good], [bad]])
    assert structural_problems(d) == []
    assert consistency_problems(d) == ["grid line between columns 0,1 at row 0: white sets disagree"]


def test_full_cell_next_to_an_empty_cell_is_named():
    # both cells are non-partial, so the white sets are the whole edge and
    # None: the grid line is compared, once across columns and once across rows
    full, empty = CellContent.full(), CellContent.empty()
    across_columns = FreeSpaceDiagram1D(1, [1, 1], [1], [[full], [empty]])
    assert consistency_problems(across_columns) == ["grid line between columns 0,1 at row 0: white sets disagree"]
    across_rows = FreeSpaceDiagram1D(1, [1], [1, 1], [[empty, full]])
    assert consistency_problems(across_rows) == ["grid line between rows 0,1 at column 0: white sets disagree"]


def _reference_grid_problems(d):
    """The grid-line check without skipping a line between two empty or two
    full cells: cell_edge_interval on every shared line."""
    w, h = d.col_widths, d.row_heights

    def edge(i, j, side):
        return cell_edge_interval(d.cells[i][j], w[i], h[j], side)

    problems = []
    for j in range(d.m_rows):
        for i in range(d.n_cols - 1):
            if edge(i, j, "R") != edge(i + 1, j, "L"):
                problems.append(f"grid line between columns {i},{i + 1} at row {j}: white sets disagree")
    for i in range(d.n_cols):
        for j in range(d.m_rows - 1):
            if edge(i, j, "T") != edge(i, j + 1, "B"):
                problems.append(f"grid line between rows {j},{j + 1} at column {i}: white sets disagree")
    return problems


def _random_status_grid(rng: random.Random):
    """A grid of empty, full and partial cells drawn independently, so that
    every pair of statuses meets on some grid line."""
    eps = rng.randint(1, 4)
    widths = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
    heights = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]

    def cell(w, h):
        roll = rng.random()
        if roll < 0.35:
            return CellContent.empty()
        if roll < 0.7:
            return CellContent.full()
        c_lo = rng.randint(-8, 6)
        # a slab that misses the cell box or covers it is an empty or a full
        # cell, as a well-formed diagram must have it
        return classify_slab(rng.choice([-1, 1]), c_lo, c_lo + 2 * eps, w, h)

    return FreeSpaceDiagram1D(eps, widths, heights, [[cell(w, h) for h in heights] for w in widths])


def test_grid_line_check_matches_every_line_compared():
    from test_fuzz_pseudopoly import consistent_diagrams, forward_diagrams
    from test_pseudopoly import _long_forward_diagrams

    rng = random.Random(29)
    diagrams = list(forward_diagrams(60, seed=3)) + list(consistent_diagrams(60, seed=4))
    for seed in range(300):
        n, m, eps = rng.randint(2, 12), rng.randint(2, 8), rng.randint(1, 12)
        diagrams.append(gen_random_instance(seed, kind="diagram", n_points=n, m_points=m, eps=eps, mutate=True))
    diagrams += [gen_partition([rng.randint(1, 30) for _ in range(rng.randint(2, 9))]) for _ in range(40)]
    diagrams += [random_rational_diagram(rng) for _ in range(100)]
    diagrams += [_random_status_grid(rng) for _ in range(400)]
    # long diagrams, most of whose columns hold no partial cell, as they are
    # and with one to three cells replaced
    long = list(_long_forward_diagrams(random.Random(31), 10))
    diagrams += long + [scrambled_diagram(rng, d) for d in long for _ in range(4)]
    named = long_named = 0
    for index, d in enumerate(diagrams):
        problems = consistency_problems(d)
        assert problems == _reference_grid_problems(d), index
        named += bool(problems)
        long_named += bool(problems) and d.n_cols >= 60
    plain = [all(c.status == EMPTY for c in col) for d in long for col in d.scaled_cells]
    assert named > 500 and long_named > 25
    assert sum(plain) > len(plain) // 2


def test_grid_lines_agree_and_a_shifted_slab_is_named():
    # forward diagrams: every shared grid line has one white interval from
    # both sides; shifting one slab breaks exactly the shared lines where its
    # own edge interval moved, and consistency_problems names those
    named = 0
    for seed in range(40):
        rng = random.Random(seed)
        d = random_integer_diagram(seed, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3))
        w, h = d.col_widths, d.row_heights

        def edge(cells, i, j, side):
            return cell_edge_interval(cells[i][j], w[i], h[j], side)

        for j in range(d.m_rows):
            for i in range(d.n_cols - 1):
                assert edge(d.cells, i, j, "R") == edge(d.cells, i + 1, j, "L")
        for i in range(d.n_cols):
            for j in range(d.m_rows - 1):
                assert edge(d.cells, i, j, "T") == edge(d.cells, i, j + 1, "B")
        assert consistency_problems(d) == []

        for i in range(d.n_cols):
            for j in range(d.m_rows):
                c = d.cells[i][j]
                if c.status != PARTIAL:
                    continue
                for shift in (-1, 1):
                    cells = [list(col) for col in d.cells]
                    cells[i][j] = CellContent(PARTIAL, c.sigma, c.c_lo + shift, c.c_hi + shift)
                    try:
                        shifted = FreeSpaceDiagram1D(d.epsilon, w, h, cells)
                    except ValueError:
                        continue
                    moved = {side for side in "LRBT" if edge(cells, i, j, side) != edge(d.cells, i, j, side)}
                    expected = set()
                    if i > 0 and "L" in moved:
                        expected.add(f"grid line between columns {i - 1},{i} at row {j}")
                    if i < d.n_cols - 1 and "R" in moved:
                        expected.add(f"grid line between columns {i},{i + 1} at row {j}")
                    if j > 0 and "B" in moved:
                        expected.add(f"grid line between rows {j - 1},{j} at column {i}")
                    if j < d.m_rows - 1 and "T" in moved:
                        expected.add(f"grid line between rows {j},{j + 1} at column {i}")
                    problems = consistency_problems(shifted)
                    assert {p.removesuffix(": white sets disagree") for p in problems} == expected
                    assert len(problems) == len(expected)
                    named += bool(expected)
    assert named > 100


def test_forward_diagrams_always_validate():
    for seed in range(60):
        rng = random.Random(seed)
        d = random_integer_diagram(seed, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4))
        assert structural_problems(d) == [] and consistency_problems(d) == []


def _fields(eps, widths, heights, cells):
    """epsilon, widths, heights and the partial cells' intercepts, in order."""
    values = [eps, *widths, *heights]
    for col in cells:
        for c in col:
            if c.status == PARTIAL:
                values += [c.c_lo, c.c_hi]
    return values


def _views(d):
    return _fields(d.epsilon, d.col_widths, d.row_heights, d.cells)


def _ints(d):
    return _fields(d.scaled_eps, d.scaled_widths, d.scaled_heights, d.scaled_cells)


def test_rational_diagram_int_form():
    rng = random.Random(12)
    for _ in range(30):
        d = random_rational_diagram(rng, 4, 3)
        fields = _views(d)
        assert all(type(v) is Fraction for v in fields)
        assert d.scale == math.lcm(*(v.denominator for v in fields))
        assert all(type(v) is int for v in _ints(d)) and math.gcd(d.scale, *_ints(d)) == 1
        assert [Fraction(v, d.scale) for v in _ints(d)] == fields
        assert [[c.status for c in col] for col in d.scaled_cells] == [[c.status for c in col] for col in d.cells]
        assert [[c.sigma for c in col] for col in d.scaled_cells] == [[c.sigma for c in col] for col in d.cells]
        # the diagram built from its own Fractions is the same diagram
        assert FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, d.cells) == d


def test_integer_diagram_has_scale_one():
    for seed in range(20):
        rng = random.Random(seed)
        d = random_integer_diagram(seed, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4))
        assert d.scale == 1
        assert all(type(v) is int for v in _ints(d))
        assert _ints(d) == _views(d)


def test_int_form_at_a_non_minimal_scale_is_the_same_value():
    # ints times g over the scale times g: equal, and hashing the same, to the
    # diagram and the curve built from Fractions
    rng = random.Random(13)
    for index in range(40):
        d = random_rational_diagram(rng) if index % 2 else random_integer_diagram(index, 4, 3, 2)
        built = FreeSpaceDiagram1D(d.epsilon, d.col_widths, d.row_heights, d.cells)
        for g in (2, 3, 12):
            cells = [
                [c if c.status != PARTIAL else CellContent(PARTIAL, c.sigma, g * c.c_lo, g * c.c_hi) for c in col]
                for col in d.scaled_cells
            ]
            widths, heights = [g * w for w in d.scaled_widths], [g * h for h in d.scaled_heights]
            scaled = FreeSpaceDiagram1D.from_scaled(g * d.scale, g * d.scaled_eps, widths, heights, cells)
            assert scaled == built and hash(scaled) == hash(built), (index, g)
            assert (scaled.scale, scaled.scaled_cells) == (d.scale, d.scaled_cells)
        ints = list(accumulate(d.scaled_widths, initial=0))
        curve = Curve1D(accumulate(d.col_widths, initial=0))
        for g in (2, 3, 12):
            scaled = Curve1D.from_scaled(g * d.scale, [g * v for v in ints])
            assert scaled == curve and hash(scaled) == hash(curve), (index, g)
            assert scaled.vertices == curve.vertices == tuple(Fraction(v, d.scale) for v in ints)
    assert Curve1D([Fraction(1, 2), Fraction(2, 3), 1]).scaled_vertices == (3, 4, 6)
    assert Curve1D.from_scaled(4, [6, 4, 2]) == Curve1D([Fraction(3, 2), 1, Fraction(1, 2)])


def _cell_algebra_results(sigma, w, h, lo, hi, num):
    """(name, result) of every cell-algebra function on one slab, with the
    lengths and intercepts given as ``num``."""
    cell = CellContent(PARTIAL, sigma, num(lo), num(hi))
    nw, nh = num(w), num(h)
    out = [
        ("classify_slab", classify_slab(sigma, num(lo), num(hi), nw, nh)),
    ]
    out += [("cell_edge_interval", cell_edge_interval(cell, nw, nh, edge)) for edge in "LRBT"]
    for x0 in range(w):
        for y0 in range(h):
            for w2 in range(1, w - x0 + 1):
                for h2 in range(1, h - y0 + 1):
                    # the slab in the w2 x h2 box at (x0, y0), re-based to its corner
                    shift = sigma * num(x0) - num(y0)
                    restricted = classify_slab(sigma, num(lo) + shift, num(hi) + shift, num(w2), num(h2))
                    out.append(("classify_slab", restricted))
    return out


def _int_fields(result) -> bool:
    if result is None:
        return True
    if isinstance(result, CellContent):
        return all(v is None or type(v) is int for v in (result.c_lo, result.c_hi))
    return all(type(v) is int for v in result)


def test_cell_algebra_int_input_matches_fraction_input():
    checked = 0
    for sigma in (1, -1):
        for w in range(1, 4):
            for h in range(1, 4):
                for lo in range(-4, 5):
                    for hi in range(lo, 5):
                        ints = _cell_algebra_results(sigma, w, h, lo, hi, int)
                        fractions = _cell_algebra_results(sigma, w, h, lo, hi, Fraction)
                        assert ints == fractions, (sigma, w, h, lo, hi)
                        for name, result in ints:
                            assert _int_fields(result), (name, sigma, w, h, lo, hi, result)
                        checked += len(ints)
    assert checked > 10000


_F = Fraction
# the fields of malformed rational diagrams, and their problems
_MALFORMED_RATIONAL = [
    ((_F(1, 2), [_F(3, 2)], [1], [[CellContent.partial(1, 0, _F(1, 3))]]), ["cell (0,0): slab width != 2*eps"]),
    (
        (_F(3, 2), [_F(1, 2)], [_F(1, 2)], [[CellContent.partial(1, _F(-3, 2), _F(3, 2))]]),
        ["cell (0,0): slab covers the whole cell"],
    ),
    ((_F(1, 3), [_F(1, 3)], [_F(1, 4)], [[CellContent.partial(1, _F(5, 3), _F(7, 3))]]), ["cell (0,0): white set empty"]),
    (
        (_F(-1, 3), [_F(1, 2), _F(-2, 5)], [0], [[CellContent.empty()], [CellContent.full()]]),
        ["epsilon must be positive", "column 1: width must be positive", "row 0: height must be positive"],
    ),
    ((_F(1, 2), [_F(1, 2)], [_F(1, 3), 1], [[CellContent.full()]]), ["cell grid height does not match rowHeights"]),
    ((_F(1, 2), [_F(1, 2)], [_F(1, 3)], [[CellContent("half")]]), ["cell (0,0): unknown status 'half'"]),
]


def _int_form(eps, widths, heights, cells):
    """The scale L of the fields and the fields times L, as ints."""
    scale = math.lcm(*(Fraction(v).denominator for v in _fields(eps, widths, heights, cells)))
    cells = [[c if c.status != PARTIAL else CellContent(PARTIAL, c.sigma, int(c.c_lo * scale), int(c.c_hi * scale)) for c in col] for col in cells]
    return scale, int(eps * scale), [int(w * scale) for w in widths], [int(h * scale) for h in heights], cells


@pytest.mark.parametrize("solve", [solve_fpt, solve_pseudo_poly])
@pytest.mark.parametrize("d", _MALFORMED_RATIONAL)
def test_solvers_reject_malformed_rational_diagram_with_its_problems(solve, d):
    # a malformed diagram rejects itself when it is built, so no solver sees
    # it; the messages name no values, so its int form over its scale and
    # the integer copy L times the size get the same one
    fields, problems = d
    scale, *ints = _int_form(*fields)
    for build in (
        lambda: FreeSpaceDiagram1D(*fields),
        lambda: FreeSpaceDiagram1D.from_scaled(scale, *ints),
        lambda: FreeSpaceDiagram1D.from_scaled(1, *ints),
    ):
        with pytest.raises(ValueError) as exc:
            solve(build())
        assert str(exc.value) == "invalid diagram: " + "; ".join(problems)


def test_solvers_and_forward_run_no_structural_check(structural_checks):
    # a built diagram is well formed, so neither solver checks it again, and
    # the forward computation and transpose_diagram build theirs unchecked
    from fsreal.model import transpose_diagram

    rng = random.Random(18)
    diagrams = [gen_partition([3, 2, 1, 2]), gen_partition([1, 1, 1]), random_rational_diagram(rng)]
    diagrams += [gen_random_instance(seed, kind="diagram", mutate=seed % 2 == 1) for seed in range(8)]
    diagrams += [transpose_diagram(d) for d in diagrams]
    structural_checks.clear()
    answers = []
    for d in diagrams:
        for solve in (solve_fpt, solve_pseudo_poly):
            witness = solve(d)
            answers.append(witness is not None)
            if witness is not None:
                assert compute_diagram_1d(witness.curve_p, witness.curve_q, witness.epsilon) == d
    assert structural_checks == []
    assert True in answers and False in answers
    # the count does see the constructor's check
    FreeSpaceDiagram1D(1, [2], [2], [[CellContent.partial(1, -1, 1)]])
    assert len(structural_checks) == 1
