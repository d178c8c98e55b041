import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fsreal import (
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    Witness,
    cell_ellipse_2d,
    compute_diagram_1d,
    compute_matrix,
    relative_placement_from_cell,
    verify_witness,
)
from fsreal.forward import (
    ELLIPSE_EMPTY,
    ELLIPSE_FULL,
    PARTIAL_ELLIPSE,
    PARTIAL_SLAB,
    EllipseCell,
)
from fsreal.formats import parse, serialize
from fsreal.model import EMPTY, FULL, PARTIAL, classify_slab

from conftest import random_integer_curves


def test_matrix_1d_basic():
    m = compute_matrix([0, 2], [0, 2], 1)
    assert m == FreeSpaceMatrix([[1, 0], [0, 1]])


def test_matrix_identity_point():
    assert compute_matrix([Fraction(1, 3)], [Fraction(1, 3)], Fraction(1, 10)) == FreeSpaceMatrix([[1]])


def test_matrix_2d():
    m = compute_matrix(CurveD([(0, 0), (3, 0)]), CurveD([(0, 1)]), 1)
    assert m == FreeSpaceMatrix([[1], [0]])


def test_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_matrix([0, 1], CurveD([(0, 0), (1, 1)]), 1)



@pytest.mark.parametrize("p, q", [([0, 1], [0]), (CurveD([(0, 0)]), CurveD([(1, 1)]))])
@pytest.mark.parametrize("eps", [0, -1])
def test_matrix_rejects_nonpositive_eps(p, q, eps):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        compute_matrix(p, q, eps)

@pytest.mark.parametrize(
    "p, q, eps, entry",
    [
        ((3, 4), (0, 0), 5, 1),  # exactly at eps
        ((3, 4), (0, 0), 5 - 2**-40, 0),
        ((3, 4 + 2**-40), (0, 0), 5, 0),
        ((1, 2, 2), (0, 0, 0), 3, 1),
        ((1, 2, 2), (0, 0, 0), 3 - 2**-40, 0),
    ],
)
def test_matrix_in_rd_is_exact_at_the_boundary(p, q, eps, entry):
    assert compute_matrix([p], [q], eps).tolist() == [[entry]]
    assert compute_matrix(CurveD([q]), CurveD([p]), eps).tolist() == [[entry]]


@pytest.mark.parametrize(
    "p, q, eps",
    [
        ([(math.nan, 0.0)], [(0.0, 0.0)], 1.0),
        ([(0.0, 0.0)], [(0.0, math.inf)], 1.0),
        ([(0.0, 0.0), (1.0, -math.inf)], [(0.0, 0.0)], 1.0),
        ([(0.0, 0.0)], [(1.0, 1.0)], math.inf),
    ],
)
def test_matrix_in_rd_rejects_non_finite_input(p, q, eps):
    with pytest.raises(ValueError, match="finite"):
        compute_matrix(p, q, eps)


def test_matrix_in_rd_matches_fraction_reference():
    rng = random.Random(31)
    ones = 0
    for _ in range(60):
        d = rng.choice([2, 3])
        p, q = ([tuple(rng.uniform(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 7))] for _ in range(2))
        eps = rng.uniform(0.5, 4)
        expected = [
            [int(sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, b)) <= Fraction(eps) ** 2) for b in q]
            for a in p
        ]
        assert compute_matrix(p, q, eps).tolist() == expected
        ones += sum(map(sum, expected))
    assert ones > 100


def test_matrix_monotone_in_eps():
    rng = random.Random(11)
    for _ in range(40):
        p = [Fraction(rng.randint(-60, 60), 4) for _ in range(rng.randint(1, 12))]
        q = [Fraction(rng.randint(-60, 60), 4) for _ in range(rng.randint(1, 12))]
        e = Fraction(rng.randint(1, 40), 4)
        bigger = e + Fraction(rng.randint(1, 10), 4)
        a = compute_matrix(p, q, e).entries
        b = compute_matrix(p, q, bigger).entries
        assert ((a == 1) <= (b == 1)).all()


def test_diagram_identical_segments():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([0, 2]), 1)
    cell = d.cells[0][0]
    assert cell.status == PARTIAL and cell.sigma == 1
    assert (cell.c_lo, cell.c_hi) == (Fraction(-1), Fraction(1))


def test_diagram_far_segments_empty():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([5, 7]), 1)
    assert d.cells[0][0].status == EMPTY


def test_diagram_full_cell():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([Fraction(1, 2), Fraction(3, 2)]), 2)
    assert d.cells[0][0].status == FULL


def test_slab_orientation_is_product_of_segment_orientations():
    for seed in range(40):
        p, q = random_integer_curves(seed, 4, 3)
        d = compute_diagram_1d(p, q, 2)
        sp, sq = ([1 if b > a else -1 for a, b in zip(v, v[1:])] for v in (p.scaled_vertices, q.scaled_vertices))
        for i in range(d.n_cols):
            for j in range(d.m_rows):
                cell = d.cells[i][j]
                if cell.status == PARTIAL:
                    assert cell.sigma == sp[i] * sq[j]


def _mirror_x(cell, w, h):
    """The cell under the reflection x -> w - x of its w x h box."""
    if cell.status != PARTIAL:
        return cell
    # y - sigma*(w - x) = (y + sigma*x) - sigma*w
    return classify_slab(-cell.sigma, cell.c_lo + cell.sigma * w, cell.c_hi + cell.sigma * w, w, h)


def test_folding_vertex_mirrors_the_strip():
    # the curve folds at its middle vertex; the two columns mirror each other
    p = Curve1D([0, 3, 0])
    q = Curve1D([-1, 4, 2, 5])
    d = compute_diagram_1d(p, q, 1)
    for j in range(d.m_rows):
        left = d.cells[0][j]
        right = d.cells[1][j]
        assert _mirror_x(right, d.col_widths[1], d.row_heights[j]) == left


def _rational_curve(rng, n_vertices):
    pts = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))]
    while len(pts) < n_vertices:
        v = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if v != pts[-1]:
            pts.append(v)
    return Curve1D(pts)


def _reference_cell(p, q, eps, i, j):
    """The slab of cell (i, j) classified in Fractions, from its definition:
    |P_i(x) - Q_j(y)| <= eps with P_i(x) = p_i + sp*x and Q_j(y) = q_j + sq*y,
    i.e. sq*(p_i - q_j) - eps <= y - sp*sq*x <= sq*(p_i - q_j) + eps."""
    sp = 1 if p.vertices[i + 1] > p.vertices[i] else -1
    sq = 1 if q.vertices[j + 1] > q.vertices[j] else -1
    mid = sq * (p.vertices[i] - q.vertices[j])
    w = abs(p.vertices[i + 1] - p.vertices[i])
    h = abs(q.vertices[j + 1] - q.vertices[j])
    return classify_slab(sp * sq, mid - eps, mid + eps, w, h)


def test_diagram_cells_match_fraction_reference():
    rng = random.Random(23)
    partial = 0
    for _ in range(300):
        p = _rational_curve(rng, rng.randint(2, 7))
        q = _rational_curve(rng, rng.randint(2, 7))
        eps = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        d = compute_diagram_1d(p, q, eps)
        assert d.epsilon == eps
        for curve, lengths in ((p, d.col_widths), (q, d.row_heights)):
            assert lengths == tuple(abs(b - a) for a, b in zip(curve.vertices, curve.vertices[1:]))
        for i in range(len(p.scaled_vertices) - 1):
            for j in range(len(q.scaled_vertices) - 1):
                assert d.cells[i][j] == _reference_cell(p, q, eps, i, j)
                partial += d.cells[i][j].status == PARTIAL
    assert partial > 500


@pytest.mark.parametrize(
    "p, q, eps, status",
    [
        # sigma = 1 (both up), box range of y - x is [-w, h] = [-2, 1]
        ([0, 2], [-2, -1], 1, PARTIAL),  # c_lo == vmax: touches the corner (0, h)
        ([0, 2], [3, 4], 1, PARTIAL),  # c_hi == vmin: touches the corner (w, 0)
        ([0, 2], [-2 - Fraction(1, 3), -1 - Fraction(1, 3)], 1, EMPTY),  # c_lo > vmax
        ([0, 2], [0, 2], 2, FULL),  # c_lo == vmin and c_hi == vmax
        ([0, 2], [0, 2], 2 - Fraction(1, 3), PARTIAL),
        # sigma = -1 (P down, Q up), box range of y + x is [0, w + h] = [0, 3]
        ([2, 0], [3, 4], 1, PARTIAL),  # c_hi == vmin: touches the corner (0, 0)
        ([2, 0], [-2, -1], 1, PARTIAL),  # c_lo == vmax: touches the corner (w, h)
        ([2, 0], [-2 - Fraction(1, 3), -1 - Fraction(1, 3)], 1, EMPTY),  # c_lo > vmax
        ([2, 0], [Fraction(1, 2), Fraction(3, 2)], Fraction(3, 2), FULL),  # exact cover
    ],
)
def test_diagram_boundary_cells(p, q, eps, status):
    scale = Fraction(1, 3)  # the same cells at a scale whose LCM is not 1
    for k in (1, scale):
        pk, qk = Curve1D([k * v for v in p]), Curve1D([k * v for v in q])
        cell = compute_diagram_1d(pk, qk, k * eps).cells[0][0]
        assert cell.status == status
        assert cell == _reference_cell(pk, qk, k * eps, 0, 0)


def test_diagram_fields_are_fractions_and_round_trip():
    # rational curves, and integer ones, whose own scale is 1: every field is
    # a Fraction, and the diagram equals the one FreeSpaceDiagram1D builds
    rng = random.Random(29)
    cases = [(_rational_curve(rng, 5), _rational_curve(rng, 4), Fraction(rng.randint(1, 30), 7)) for _ in range(40)]
    cases += [(*random_integer_curves(seed, 6, 4), rng.randint(1, 4)) for seed in range(40)]
    partial = 0
    for p, q, eps in cases:
        d = compute_diagram_1d(p, q, eps)
        cells = [c for col in d.cells for c in col]
        values = [d.epsilon, *d.col_widths, *d.row_heights]
        values += [v for c in cells if c.status == PARTIAL for v in (c.c_lo, c.c_hi)]
        assert all(type(v) is Fraction for v in values)
        assert all(type(c.sigma) is int for c in cells)
        partial += sum(c.status == PARTIAL for c in cells)
        built = FreeSpaceDiagram1D(d.epsilon, list(d.col_widths), list(d.row_heights), [list(col) for col in d.cells])
        assert d == built and hash(d) == hash(built)
        text = serialize(d)
        assert parse(text) == d and serialize(parse(text)) == text
    assert partial > 100


def test_moved_witness_vertex_is_caught():
    for seed in range(20):
        p, q = random_integer_curves(seed, 4, 3)
        witness = Witness(p, q, 2)
        d = compute_diagram_1d(p, q, 2)
        assert verify_witness(witness, d)
        k = seed % len(p.vertices)
        moved = list(p.vertices)
        moved[k] += Fraction(1, 3)
        assert not verify_witness(Witness(Curve1D(moved), q, 2), d)


def test_ellipse_perpendicular_is_circle():
    cell = cell_ellipse_2d(((0, 0), (1, 0)), ((0, 0), (0, 1)), 1.0)
    assert cell.status == PARTIAL_ELLIPSE
    assert cell.semi_major == pytest.approx(1.0, abs=1e-12)
    assert cell.semi_minor == pytest.approx(1.0, abs=1e-12)
    assert cell.center == pytest.approx((0.0, 0.0), abs=1e-12)


def test_ellipse_parallel_degenerates_to_slab():
    cell = cell_ellipse_2d(((0, 0), (2, 0)), ((0, 0.5), (2, 0.5)), 1.0)
    assert cell.status == PARTIAL_SLAB
    assert cell.slab_sigma == 1
    half = math.sqrt(1 - 0.25)
    assert cell.slab_lo == pytest.approx(-half, abs=1e-12)
    assert cell.slab_hi == pytest.approx(half, abs=1e-12)


def _cell_membership(cell, x, y):
    if cell.status == ELLIPSE_EMPTY:
        return False
    if cell.status == ELLIPSE_FULL:
        return True
    if cell.status == PARTIAL_SLAB:
        return cell.slab_lo <= y - cell.slab_sigma * x <= cell.slab_hi
    x0, y0 = cell.center
    s = (x - x0) + (y - y0)
    t = (y - y0) - (x - x0)
    a = cell.semi_major if cell.major_axis_sign == 1 else cell.semi_minor
    b = cell.semi_minor if cell.major_axis_sign == 1 else cell.semi_major
    return (s / a) ** 2 + (t / b) ** 2 <= 2.0


def test_ellipse_grid_sampling_oracle():
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        sp = ((rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        sq = ((rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        try:
            cell = cell_ellipse_2d(sp, sq, 1.5)
        except ValueError:
            continue
        checked += 1
        a = np.array(sp[0])
        u = np.array(sp[1]) - a
        c = np.array(sq[0])
        v = np.array(sq[1]) - c
        lp, lq = np.linalg.norm(u), np.linalg.norm(v)
        u, v = u / lp, v / lq
        for x in np.linspace(0, lp, 50):
            for y in np.linspace(0, lq, 50):
                dist = float(np.linalg.norm(a + x * u - (c + y * v)))
                if abs(dist - 1.5) <= 1e-7:
                    continue  # on the boundary either answer is fine
                assert _cell_membership(cell, x, y) == (dist <= 1.5)


def _ellipse_answers(eps_values) -> str:
    """sha256 of the cells and relative placements of 40 seeded planar
    segment pairs at each eps."""
    rng = random.Random(23)
    answers = []
    for eps in eps_values:
        for _ in range(40):
            sp = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
            sq = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
            cell = cell_ellipse_2d(sp, sq, eps)
            answers.append(repr(cell))
            if cell.status == PARTIAL_ELLIPSE:
                try:
                    answers.append(repr(relative_placement_from_cell(cell, eps)))
                except ValueError as exc:
                    answers.append(str(exc))
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def test_ellipse_geometry_of_a_valid_epsilon_is_unchanged():
    # pinned while both functions read eps through float() alone
    digest = "ec88be19582519aea5c0c298ca4ac7c8303046966c25463b884fe94c77fb58e8"
    assert _ellipse_answers([1.5, 2, Fraction(3, 4)]) == digest
    assert _ellipse_answers(["3/2", 2.0, "3/4"]) == digest


@pytest.mark.parametrize("eps", [-1.0, 0, 0.0, math.nan, math.inf, True, "1/0"])
def test_ellipse_geometry_rejects_a_bad_epsilon(eps):
    # eps -1.0 gave the eps 1 ellipse, and NaN an ellipse with NaN semi-axes
    with pytest.raises(ValueError, match="epsilon|rational|denominator"):
        cell_ellipse_2d(((0, 0), (1, 0)), ((0, 0), (0, 1)), eps)
    with pytest.raises(ValueError, match="epsilon|rational|denominator"):
        relative_placement_from_cell(EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), math.sqrt(2), 1.0, 1), eps)


def test_relative_placement_spot_values():
    c1 = EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), math.sqrt(2), 1.0, 1)
    assert relative_placement_from_cell(c1, 1.0).angle == pytest.approx(math.pi / 6, abs=1e-12)
    c2 = EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), 1.0, 1 / math.sqrt(2), -1)
    assert relative_placement_from_cell(c2, 1.0).angle == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        relative_placement_from_cell(EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), 0.5, 0.5, 1), 1.0)


def test_relative_placement_round_trip():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        sp = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        sq = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        try:
            cell = cell_ellipse_2d(sp, sq, 1.0)
        except ValueError:
            continue
        if cell.status != PARTIAL_ELLIPSE:
            continue
        checked += 1
        placement = relative_placement_from_cell(cell, 1.0)
        u = np.array(sp[1]) - np.array(sp[0])
        v = np.array(sq[1]) - np.array(sq[0])
        cosang = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        enclosed = math.acos(max(-1.0, min(1.0, cosang)))
        assert 2 * placement.angle == pytest.approx(enclosed, abs=1e-9)
        assert placement.mirror_ambiguous
