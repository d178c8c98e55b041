import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fsreal import (
    Curve1D,
    CurveD,
    FreeSpaceMatrix,
    cell_ellipse_2d,
    compute_diagram_1d,
    compute_matrix,
    relative_placement_from_cell,
)
from fsreal.forward import (
    ELLIPSE_EMPTY,
    ELLIPSE_FULL,
    PARTIAL_ELLIPSE,
    PARTIAL_SLAB,
    EllipseCell,
)
from fsreal.model import EMPTY, FULL, PARTIAL

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
        for i in range(d.n_cols):
            for j in range(d.m_rows):
                cell = d.cells[i][j]
                if cell.status == PARTIAL:
                    assert cell.sigma == p.orientations[i] * q.orientations[j]


def test_folding_vertex_mirrors_the_strip():
    # the curve folds at its middle vertex; the two columns mirror each other
    p = Curve1D([0, 3, 0])
    q = Curve1D([-1, 4, 2, 5])
    d = compute_diagram_1d(p, q, 1)
    from fsreal.model import cell_mirror_x

    for j in range(d.m_rows):
        left = d.cells[0][j]
        right = d.cells[1][j]
        assert cell_mirror_x(right, d.col_widths[1], d.row_heights[j]) == left


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
