from fractions import Fraction

import pytest

from fsreal import (
    Curve1D,
    FreeSpaceMatrix,
    brute_force_continuous_1d,
    brute_force_discrete_1d,
    compute_diagram_1d,
    compute_matrix,
    gen_partition,
)
from fsreal.bruteforce import arrangement_cells, arrangements, realizable_row_families


def test_single_entry_matrix():
    w = brute_force_discrete_1d(FreeSpaceMatrix([[1]]))
    assert w is not None
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == FreeSpaceMatrix([[1]])


def test_sandwich_matrix_unrealizable():
    # with equal-length intervals, the overlap of the two outer intervals is
    # always contained in the middle one, whatever the order, so the (1,0,1)
    # row cannot coexist with the other two
    assert brute_force_discrete_1d(FreeSpaceMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) is None


def test_staircase_matrix_realizable():
    m = FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]])
    w = brute_force_discrete_1d(m)
    assert w is not None
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == m


def test_cap_enforced():
    with pytest.raises(ValueError):
        brute_force_discrete_1d(FreeSpaceMatrix([[1] * 7]))


def test_arrangements_have_distinct_endpoints():
    for centers, cells in arrangements(3):
        eps = Fraction(1, 2)
        events = [c - eps for c in centers] + [c + eps for c in centers]
        assert len(set(events)) == len(events)


def test_row_families_monotone_in_m():
    fams2 = realizable_row_families(2)
    assert frozenset({frozenset(), frozenset({0}), frozenset({1})}) in fams2


def test_continuous_single_partial():
    d = compute_diagram_1d(Curve1D([0, 2]), Curve1D([0, 2]), 1)
    w = brute_force_continuous_1d(d)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, 1) == d


def test_continuous_partition_odd_sum():
    assert brute_force_continuous_1d(gen_partition([1, 1, 1])) is None


def test_continuous_partition_known_yes_instance():
    d = gen_partition([3, 2, 1, 2])
    w = brute_force_continuous_1d(d)
    assert w is not None
    assert compute_diagram_1d(w.curve_p, w.curve_q, d.epsilon) == d


def test_continuous_cap():
    d = gen_partition([1] * 25)
    with pytest.raises(ValueError):
        brute_force_continuous_1d(d)


def test_arrangement_cells_partition_covered_range():
    centers, eps = [0, Fraction(3, 4), 3], Fraction(1, 2)
    cells = arrangement_cells(centers, eps)
    assert cells[0][0] == frozenset()
    assert cells[-1][0] == frozenset()
    for cover, rep in cells:
        assert cover == frozenset(j for j, c in enumerate(centers) if c - eps <= rep <= c + eps)
    # the interior regions alternate endpoints and the open gaps between
    # consecutive endpoints, so they tile the covered range
    events = sorted({c + s * eps for c in centers for s in (-1, 1)})
    interior = [rep for _, rep in cells[1:-1]]
    assert interior[::2] == events
    assert all(a < gap < b for a, gap, b in zip(interior[::2], interior[1::2], interior[2::2]))
    assert cells[0][1] < events[0] and cells[-1][1] > events[-1]
