import itertools
import random
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
from fsreal import bruteforce
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
    eps = Fraction(1, 2)
    for m in range(1, 7):
        for centers, cells in arrangements(m):
            events = [c - eps for c in centers] + [c + eps for c in centers]
            assert len(set(events)) == len(events)


def test_one_arrangement_per_endpoint_pattern():
    # the Catalan numbers C_1..C_6; arrangements raises if a pattern does
    # not materialize, so every pattern is there
    assert [len(arrangements(m)) for m in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    for m in range(1, 7):
        for centers, cells in arrangements(m):
            assert list(centers) == sorted(centers)
            eps = Fraction(1, 2)
            for cover, rep in cells:
                assert cover == sum(1 << k for k, c in enumerate(centers) if c - eps <= rep <= c + eps)


def test_pattern_that_does_not_materialize_raises(monkeypatch):
    # a dropped class would turn YES labels into NO, so it is an error
    monkeypatch.setattr(bruteforce, "_materialize", lambda pattern, m: None)
    arrangements.cache_clear()
    with pytest.raises(RuntimeError, match=r"pattern \(1, 2\) of 2 intervals"):
        arrangements(2)


def test_row_families_fill_the_arrangement_cache_once_per_call():
    arrangements.cache_clear()
    first = realizable_row_families(4)
    info = arrangements.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
    # no cache of its own: a second call asks for the arrangements again
    assert realizable_row_families(4) == first
    assert arrangements.cache_info().hits == 1
    assert not hasattr(realizable_row_families, "cache_info")


def _row_family_verdict(matrix, families) -> bool:
    supports = frozenset(matrix.row_sets())
    return any(supports <= fam for fam in families)


def _six_column_matrices():
    rng = random.Random(61)
    for index in range(300):
        n = rng.randint(2, 8)
        if index % 2:
            yield FreeSpaceMatrix.from_row_masks(6, [rng.getrandbits(6) for _ in range(n)])
        else:
            p = [rng.randint(0, 12) for _ in range(n)]
            q = [rng.randint(0, 12) for _ in range(6)]
            yield compute_matrix(p, q, rng.randint(1, 3))


@pytest.mark.parametrize("shape", ["3x4", "4x3", "6 columns"])
def test_verdict_matches_row_families(shape):
    if shape == "6 columns":
        matrices = list(_six_column_matrices())
    else:
        n, m = map(int, shape.split("x"))
        matrices = [
            FreeSpaceMatrix.from_row_masks(m, rows) for rows in itertools.product(range(1 << m), repeat=n)
        ]
    families = realizable_row_families(matrices[0].m_cols)
    verdicts = [brute_force_discrete_1d(matrix) is not None for matrix in matrices]
    assert verdicts == [_row_family_verdict(matrix, families) for matrix in matrices]
    assert 0 < sum(verdicts) < len(verdicts)


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
