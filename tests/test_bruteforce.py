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

from conftest import random_integer_diagram


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
    for m in range(1, 7):
        eps = 4 * m
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
            eps = 4 * m
            for cover, rep in cells:
                assert cover == sum(1 << k for k, c in enumerate(centers) if c - eps <= rep <= c + eps)


def _reference_materialize(pattern, m):
    """The oracle's left endpoints as it computed them on Fractions: unit
    intervals at eps 1/2, spacing quantum 1/(4m)."""
    events = []
    by_slot = {}
    for i, c in enumerate(pattern):
        by_slot.setdefault(c - 1, []).append(i)
    for j in range(m):
        events.append(("l", j))
        for i in by_slot.get(j, []):
            events.append(("r", i))
    delta = Fraction(1, 4 * m)
    pos = [Fraction(0)] * m
    for _ in range(2 * m + 1):
        changed = False
        prev_val = None
        for kind, idx in events:
            val = pos[idx] + (1 if kind == "r" else 0)
            if prev_val is not None and val < prev_val + delta:
                need = prev_val + delta
                pos[idx] = need if kind == "l" else need - 1
                val = need
                changed = True
            prev_val = val
        if not changed:
            return pos
    return None


def _reference_cells(centers, eps):
    """The oracle's arrangement cells as it computed them on Fractions: the
    outside regions one unit out, the gaps at their midpoints."""
    events = sorted({c - eps for c in centers} | {c + eps for c in centers})
    reps = [events[0] - 1]
    for x, y in zip(events, events[1:]):
        reps += [x, (x + y) / 2]
    reps += [events[-1], events[-1] + 1]
    return [(frozenset(j for j, c in enumerate(centers) if c - eps <= x <= c + eps), x) for x in reps]


@pytest.mark.parametrize("m", range(1, 7))
def test_arrangements_match_the_fraction_reference(m):
    eps = Fraction(1, 2)
    reference = []
    for pattern in bruteforce._interleavings(m):
        centers = [left + eps for left in _reference_materialize(pattern, m)]
        cells = [(sum(1 << k for k in cover), rep) for cover, rep in _reference_cells(centers, eps)]
        reference.append((centers, cells))
    scale = 8 * m
    rational = [
        ([Fraction(c, scale) for c in centers], [(cover, Fraction(rep, scale)) for cover, rep in cells])
        for centers, cells in arrangements(m)
    ]
    assert rational == reference
    assert all(type(v) is int for centers, cells in arrangements(m) for v in (*centers, *(r for _, r in cells)))


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


def test_continuous_yes_on_forward_diagrams():
    # the curves of these diagrams start apart, so the offset that the first
    # partial cell fixes is not 0
    rng = random.Random(41)
    for _ in range(40):
        d = random_integer_diagram(rng.randrange(1 << 30), rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3))
        w = brute_force_continuous_1d(d)
        assert w is not None and compute_diagram_1d(w.curve_p, w.curve_q, d.epsilon) == d


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
    # the Fraction case on the reference, and the same centers on the int
    # grid of unit 1/8
    for cells_of, centers, eps in [
        (_reference_cells, [0, Fraction(3, 4), 3], Fraction(1, 2)),
        (arrangement_cells, [0, 6, 24], 4),
    ]:
        cells = cells_of(centers, eps)
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
