import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from fsreal import (
    OrientedLine,
    PartitionInstance,
    SignVectorSet,
    arrangement_to_witness,
    compute_matrix,
    gen_partition,
    gen_random_instance,
    gen_stretchability,
    has_balanced_partition,
    solve_fpt,
)
from fsreal.model import FreeSpaceDiagram1D, FreeSpaceMatrix, consistency_problems, structural_problems, transpose_diagram

from conftest import random_rational_diagram


def test_partition_reference_instance_widths(partition_diagram):
    assert [int(w) for w in partition_diagram.col_widths] == [9, 3, 2, 1, 2, 9]
    assert sum(partition_diagram.col_widths) == 26
    assert partition_diagram.epsilon == 1
    first = partition_diagram.cells[0][0]
    last = partition_diagram.cells[-1][0]
    assert (first.sigma, first.c_lo, first.c_hi) == (1, -1, 1)
    assert (last.sigma, last.c_lo, last.c_hi) == (-1, 8, 10)
    assert all(partition_diagram.cells[i][0].status == "empty" for i in range(1, 5))


def test_partition_singleton_unrealizable():
    d = gen_partition([1])
    assert [int(w) for w in d.col_widths] == [2, 1, 2]
    assert solve_fpt(d) is None


def test_partition_items_validated():
    with pytest.raises(ValueError):
        PartitionInstance([0, 2])
    with pytest.raises(ValueError):
        PartitionInstance([])


def test_partition_items_are_not_truncated():
    for items in ([2.7, True, 3], [True], [2.0, 3], [Fraction(5, 2)], ["3"]):
        with pytest.raises(ValueError):
            PartitionInstance(items)
    assert PartitionInstance([np.int64(3), 2]).items == (3, 2)


def test_partition_realizability_matches_subset_sum_small():
    for n in range(1, 5):
        for items in itertools.combinations_with_replacement(range(1, 5), n):
            expected = has_balanced_partition(items)
            assert (solve_fpt(gen_partition(items)) is not None) == expected


SEVEN_CELL_SIGNS = ["---", "+++", "--+", "-++", "-+-", "++-", "+--"]


def test_stretchability_seven_cell_set():
    signs = SignVectorSet.from_strings(SEVEN_CELL_SIGNS)
    m = gen_stretchability(signs)
    assert (m.n_rows, m.m_cols) == (6, 7)
    assert m.entries[:, 0].tolist() == [0, 0, 0, 1, 1, 1]
    assert m.entries[:, 1].tolist() == [1, 1, 1, 0, 0, 0]


def test_stretchability_single_line():
    signs = SignVectorSet.from_strings(["-", "+"])
    assert gen_stretchability(signs) == FreeSpaceMatrix([[0, 1], [1, 0]])


def test_stretchability_rows_complementary():
    signs = SignVectorSet.from_strings(SEVEN_CELL_SIGNS)
    m = gen_stretchability(signs)
    n = signs.n
    for i in range(n):
        assert ((m.entries[i] ^ m.entries[n + i]) == 1).all()


def test_sign_vector_set_validation():
    with pytest.raises(ValueError):
        SignVectorSet.from_strings(["--", "++", "-+"])  # wrong count
    with pytest.raises(ValueError):
        SignVectorSet.from_strings(["+-", "--", "++", "-+"])  # wrong leaders


TRIANGLE_LINES = [
    OrientedLine(-1.0, 1.0, 2.0),  # above y = x + 2
    OrientedLine(0.0, 1.0, 0.0),  # above y = 0
    OrientedLine(1.0, 1.0, 2.0),  # above y = -x + 2
]
TRIANGLE_POINTS = [
    (0.1, -5.0),
    (0.2, 5.0),
    (5.0, -0.1),
    (5.0, 0.1),
    (0.0, 1.0),
    (-5.0, 0.1),
    (-5.0, -0.1),
]


def test_arrangement_witness_single_line():
    signs = SignVectorSet.from_strings(["-", "+"])
    w = arrangement_to_witness(signs, [OrientedLine(0.0, 1.0, 0.0)], [(0.0, -1.0), (0.0, 1.0)])
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == gen_stretchability(signs)


def test_arrangement_witness_triangle_fixture():
    signs = SignVectorSet.from_strings(SEVEN_CELL_SIGNS)
    w = arrangement_to_witness(signs, TRIANGLE_LINES, TRIANGLE_POINTS)
    assert compute_matrix(w.curve_p, w.curve_q, w.epsilon) == gen_stretchability(signs)


def test_arrangement_witness_rejects_wrong_cell_point():
    signs = SignVectorSet.from_strings(SEVEN_CELL_SIGNS)
    pts = list(TRIANGLE_POINTS)
    pts[2], pts[3] = pts[3], pts[2]
    with pytest.raises(ValueError):
        arrangement_to_witness(signs, TRIANGLE_LINES, pts)


def test_random_instance_deterministic():
    a = gen_random_instance(123, kind="matrix")
    b = gen_random_instance(123, kind="matrix")
    assert a == b
    da = gen_random_instance(7, kind="diagram")
    db = gen_random_instance(7, kind="diagram")
    assert da == db


def test_random_diagram_keeps_rational_eps():
    for eps in (Fraction(5, 2), "5/2", Fraction(1, 2)):
        d = gen_random_instance(3, kind="diagram", eps=eps)
        assert d.epsilon == Fraction(eps)
        assert solve_fpt(d) is not None
    d = gen_random_instance(3, kind="diagram", eps=2)
    assert d.epsilon == 2
    assert d == gen_random_instance(3, kind="diagram", eps=Fraction(2))


def test_random_matrices_solve_yes():
    from fsreal import solve_discrete_1d

    for seed in range(25):
        m = gen_random_instance(seed, kind="matrix")
        assert solve_discrete_1d(m) is not None


def test_random_diagrams_validate_and_solve_yes():
    for seed in range(25):
        d = gen_random_instance(seed, kind="diagram")
        assert structural_problems(d) == [] and consistency_problems(d) == []
        assert solve_fpt(d) is not None


def test_mutation_breaks_realizability_statistic():
    from fsreal import solve_discrete_1d

    broken = 0
    total = 120
    for seed in range(total):
        m = gen_random_instance(seed, kind="matrix", n_points=12, m_points=10, mutate=True)
        if solve_discrete_1d(m) is None:
            broken += 1
    # recorded, not asserted as an exact proportion: a healthy share of
    # single-entry flips must break realizability
    print(f"\nmutated 12x10 matrices unrealizable: {broken}/{total}")
    assert broken >= total // 5


def test_mutated_diagrams_stay_structurally_valid():
    # the forward computation and transpose_diagram build diagrams without
    # the constructors' structural check; this is the check that vouches
    # for them
    rng = random.Random(181)
    for seed in range(40):
        d = gen_random_instance(seed, kind="diagram", mutate=True)
        assert isinstance(d, FreeSpaceDiagram1D)
        for built in (d, gen_random_instance(seed, kind="diagram"), random_rational_diagram(rng)):
            assert structural_problems(built) == []
            assert structural_problems(transpose_diagram(built)) == []
