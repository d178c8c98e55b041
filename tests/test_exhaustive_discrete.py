"""Exhaustive differential test of the discrete solver against the row-family
oracle on every 3x4 and 4x3 matrix (criterion 2 covers every 4x4 one).

A matrix of m columns is realizable iff its set of rows lies inside one of
the families of ``realizable_row_families(m)``. Merging equal columns often
leaves the 4x4 matrices three columns or fewer, so the wider and the taller
shapes check the solver where its twin quotient keeps more columns and more
rows. Run as a script to check all 65,536 matrices of the shapes 3x5 and
5x3; it exits 1 if any verdict disagrees with the oracle:

    PYTHONPATH=src python tests/test_exhaustive_discrete.py 3x5 5x3
"""

import sys

from fsreal import FreeSpaceMatrix, solve_discrete_1d
from fsreal.bruteforce import realizable_row_families


def _family_masks(m: int) -> list[int]:
    """Each realizable family as a mask over row masks: bit r is set iff the
    row whose column mask is r lies in the family."""
    masks = []
    for family in realizable_row_families(m):
        mask = 0
        for cover in family:
            mask |= 1 << sum(1 << c for c in cover)
        masks.append(mask)
    return masks


def disagreements(n: int, m: int) -> tuple[int, int]:
    """(disagreements with the oracle, oracle YES answers) over all 2^(n*m)
    n x m matrices."""
    families = _family_masks(m)
    full = (1 << m) - 1
    wrong = yes = 0
    for code in range(1 << (n * m)):
        rows = [code >> (m * r) & full for r in range(n)]
        row_set = 0
        for row in rows:
            row_set |= 1 << row
        expected = any(row_set & ~family == 0 for family in families)
        yes += expected
        wrong += (solve_discrete_1d(FreeSpaceMatrix.from_row_masks(m, rows)) is not None) != expected
    return wrong, yes


def test_every_3x4_matrix_agrees_with_oracle():
    assert disagreements(3, 4)[0] == 0


def test_every_4x3_matrix_agrees_with_oracle():
    assert disagreements(4, 3)[0] == 0


if __name__ == "__main__":
    failed = False
    for shape in sys.argv[1:]:
        n, m = (int(side) for side in shape.split("x"))
        wrong, yes = disagreements(n, m)
        print(f"{n}x{m}: {wrong} disagreements with the row-family oracle of {1 << (n * m)} ({yes} realizable)")
        failed |= wrong > 0
    sys.exit(1 if failed else 0)
