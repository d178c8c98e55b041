"""Diagram symmetries: a verdict cannot change when the two curves swap
places (the transpose), when P or Q is traversed backwards, or when every
length is multiplied by an integer. Both diagram solvers run on the fuzz
corpora and on the 85 long golden diagrams.

The transformed diagrams are built from the public ``cells`` view and
``from_scaled`` alone, so the test also checks the view against the
diagram's own table: the helpers' transpose must equal
``transpose_diagram``, and each transform applied twice (the scaling
excepted) must give the diagram back.
"""

from fsreal import CellContent, FreeSpaceDiagram1D, solve_fpt, solve_pseudo_poly
from fsreal.model import PARTIAL, transpose_diagram

from test_fuzz_pseudopoly import consistent_diagrams, forward_diagrams
from test_golden_witnesses import _long_corpus


def _fields(d: FreeSpaceDiagram1D):
    """eps, the widths, the heights and the cells as ints over the
    diagram's scale, read off the Fraction views."""
    scale = d.scale

    def num(v) -> int:
        assert (v * scale).denominator == 1
        return int(v * scale)

    cells = [[c if c.status != PARTIAL else CellContent(PARTIAL, c.sigma, num(c.c_lo), num(c.c_hi)) for c in col] for col in d.cells]
    return num(d.epsilon), [num(w) for w in d.col_widths], [num(h) for h in d.row_heights], cells


def transposed(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram of (Q, P): cell (i, j) moves to (j, i), and a sigma = +1
    slab x - y in [lo, hi] becomes y - x in [-hi, -lo]."""
    eps, widths, heights, cells = _fields(d)

    def swap(c):
        return CellContent(PARTIAL, 1, -c.c_hi, -c.c_lo) if c.status == PARTIAL and c.sigma == 1 else c

    rows = [[swap(col[j]) for col in cells] for j in range(len(heights))]
    return FreeSpaceDiagram1D.from_scaled(d.scale, eps, heights, widths, rows)


def p_reversed(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram of P traversed backwards: the columns in reverse order,
    each cell mirrored by x -> w - x, under which y - sigma*x in [lo, hi]
    becomes y + sigma*x in [lo + sigma*w, hi + sigma*w]."""
    eps, widths, heights, cells = _fields(d)

    def mirror(c, w):
        return CellContent(PARTIAL, -c.sigma, c.c_lo + c.sigma * w, c.c_hi + c.sigma * w) if c.status == PARTIAL else c

    cols = [[mirror(c, w) for c in col] for col, w in zip(cells, widths)]
    return FreeSpaceDiagram1D.from_scaled(d.scale, eps, widths[::-1], heights, cols[::-1])


def q_reversed(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram of Q traversed backwards: P's reversal conjugated by the
    transpose."""
    return transposed(p_reversed(transposed(d)))


def scaled(d: FreeSpaceDiagram1D, k: int) -> FreeSpaceDiagram1D:
    """Every length and intercept times k, over the same scale."""
    eps, widths, heights, cells = _fields(d)
    cells = [[c if c.status != PARTIAL else CellContent(PARTIAL, c.sigma, k * c.c_lo, k * c.c_hi) for c in col] for col in cells]
    return FreeSpaceDiagram1D.from_scaled(d.scale, k * eps, [k * w for w in widths], [k * h for h in heights], cells)


def _check_symmetries(diagrams, k: int) -> list[bool]:
    verdicts = []
    for index, d in enumerate(diagrams):
        t = transposed(d)
        assert t == transpose_diagram(d) and transposed(t) == d, index
        assert p_reversed(p_reversed(d)) == d and q_reversed(q_reversed(d)) == d, index
        variants = [t, p_reversed(d), q_reversed(d), scaled(d, k)]
        for solve in (solve_pseudo_poly, solve_fpt):
            verdict = solve(d) is not None
            assert [solve(v) is not None for v in variants] == [verdict] * 4, (index, solve.__name__)
            verdicts.append(verdict)
    return verdicts


def test_verdicts_hold_under_the_diagram_symmetries_on_the_fuzz_corpora():
    diagrams = list(forward_diagrams(20, seed=41)) + list(consistent_diagrams(40, seed=42))
    verdicts = _check_symmetries(diagrams, 3)
    assert all(verdicts[: 2 * 20]) and verdicts.count(False) > 10


def test_verdicts_hold_under_the_diagram_symmetries_on_the_long_diagrams():
    verdicts = _check_symmetries(_long_corpus(), 2)
    assert verdicts.count(True) == 2 * 42
