"""The 1D free space diagram: its cells, its int table and its checks.

A diagram is held as its file's int table, a letter string and the partial
cells' intercepts per column, over one ``scale`` as the values of
:mod:`fsreal.model` are; its :class:`CellContent` cells are a view. The
checks, the transpose and the solvers read the letters and do per-cell work
only at partial ones. The cell algebra below is written for either number
type, returns ints on int input, and serves :mod:`fsreal.render` and the
tests. A matrix solve imports none of this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple, Optional, Sequence

from .model import FrozenValue, RationalLike, _check_scale, _reduced, _scaled, rat

EMPTY = "empty"
FULL = "full"
PARTIAL = "partial"
_BAD_SIGMA = "slab orientation must be +1 or -1"


class CellContent(NamedTuple):
    """One diagram cell: empty, full, or a +-45 degree slab (partial).

    For a partial cell the white set in cell-local coordinates is
    ``{(x, y) : c_lo <= y - sigma*x <= c_hi}`` with ``c_hi - c_lo = 2*eps``;
    the intercepts are ints in a diagram's ``scaled_cells``. A named tuple,
    so cells compare and hash as tuples do.
    """

    status: str
    sigma: int = 0
    c_lo: Optional[int | Fraction] = None
    c_hi: Optional[int | Fraction] = None

    @staticmethod
    def empty() -> "CellContent":
        return CellContent(EMPTY)

    @staticmethod
    def full() -> "CellContent":
        return CellContent(FULL)

    @staticmethod
    def partial(sigma: int, c_lo: RationalLike, c_hi: RationalLike) -> "CellContent":
        if type(sigma) is not int or sigma not in (1, -1):
            raise ValueError(_BAD_SIGMA)
        return CellContent(PARTIAL, sigma, rat(c_lo), rat(c_hi))

    @property
    def is_partial(self) -> bool:
        return self.status == PARTIAL


def classify_slab(
    sigma: int, c_lo: int | Fraction, c_hi: int | Fraction, w: int | Fraction, h: int | Fraction
) -> CellContent:
    """Classify the slab's intersection with a w x h box (closed sets)."""
    vmin, vmax = (-w, h) if sigma == 1 else (0, w + h)  # the box's range of y - sigma*x
    if c_lo > vmax or c_hi < vmin:
        return CellContent.empty()
    if c_lo <= vmin and c_hi >= vmax:
        return CellContent.full()
    return CellContent(PARTIAL, sigma, c_lo, c_hi)


def cell_edge_interval(
    cell: CellContent, w: int | Fraction, h: int | Fraction, edge: str
) -> Optional[tuple[int | Fraction, int | Fraction]]:
    """Closed white interval on one cell edge, or None if empty.

    Edges: 'L'/'R' return a y-interval at x = 0 / x = w; 'B'/'T' return an
    x-interval at y = 0 / y = h.
    """
    if cell.status == EMPTY:
        return None
    if cell.status == FULL:
        return (0, h) if edge in ("L", "R") else (0, w)
    s, lo, hi = cell.sigma, cell.c_lo, cell.c_hi
    if edge == "L":
        a, b, cap = lo, hi, h
    elif edge == "R":
        a, b, cap = lo + s * w, hi + s * w, h
    elif edge == "B":
        if s == 1:
            a, b = -hi, -lo
        else:
            a, b = lo, hi
        cap = w
    elif edge == "T":
        if s == 1:
            a, b = h - hi, h - lo
        else:
            a, b = lo - h, hi - h
        cap = w
    else:
        raise ValueError(f"unknown edge {edge!r}")
    a2, b2 = max(a, 0), min(b, cap)
    if a2 > b2:
        return None
    return a2, b2


_LETTER_CELLS = {"e": CellContent.empty(), "f": CellContent.full()}
_PLAIN_CELLS = {"e": ("e", ()), "f": ("f", ())}


def _table(cells) -> tuple[list[str], list[list], dict[tuple[int, int], str]]:
    """A cell grid as its letter table. A cell no letter spells (an unknown
    status, or an orientation other than the int +1 or -1) is a ``?``, its
    problem returned by (column, row) for :func:`structural_problems`."""
    columns, intercepts, odd = [], [], {}
    for i, col in enumerate(cells):
        letters, ints = [], []
        for j, c in enumerate(col):
            if c.status == PARTIAL and type(c.sigma) is int and c.sigma in (1, -1):
                letters.append("p" if c.sigma == 1 else "n")
                ints += (c.c_lo, c.c_hi)
            elif c.status == EMPTY or c.status == FULL:
                letters.append("e" if c.status == EMPTY else "f")
            else:
                letters.append("?")
                odd[i, j] = _BAD_SIGMA if c.status == PARTIAL else f"unknown status {c.status!r}"
        columns.append("".join(letters))
        intercepts.append(ints)
    return columns, intercepts, odd


def column_cells(letters: str, ints) -> list[tuple[str, tuple[int, ...]]]:
    """Each cell of a column as a one-row column: its letter and (c_lo,
    c_hi), or () for an empty or full letter."""
    it = iter(ints)
    return [(ch, (next(it), next(it))) if ch == "p" or ch == "n" else _PLAIN_CELLS[ch] for ch in letters]


class FreeSpaceDiagram1D(FrozenValue):
    """1D free space diagram: column i pairs the i-th P segment (width
    ``col_widths[i]``) with each Q segment, row j the j-th (height
    ``row_heights[j]``).

    Stored as a diagram file's table, ints over one ``scale``: per column
    its letters in ``columns`` (``e`` empty, ``f`` full, ``p`` and ``n``
    partial with sigma +1 and -1) and in ``scaled_intercepts`` the (c_lo,
    c_hi) of its partial letters in row order. ``scaled_cells``
    (``scaled_cells[i][j]`` for column i, row j), ``cells`` and the Fraction
    values are views, built on first read.

    Both constructors take a cell grid, run :func:`structural_problems` and
    raise ``ValueError("invalid diagram: ...")`` on a malformed diagram, so
    a built diagram can fail only :func:`consistency_problems`."""

    scale: int
    scaled_eps: int
    scaled_widths: tuple[int, ...]
    scaled_heights: tuple[int, ...]
    columns: tuple[str, ...]
    scaled_intercepts: tuple[tuple[int, ...], ...]

    def __init__(self, epsilon, col_widths, row_heights, cells):
        widths, heights = list(col_widths), list(row_heights)
        columns, intercepts, odd = _table(cells)
        scale, ints = _scaled([epsilon, *widths, *heights, *chain.from_iterable(intercepts)])
        self._set(scale, ints, len(widths), len(heights), columns, intercepts)
        _check_diagram(self, odd)

    @classmethod
    def from_scaled(cls, scale: int, scaled_eps: int, scaled_widths, scaled_heights, scaled_cells):
        """The diagram whose values are these ints over ``scale``, a
        positive int; the scale and the ints are divided by their gcd."""
        _check_scale(scale)
        columns, intercepts, odd = _table(scaled_cells)
        return _check_diagram(cls._built(scale, scaled_eps, scaled_widths, scaled_heights, columns, intercepts), odd)

    @classmethod
    def _built(cls, scale: int, scaled_eps: int, scaled_widths, scaled_heights, columns, intercepts):
        """The diagram of this letter table (one int tuple of intercepts per
        column) over ``scale``, reduced and unchecked: the forward
        computation's and :func:`transpose_diagram`'s, or a file's, which
        :func:`_check_diagram` checks."""
        widths, heights = tuple(scaled_widths), tuple(scaled_heights)
        intercepts = tuple(map(tuple, intercepts))
        diagram = object.__new__(cls)
        if scale > 1:
            reduced_scale, ints = _reduced(scale, [scaled_eps, *widths, *heights, *chain.from_iterable(intercepts)])
            if reduced_scale < scale:
                diagram._set(reduced_scale, ints, len(widths), len(heights), columns, intercepts)
                return diagram
        diagram._store(scale, scaled_eps, widths, heights, tuple(columns), intercepts)
        return diagram

    def _set(self, scale: int, ints: Sequence[int], n: int, m: int, columns, intercepts) -> None:
        """Store ``ints`` over ``scale``: eps, the n widths, the m heights,
        then the intercepts of each column's partial letters."""
        it = iter(ints)
        eps, widths, heights = next(it), tuple(islice(it, n)), tuple(islice(it, m))
        scaled = tuple([tuple(islice(it, len(col))) for col in intercepts])
        self._store(scale, eps, widths, heights, tuple(columns), scaled)

    def _store(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @cached_property
    def epsilon(self) -> Fraction:
        return Fraction(self.scaled_eps, self.scale)

    @cached_property
    def col_widths(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.scaled_widths)

    @cached_property
    def row_heights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.scaled_heights)

    @cached_property
    def scaled_cells(self) -> tuple[tuple[CellContent, ...], ...]:
        return self._grid(int)

    @cached_property
    def cells(self) -> tuple[tuple[CellContent, ...], ...]:
        return self._grid(lambda v: Fraction(v, self.scale))

    def _grid(self, value) -> tuple[tuple[CellContent, ...], ...]:
        """The cells, each intercept mapped through ``value``."""
        def cell(ch: str, slab) -> CellContent:
            return _LETTER_CELLS.get(ch) or CellContent(PARTIAL, 1 if ch == "p" else -1, *map(value, slab))

        columns = zip(self.columns, self.scaled_intercepts)
        return tuple(tuple([cell(*c) for c in column_cells(col, ints)]) for col, ints in columns)

    @property
    def n_cols(self) -> int:
        return len(self.scaled_widths)

    @property
    def m_rows(self) -> int:
        return len(self.scaled_heights)


def transpose_diagram(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram of the swapped curve pair (Q, P): rows become columns and
    each cell is transposed."""
    rows, row_ints = list(map("".join, zip(*d.columns))), [[] for _ in d.scaled_heights]
    for col, ints in zip(d.columns, d.scaled_intercepts):
        it = iter(ints)
        for j, ch in enumerate(col if ints else ()):
            if ch == "p":  # x - y in [lo, hi]  <=>  y - x in [-hi, -lo]
                lo, hi = next(it), next(it)
                row_ints[j] += (-hi, -lo)
            elif ch == "n":
                row_ints[j] += (next(it), next(it))
    return FreeSpaceDiagram1D._built(d.scale, d.scaled_eps, d.scaled_heights, d.scaled_widths, rows, row_ints)


def _check_diagram(d: FreeSpaceDiagram1D, odd=None) -> FreeSpaceDiagram1D:
    """``d``, or ValueError naming its structural problems (``odd``: those of its ``?`` letters)."""
    if odd:
        object.__setattr__(d, "_odd_cells", odd)
    problems = structural_problems(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    return d


def structural_problems(d: FreeSpaceDiagram1D) -> list[str]:
    """Shape and per-cell invariants; violations mean malformed data. Only
    the partial letters of a column get per-cell checks."""
    problems: list[str] = []
    eps, widths, heights, columns = d.scaled_eps, d.scaled_widths, d.scaled_heights, d.columns
    if eps <= 0:
        problems.append("epsilon must be positive")
    if len(columns) != d.n_cols:
        problems.append("cell grid width does not match colWidths")
        return problems
    if any(len(col) != d.m_rows for col in columns):
        problems.append("cell grid height does not match rowHeights")
        return problems
    if d.n_cols == 0 or d.m_rows == 0:
        problems.append("cell grid is empty")
        return problems
    for i, w in enumerate(widths):
        if w <= 0:
            problems.append(f"column {i}: width must be positive")
    for j, h in enumerate(heights):
        if h <= 0:
            problems.append(f"row {j}: height must be positive")
    if problems:
        return problems

    for i, (w, col, ints) in enumerate(zip(widths, columns, d.scaled_intercepts)):
        if not ints and "?" not in col:
            continue  # empty and full letters only
        k = 0
        for j, ch in enumerate(col):
            if ch == "e" or ch == "f":
                continue
            if ch == "?":  # a cell that no letter spells
                problems.append(f"cell ({i},{j}): {d._odd_cells[i, j]}")
                continue
            lo, hi, k = ints[k], ints[k + 1], k + 2
            if hi - lo != 2 * eps:
                problems.append(f"cell ({i},{j}): slab width != 2*eps")
                continue
            h = heights[j]
            vmin, vmax = (-w, h) if ch == "p" else (0, w + h)  # the box's range of y - sigma*x
            if lo > vmax or hi < vmin:
                problems.append(f"cell ({i},{j}): white set empty")
            elif lo <= vmin and hi >= vmax:
                problems.append(f"cell ({i},{j}): slab covers the whole cell")
    return problems


def consistency_problems(d: FreeSpaceDiagram1D) -> list[str]:
    """Shared-boundary agreement: the white set restricted to a grid line must
    be identical computed from either adjacent cell. A well-formed diagram
    violating this is never realizable (forward computation always agrees),
    so solvers answer NO instead of rejecting it.

    The edge intervals of :func:`cell_edge_interval` are compared inline, on
    the ints: a partial cell's is its slab's intercept range on the edge,
    clipped to it, None where the clip is empty. Equal empty or full
    letters agree, so between two columns without a partial letter the
    lines that disagree are the rows where their strings differ, and within
    such a column those where its letter changes."""
    columns, intercepts, widths, heights = d.columns, d.scaled_intercepts, d.scaled_widths, d.scaled_heights
    across: list[tuple[int, int]] = []  # (row, left column) of each disagreeing line
    for i, (left, right, w_l) in enumerate(zip(columns, columns[1:], widths)):
        l_ints, r_ints = intercepts[i], intercepts[i + 1]
        if not l_ints and not r_ints:
            if left != right:
                across += [(j, i) for j, (a, b) in enumerate(zip(left, right)) if a != b]
            continue
        ka = kb = 0  # the intercepts of the row's letters
        for j, (a, b) in enumerate(zip(left, right)):
            if a == b and (a == "e" or a == "f"):
                continue
            h = heights[j]
            edge_a, edge_b = (0, h) if a == "f" else None, (0, h) if b == "f" else None
            if a == "p" or a == "n":  # a's right edge, x = w_l
                shift = w_l if a == "p" else -w_l
                lo, hi, ka = l_ints[ka] + shift, l_ints[ka + 1] + shift, ka + 2
                lo, hi = lo if lo > 0 else 0, hi if hi < h else h
                edge_a = (lo, hi) if lo <= hi else None
            if b == "p" or b == "n":  # b's left edge, x = 0
                lo, hi, kb = r_ints[kb], r_ints[kb + 1], kb + 2
                lo, hi = lo if lo > 0 else 0, hi if hi < h else h
                edge_b = (lo, hi) if lo <= hi else None
            if edge_a != edge_b:
                across.append((j, i))
    problems = [f"grid line between columns {i},{i + 1} at row {j}: white sets disagree" for j, i in sorted(across)]
    for i, (col, ints, w) in enumerate(zip(columns, intercepts, widths)):
        if not ints:
            if col.count(col[0]) == len(col):
                continue  # one empty or full letter all along
            problems += [
                f"grid line between rows {j},{j + 1} at column {i}: white sets disagree"
                for j in range(len(col) - 1)
                if col[j] != col[j + 1]
            ]
            continue
        k = 0  # the intercepts of row j's letter
        for j, (a, b) in enumerate(zip(col, col[1:])):
            if a == "p" or a == "n":  # a's top edge, y = h
                h, lo, hi = heights[j], ints[k], ints[k + 1]
                lo, hi = (h - hi, h - lo) if a == "p" else (lo - h, hi - h)
                lo, hi, k = lo if lo > 0 else 0, hi if hi < w else w, k + 2
                edge_a = (lo, hi) if lo <= hi else None
            elif a == b:
                continue
            else:
                edge_a = (0, w) if a == "f" else None
            edge_b = (0, w) if b == "f" else None
            if b == "p" or b == "n":  # b's bottom edge, y = 0
                lo, hi = (-ints[k + 1], -ints[k]) if b == "p" else (ints[k], ints[k + 1])
                lo, hi = lo if lo > 0 else 0, hi if hi < w else w
                edge_b = (lo, hi) if lo <= hi else None
            if edge_a != edge_b:
                problems.append(f"grid line between rows {j},{j + 1} at column {i}: white sets disagree")
    return problems
