"""Exact domain types shared by all solvers.

Every exact 1D value (a curve, a point sequence, a diagram) is stored in one
canonical int form: an int ``scale``, the least common multiple of the
denominators of its values, and every value times that scale as an int (the
``scaled_*`` fields), so the ints and the scale share no common factor.
Equality, hashing, the solvers and serialization read these ints; the
caller-unit `fractions.Fraction` views (``vertices``, ``points``,
``epsilon``, ``col_widths``, ``row_heights``, ``cells``) are built on first
read and then kept. A witness's eps is a Fraction, or a float for curves in
R^d. The cell algebra below is written for either number type and returns
ints on int input.
Every module's cells are one value type, :class:`CellContent`, and
:func:`classify_slab` is the one slab-in-box test here; the forward
computation's kernel inlines it, and FPT's crease labels, its sweep and
pseudo-poly's frame check compare that kernel's cells with a diagram's.
What stays here serves the diagram itself (its checks and its transpose)
and pseudo-poly's typing, which cuts slabs with :func:`cell_restrict`. The
grid-line check compares edge intervals inline on the ints, so
:func:`cell_edge_interval` serves :mod:`fsreal.render` and the tests, which
hold the check to it.
Curves in dimension >= 2 hold float coordinates, which
:mod:`fsreal.forward` compares exactly on ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

EMPTY = "empty"
FULL = "full"
PARTIAL = "partial"


def rat(value: RationalLike) -> Fraction:
    """Parse a rational from an int, Fraction, or a "num/den" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_pair(value))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _pair(text: str) -> tuple[int, int]:
    """A "num" or "num/den" string as (numerator, nonzero denominator), not
    reduced: the one grammar of rational strings, read without a Fraction."""
    num, slash, den = text.strip().partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"bad rational {text!r}") from None
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return n, d


def checked_epsilon(value, exact: bool) -> Union[Fraction, float]:
    """``value`` as the epsilon of a pair of curves, or ValueError. For curves
    on the line (``exact``) it is a positive int, Fraction or "num/den"
    string, returned as a Fraction; for curves in R^d it may also be a float,
    and it is returned as a positive finite float. ``True`` is neither. The
    one rule of :class:`Witness` and of a curves file's epsilon."""
    if isinstance(value, float) and not exact:
        eps = value
    else:
        if type(value) is int:
            eps = Fraction(value)
        elif isinstance(value, Fraction):
            eps = value
        elif type(value) is str:
            try:
                eps = Fraction(*_pair(value))
            except ZeroDivisionError as exc:
                raise ValueError(str(exc)) from None
        else:
            raise ValueError(f"expected a rational string or integer, got {value!r}")
        if not exact:
            try:
                eps = float(eps)
            except OverflowError:
                eps = math.inf
    if eps.numerator > 0 if exact else 0 < eps < math.inf:
        return eps
    raise ValueError(f"epsilon must be positive and finite, got {value!r}")


def rat_str(q: Union[Fraction, int]) -> str:
    """Render a Fraction or an int, already in lowest terms, as "num" or
    "num/den"; no Fraction is built."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scaled_str(value: int, scale: int) -> str:
    """Render the rational ``value / scale`` of two ints as :func:`rat_str`
    does, after one gcd."""
    g = math.gcd(value, scale)
    if g == scale:
        return str(value // g)
    return f"{value // g}/{scale // g}"


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, nonzero denominator) of an int, of a string through
    :func:`_pair`, or of anything else through :func:`rat`."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        return _pair(value)
    q = rat(value)
    return q.numerator, q.denominator


def _scaled(values: Iterable[RationalLike]) -> tuple[int, Sequence[int]]:
    """The least common multiple of the values' denominators, and each
    value times it as an int, divided by their gcd so that the two share no
    common factor; ints and strings build no Fraction. ``math.lcm`` is never
    negative, so a negative denominator moves its sign to the int."""
    ratios = [_ratio(v) for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return _reduced(scale, [n * (scale // d) for n, d in ratios])


def _check_scale(scale) -> None:
    if type(scale) is not int or scale < 1:
        raise ValueError(f"scale must be a positive int, got {scale!r}")


def _reduced(scale: int, ints: Sequence[int]) -> tuple[int, Sequence[int]]:
    """``scale`` and ``ints`` divided by their gcd."""
    g = math.gcd(scale, *ints) if scale > 1 else 1
    return (scale, ints) if g == 1 else (scale // g, [v // g for v in ints])


@dataclass(frozen=True)
class Curve1D:
    """Polygonal curve on the line: >= 2 vertices, no zero-length segments.

    Stored as ``scaled_vertices``, each vertex times ``scale`` as an int;
    ``vertices`` are the Fractions, built on first read."""

    scale: int
    scaled_vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[RationalLike]):
        self._set(*_scaled(vertices))

    @classmethod
    def from_scaled(cls, scale: int, scaled_vertices: Iterable[int]) -> "Curve1D":
        """The curve whose vertices are these ints over ``scale``, a positive int."""
        _check_scale(scale)
        curve = object.__new__(cls)
        curve._set(*_reduced(scale, tuple(scaled_vertices)))
        return curve

    def _set(self, scale: int, ints: Sequence[int]) -> None:
        ints = tuple(ints)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled_vertices", ints)
        if len(ints) < 2:
            raise ValueError("a 1D curve needs at least two vertices")
        if any(a == b for a, b in zip(ints, ints[1:])):
            raise ValueError("consecutive curve vertices must be distinct")

    @cached_property
    def vertices(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.scaled_vertices)


@dataclass(frozen=True)
class PointSeq1D:
    """Discrete curve on the line: an ordered point sequence, repeats allowed.

    Stored as ``scaled_points``, each point times ``scale`` as an int;
    ``points`` are the Fractions, built on first read."""

    scale: int
    scaled_points: tuple[int, ...]

    def __init__(self, points: Iterable[RationalLike]):
        self._set(*_scaled(points))

    @classmethod
    def from_scaled(cls, scale: int, scaled_points: Iterable[int]) -> "PointSeq1D":
        """The sequence whose points are these ints over ``scale``, a positive int."""
        _check_scale(scale)
        seq = object.__new__(cls)
        seq._set(*_reduced(scale, tuple(scaled_points)))
        return seq

    def _set(self, scale: int, ints: Sequence[int]) -> None:
        ints = tuple(ints)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled_points", ints)
        if not ints:
            raise ValueError("a point sequence needs at least one point")

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.scaled_points)

    def __len__(self) -> int:
        return len(self.scaled_points)


@dataclass(frozen=True)
class CurveD:
    """Point sequence in R^d, d >= 2, finite real coordinates."""

    vertices: tuple[tuple[float, ...], ...]

    def __init__(self, vertices: Iterable[Sequence[float]]):
        vtx = tuple(tuple(float(x) for x in v) for v in vertices)
        object.__setattr__(self, "vertices", vtx)
        if not vtx:
            raise ValueError("a curve needs at least one vertex")
        if not all(map(math.isfinite, chain.from_iterable(vtx))):
            raise ValueError("curve coordinates must be finite")
        d = len(vtx[0])
        if d < 2:
            raise ValueError("CurveD is for dimension >= 2; use Curve1D/PointSeq1D on the line")
        if any(len(v) != d for v in vtx):
            raise ValueError("all vertices must share one dimension")

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])


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
            raise ValueError("slab orientation must be +1 or -1")
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


def cell_restrict(
    cell: CellContent, x0: int | Fraction, y0: int | Fraction, w: int | Fraction, h: int | Fraction
) -> CellContent:
    """Cell content restricted to the w x h box at (x0, y0), re-based to
    [0, w] x [0, h]."""
    if cell.status != PARTIAL:
        return cell
    # y0 + y' - sigma*(x0 + x') = (y' - sigma*x') + y0 - sigma*x0
    shift = cell.sigma * x0 - y0
    return classify_slab(cell.sigma, cell.c_lo + shift, cell.c_hi + shift, w, h)


def cell_transpose(cell: CellContent) -> CellContent:
    """Cell content with the x and y axes swapped."""
    if cell.status != PARTIAL:
        return cell
    if cell.sigma == -1:
        return cell
    # x - y in [lo, hi]  <=>  y - x in [-hi, -lo]
    return CellContent(PARTIAL, 1, -cell.c_hi, -cell.c_lo)


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


_EMPTY_CELL = CellContent.empty()
_FULL_CELL = CellContent.full()

_NOT_2D = "matrix must be two-dimensional and non-empty"
_NOT_BINARY = "matrix entries must be 0 or 1"
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class FreeSpaceMatrix:
    """Boolean n x m matrix; rows index P points, columns index Q points.

    The matrix is ``m_cols`` and ``row_masks``, a tuple of one Python int per
    row: bit j of ``row_masks[i]`` is entry (i, j). Equality, hashing,
    serialization and every solver read the masks, so a matrix needs no
    numpy; ``entries`` builds the n x m uint8 numpy array on demand.
    """

    __slots__ = ("m_cols", "row_masks")

    def __init__(self, entries):
        """``entries``: rows of 0/1 ints or bools (Python or numpy), or a
        two-dimensional numpy array of a bool or integer dtype."""
        if hasattr(entries, "dtype") and hasattr(entries, "ndim"):
            m, masks = _array_masks(entries)
        else:
            m, masks = _list_masks(entries)
        self.m_cols = m
        self.row_masks = masks

    @classmethod
    def from_row_masks(cls, m_cols: int, row_masks) -> "FreeSpaceMatrix":
        """The matrix of ``m_cols`` columns whose row i is the int mask
        ``row_masks[i]``."""
        if m_cols < 1:
            raise ValueError(_NOT_2D)
        masks = tuple(row_masks)
        if not masks:
            raise ValueError(_NOT_2D)
        if any(type(r) is not int or r < 0 or r >> m_cols for r in masks):
            raise ValueError(f"row masks must be ints in [0, 2^{m_cols})")
        return cls._built(m_cols, masks)

    @classmethod
    def _built(cls, m_cols: int, row_masks) -> "FreeSpaceMatrix":
        """:meth:`from_row_masks` unchecked, for the masks well formed by
        construction: the forward computation's, the twin quotient's and a
        file's 0/1 string rows."""
        matrix = object.__new__(cls)
        matrix.m_cols = m_cols
        matrix.row_masks = tuple(row_masks)
        return matrix

    @property
    def n_rows(self) -> int:
        return len(self.row_masks)

    def tolist(self) -> list[list[int]]:
        """The entries as n lists of m ints 0/1."""
        m = self.m_cols
        return [list(format(r, f"0{m}b")[::-1].encode().translate(_BIT_BYTES)) for r in self.row_masks]

    @property
    def entries(self):
        """The entries as a new read-only n x m uint8 numpy array."""
        import numpy as np

        width = (self.m_cols + 7) // 8
        packed = b"".join(r.to_bytes(width, "little") for r in self.row_masks)
        arr = np.frombuffer(packed, dtype=np.uint8).reshape(self.n_rows, width)
        arr = np.unpackbits(arr, axis=1, count=self.m_cols, bitorder="little")
        arr.flags.writeable = False
        return arr

    def row_sets(self) -> list[frozenset[int]]:
        out = []
        for r in self.row_masks:
            cols = []
            while r:
                cols.append((r & -r).bit_length() - 1)
                r &= r - 1
            out.append(frozenset(cols))
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, FreeSpaceMatrix):
            return self.m_cols == other.m_cols and self.row_masks == other.row_masks
        return NotImplemented

    def __hash__(self):
        return hash((self.m_cols, self.row_masks))

    def __repr__(self) -> str:
        rows = [format(r, f"0{self.m_cols}b")[::-1] for r in self.row_masks]
        return f"FreeSpaceMatrix([{', '.join(rows)}])"


def row_mask(bits: list[int]) -> int:
    """The int mask of a nonempty list of 0/1 ints: bit j is ``bits[j]``."""
    return int(bytes(bits[::-1]).translate(_BIT_DIGITS), 2)


def _array_masks(arr) -> tuple[int, tuple[int, ...]]:
    import numpy as np

    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(_NOT_2D)
    # checked before the cast, which would truncate floats and wrap ints
    if arr.dtype.kind not in "biu" or (arr.dtype.kind != "b" and (arr >> 1).any()):
        raise ValueError(_NOT_BINARY)
    packed = np.packbits(arr.astype(bool), axis=1, bitorder="little")
    return int(arr.shape[1]), tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def _entry_bit(v) -> int:
    """0 or 1 for an int or bool entry, Python or numpy scalar."""
    if type(v) is not int and type(v) is not bool:
        dtype = getattr(v, "dtype", None)
        if dtype is None or dtype.kind not in "biu" or getattr(v, "ndim", 0) != 0:
            raise ValueError(_NOT_BINARY)
        v = int(v)
    if v not in (0, 1):
        raise ValueError(_NOT_BINARY)
    return int(v)


def _is_sequence(x) -> bool:
    """True for what numpy reads as an axis: not a string, not an iterator."""
    try:
        return iter(x) is not x and not isinstance(x, (str, bytes))
    except TypeError:
        return False


def _list_masks(entries) -> tuple[int, tuple[int, ...]]:
    if not _is_sequence(entries):
        raise ValueError(_NOT_2D)
    rows = [list(r) if _is_sequence(r) else None for r in entries]
    if not rows or None in rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(_NOT_2D)
    return len(rows[0]), tuple(row_mask([_entry_bit(v) for v in r]) for r in rows)


def _intercepts(cells):
    """c_lo and c_hi of each partial cell, in grid order."""
    return (v for col in cells for c in col if c.status == PARTIAL for v in (c.c_lo, c.c_hi))


def _rescaled(cells, f) -> tuple[tuple[CellContent, ...], ...]:
    """The cells, each partial cell's intercepts mapped through ``f``."""
    return tuple(
        tuple(CellContent(PARTIAL, c.sigma, f(c.c_lo), f(c.c_hi)) if c.status == PARTIAL else c for c in col)
        for col in cells
    )


@dataclass(frozen=True)
class FreeSpaceDiagram1D:
    """Cell grid of a 1D free space diagram; ``cells[i][j]`` pairs the i-th
    P segment (column, width ``col_widths[i]``) with the j-th Q segment
    (row, height ``row_heights[j]``).

    Stored as ints over one ``scale``: ``scaled_eps``, ``scaled_widths``,
    ``scaled_heights`` and ``scaled_cells``, whose partial cells carry int
    intercepts. ``epsilon``, ``col_widths``, ``row_heights`` and ``cells``
    are the same values as Fractions, built on first read.

    Both constructors run :func:`structural_problems` and raise
    ``ValueError("invalid diagram: ...")`` on a malformed diagram, so a
    built diagram can fail only :func:`consistency_problems`."""

    scale: int
    scaled_eps: int
    scaled_widths: tuple[int, ...]
    scaled_heights: tuple[int, ...]
    scaled_cells: tuple[tuple[CellContent, ...], ...]

    def __init__(self, epsilon, col_widths, row_heights, cells):
        widths, heights, cells = list(col_widths), list(row_heights), tuple(tuple(col) for col in cells)
        self._set(*_scaled([epsilon, *widths, *heights, *_intercepts(cells)]), len(widths), len(heights), cells)
        _check_diagram(self)

    @classmethod
    def from_scaled(cls, scale: int, scaled_eps: int, scaled_widths, scaled_heights, scaled_cells):
        """The diagram whose values are these ints over ``scale``, a
        positive int; the scale and the ints are divided by their gcd."""
        _check_scale(scale)
        return _check_diagram(cls._built(scale, scaled_eps, scaled_widths, scaled_heights, scaled_cells))

    @classmethod
    def _built(cls, scale: int, scaled_eps: int, scaled_widths, scaled_heights, scaled_cells):
        """:meth:`from_scaled` unchecked, for the diagrams well formed by
        construction: the forward computation's and :func:`transpose_diagram`'s."""
        widths, heights = tuple(scaled_widths), tuple(scaled_heights)
        cells = tuple(tuple(col) for col in scaled_cells)
        diagram = object.__new__(cls)
        if scale > 1:
            reduced_scale, ints = _reduced(scale, [scaled_eps, *widths, *heights, *_intercepts(cells)])
            if reduced_scale < scale:
                diagram._set(reduced_scale, ints, len(widths), len(heights), cells)
                return diagram
        diagram._store(scale, scaled_eps, widths, heights, cells)
        return diagram

    def _set(self, scale: int, ints: Sequence[int], n: int, m: int, cells) -> None:
        """Store ``ints`` over ``scale``: eps, the n widths, the m heights,
        then the intercepts of the partial ``cells`` in grid order."""
        it = iter(ints)
        eps, widths, heights = next(it), tuple(islice(it, n)), tuple(islice(it, m))
        self._store(scale, eps, widths, heights, _rescaled(cells, lambda _: next(it)))

    def _store(self, *values) -> None:
        for name, value in zip(("scale", "scaled_eps", "scaled_widths", "scaled_heights", "scaled_cells"), values):
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
    def cells(self) -> tuple[tuple[CellContent, ...], ...]:
        return _rescaled(self.scaled_cells, lambda v: Fraction(v, self.scale))

    @property
    def n_cols(self) -> int:
        return len(self.scaled_widths)

    @property
    def m_rows(self) -> int:
        return len(self.scaled_heights)


def transpose_diagram(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram of the swapped curve pair (Q, P): rows become columns and
    each cell is transposed."""
    cells = [[cell_transpose(col[j]) for col in d.scaled_cells] for j in range(d.m_rows)]
    return FreeSpaceDiagram1D._built(d.scale, d.scaled_eps, d.scaled_heights, d.scaled_widths, cells)


@dataclass(frozen=True)
class Witness:
    """Curves certifying a YES answer; forward computation reproduces the
    instance exactly."""

    curve_p: Union[Curve1D, PointSeq1D, CurveD]
    curve_q: Union[Curve1D, PointSeq1D, CurveD]
    epsilon: Union[Fraction, float]

    def __init__(self, curve_p, curve_q, epsilon):
        """``epsilon`` under :func:`checked_epsilon`: a Fraction for curves on
        the line, a float for curves in R^d."""
        object.__setattr__(self, "curve_p", curve_p)
        object.__setattr__(self, "curve_q", curve_q)
        object.__setattr__(self, "epsilon", checked_epsilon(epsilon, exact=not isinstance(curve_p, CurveD)))

    @classmethod
    def _built(cls, curve_p, curve_q, epsilon: Fraction) -> "Witness":
        """:meth:`__init__` unchecked, for a solver's witness on the line,
        whose ``epsilon`` is a diagram's or an already checked positive
        Fraction."""
        witness = object.__new__(cls)
        object.__setattr__(witness, "curve_p", curve_p)
        object.__setattr__(witness, "curve_q", curve_q)
        object.__setattr__(witness, "epsilon", epsilon)
        return witness


def _check_diagram(d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    problems = structural_problems(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    return d


def structural_problems(d: FreeSpaceDiagram1D) -> list[str]:
    """Shape and per-cell invariants; violations mean malformed data."""
    problems: list[str] = []
    eps, widths, heights, cells = d.scaled_eps, d.scaled_widths, d.scaled_heights, d.scaled_cells
    if eps <= 0:
        problems.append("epsilon must be positive")
    if len(cells) != d.n_cols:
        problems.append("cell grid width does not match colWidths")
        return problems
    if any(len(col) != d.m_rows for col in cells):
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

    for i, w in enumerate(widths):
        for j, h in enumerate(heights):
            c = cells[i][j]
            if c.status not in (EMPTY, FULL, PARTIAL):
                problems.append(f"cell ({i},{j}): unknown status {c.status!r}")
                continue
            if c.status != PARTIAL:
                continue
            if type(c.sigma) is not int or c.sigma not in (1, -1):
                problems.append(f"cell ({i},{j}): slab orientation must be +1 or -1")
                continue
            if c.c_hi - c.c_lo != 2 * eps:
                problems.append(f"cell ({i},{j}): slab width != 2*eps")
                continue
            status = classify_slab(c.sigma, c.c_lo, c.c_hi, w, h).status
            if status == EMPTY:
                problems.append(f"cell ({i},{j}): white set empty")
            elif status == FULL:
                problems.append(f"cell ({i},{j}): slab covers the whole cell")
    return problems


def consistency_problems(d: FreeSpaceDiagram1D) -> list[str]:
    """Shared-boundary agreement: the white set restricted to a grid line must
    be identical computed from either adjacent cell. A well-formed diagram
    violating this is never realizable (forward computation always agrees),
    so solvers answer NO instead of rejecting it.

    The edge intervals of :func:`cell_edge_interval` are compared inline, on
    the ints: a partial cell's white set on an edge is its slab's intercept
    range there, clipped to the edge, and None where the clip is empty."""
    cells, widths, heights = d.scaled_cells, d.scaled_widths, d.scaled_heights
    # White space restricted to a shared grid line must agree from both sides.
    # Two empty cells give None on both sides and two full cells the whole
    # edge, so only a line with a partial cell or two statuses is compared,
    # and two equal columns of empty and full cells have none.
    across: list[tuple[int, int]] = []  # (row, left column) of each disagreeing line
    for i, (left, right, w_l) in enumerate(zip(cells, cells[1:], widths)):
        if left == right and left.count(_EMPTY_CELL) + left.count(_FULL_CELL) == len(left):
            continue
        for j, (a, b, h) in enumerate(zip(left, right, heights)):
            if a.status == b.status != PARTIAL:
                continue
            if a.status == PARTIAL:  # a's right edge, x = w_l
                shift = w_l if a.sigma == 1 else -w_l
                lo, hi = a.c_lo + shift, a.c_hi + shift
                lo, hi = lo if lo > 0 else 0, hi if hi < h else h
                edge_a = (lo, hi) if lo <= hi else None
            else:
                edge_a = (0, h) if a.status == FULL else None
            if b.status == PARTIAL:  # b's left edge, x = 0
                lo, hi = b.c_lo, b.c_hi
                lo, hi = lo if lo > 0 else 0, hi if hi < h else h
                edge_b = (lo, hi) if lo <= hi else None
            else:
                edge_b = (0, h) if b.status == FULL else None
            if edge_a != edge_b:
                across.append((j, i))
    problems = [f"grid line between columns {i},{i + 1} at row {j}: white sets disagree" for j, i in sorted(across)]
    for i, (col, w) in enumerate(zip(cells, widths)):
        if col[0].status != PARTIAL and col.count(col[0]) == len(col):
            continue  # one empty or full cell all along
        for j, (a, b, h_a) in enumerate(zip(col, col[1:], heights)):
            if a.status == b.status != PARTIAL:
                continue
            if a.status == PARTIAL:  # a's top edge, y = h_a
                lo, hi = (h_a - a.c_hi, h_a - a.c_lo) if a.sigma == 1 else (a.c_lo - h_a, a.c_hi - h_a)
                lo, hi = lo if lo > 0 else 0, hi if hi < w else w
                edge_a = (lo, hi) if lo <= hi else None
            else:
                edge_a = (0, w) if a.status == FULL else None
            if b.status == PARTIAL:  # b's bottom edge, y = 0
                lo, hi = (-b.c_hi, -b.c_lo) if b.sigma == 1 else (b.c_lo, b.c_hi)
                lo, hi = lo if lo > 0 else 0, hi if hi < w else w
                edge_b = (lo, hi) if lo <= hi else None
            else:
                edge_b = (0, w) if b.status == FULL else None
            if edge_a != edge_b:
                problems.append(f"grid line between rows {j},{j + 1} at column {i}: white sets disagree")
    return problems
