"""Exact domain types shared by all solvers.

Every exact 1D value (a curve, a point sequence, a diagram) is stored in one
canonical int form: an int ``scale``, the least common multiple of the
denominators of its values, and every value times that scale as an int (the
``scaled_*`` fields), so the ints and the scale share no common factor.
Equality, hashing, the solvers and serialization read these ints; the
caller-unit `fractions.Fraction` views are built on first read and kept. A
witness's eps is a Fraction, or a float for curves in R^d.
A diagram is held as its file's int table, a letter string and the partial
cells' intercepts per column; its :class:`CellContent` cells are a view. The
checks, the transpose and the solvers read the letters and do per-cell work
only at partial ones. The cell algebra below is written for either number type, returns ints
on int input, and serves pseudo-poly's typing (:func:`cell_restrict`),
:mod:`fsreal.render` and the tests.
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
_BAD_SIGMA = "slab orientation must be +1 or -1"


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


@dataclass(frozen=True)
class FreeSpaceDiagram1D:
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
        names = ("scale", "scaled_eps", "scaled_widths", "scaled_heights", "columns", "scaled_intercepts")
        for name, value in zip(names, values):
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
