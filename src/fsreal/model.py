"""Exact domain types shared by all solvers: rationals, curves, the free
space matrix and the witness. The diagram is in :mod:`fsreal.diagram`, so a
matrix solve compiles none of it.

Every exact 1D value (a curve, a point sequence, a diagram) is stored in one
canonical int form: an int ``scale``, the least common multiple of the
denominators of its values, and every value times that scale as an int (the
``scaled_*`` fields), so the ints and the scale share no common factor.
Equality, hashing, the solvers and serialization read these ints; the
caller-unit `fractions.Fraction` views are built on first read and kept. A
witness's eps is a Fraction, or a float for curves in R^d.
Curves in dimension >= 2 hold float coordinates, which
:mod:`fsreal.forward` compares exactly on ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


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


@cache
def diagram_module():
    """:mod:`fsreal.diagram`, imported on the first call. The modules that a
    matrix solve loads reach the diagram through it, so they compile no
    diagram code until a diagram is built, read, written or tested for; an
    import statement in a function would cost about 1 us on every call."""
    from . import diagram

    return diagram


class FrozenValue:
    """An immutable value whose fields are its class's annotated attributes,
    which its constructors set once with ``object.__setattr__``. As under
    ``@dataclass(frozen=True)``, which would import :mod:`dataclasses` and
    :mod:`inspect`, two values of one class are equal when their fields are,
    a value hashes and prints by its fields, and it refuses assignment.
    ``==`` compares the tuples of fields that ``operator.attrgetter`` builds
    in C."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Curve1D(FrozenValue):
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


class PointSeq1D(FrozenValue):
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


class CurveD(FrozenValue):
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



class Witness(FrozenValue):
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


