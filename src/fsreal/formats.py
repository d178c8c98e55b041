"""Strict JSON serialization of instances and witnesses (schema fsreal/1).

Rationals travel as "num/den" strings or as ints over one scale, so files
never contain binary floats for 1D data; curves in R^d use plain JSON
numbers.

A matrix is written one row per line, each row a string over ``0``/``1``
whose character j is entry j; rows given as arrays of 0/1 ints, as earlier
files hold them, are still read.

A diagram is written as its int table over one ``scale``, as it is held in
memory: ``epsilon``, ``colWidths`` and ``rowHeights`` are ints, each of
``columns`` is a string with one letter per row (``e`` empty, ``f`` full,
``p`` and ``n`` partial with sigma +1 and -1), and ``intercepts`` is one
flat int list holding (cLo, cHi) of each partial letter in column order,
read and written with no cell built. Diagrams whose
``cells`` are objects of "num/den" strings, as earlier files hold them, are
still read; the two layouts are told apart by their keys. The schema name
stays ``fsreal/1``, so a reader older than the table layout refuses its
files for their fields.

The reader does its per-value work in C where it can: matrix rows are
checked once over their joined text and each becomes its int mask through
one ``int(row[::-1], 2)``; a diagram table is read as ints, its letters
counted once over the joined columns. The values of a cell-object diagram
or a 1D curves file are checked only for their JSON type and handed to the
model's constructors as read, which scale them as int pairs (numerator,
denominator) through the grammar of :func:`fsreal.model.rat`. Only a curves
file's epsilon is read as a Fraction. Matrices, diagrams and witnesses on
the line are written as text directly; their values are digits, ``-`` and
``/``, which JSON does not escape.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from typing import TYPE_CHECKING, Union

from .model import (
    _NOT_2D,
    Curve1D,
    CurveD,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
    diagram_module,
    rat_str,
    row_mask,
    scaled_str,
)

if TYPE_CHECKING:  # imported where a diagram or a sign-vector file is read or written
    from .diagram import FreeSpaceDiagram1D
    from .generators import SignVectorSet

FORMAT = "fsreal/1"

Instance = Union[FreeSpaceMatrix, "FreeSpaceDiagram1D", Witness, "SignVectorSet"]


class FormatError(ValueError):
    """Raised for malformed files, schema violations, or invalid instances."""


def _check_keys(obj: dict, required: set[str]) -> None:
    if obj.keys() == required:
        return
    keys = set(obj)
    missing = required - keys
    unknown = keys - required
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise FormatError(f"unknown fields: {sorted(unknown)}")


def _int_in(value, field: str) -> int:
    """An exact JSON integer: ``1.0`` and ``true`` are rejected."""
    if type(value) is not int:
        raise FormatError(f"{field} must be an integer, got {value!r}")
    return value


def _list_in(value, field: str) -> list:
    """A JSON array: a string or an object is not read as a sequence."""
    if not isinstance(value, list):
        raise FormatError(f"{field} must be an array, got {value!r}")
    return value


def _point_in(value, dim: int, field: str) -> list:
    """A vertex in R^dim: a JSON array of ``dim`` finite numbers (``true`` is
    not a number)."""
    if (
        not isinstance(value, list)
        or len(value) != dim
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x) for x in value)
    ):
        raise FormatError(f"{field} vertices must be arrays of {dim} finite numbers, got {value!r}")
    return value


_RATIONAL_TYPES = frozenset({int, str})


def _rational_in(value):
    """A JSON integer or "num/den" string, left as read for the model's
    constructors and :func:`fsreal.model.rat` to read; ``true``, floats and
    ``null`` are rejected."""
    if type(value) not in _RATIONAL_TYPES:
        raise FormatError(f"expected a rational string or integer, got {value!r}")
    return value


def _rationals_in(value, field: str) -> list:
    """A JSON array of :func:`_rational_in` values, its types checked at once."""
    values = _list_in(value, field)
    if not {*map(type, values)} <= _RATIONAL_TYPES:
        for v in values:
            _rational_in(v)
    return values


def _ints_in(value, field: str) -> list:
    """A JSON array of integers, its types checked at once (``true`` is not
    an integer)."""
    values = _list_in(value, field)
    if not {*map(type, values)} <= {int}:
        raise FormatError(f"{field} must hold integers, got {next(v for v in values if type(v) is not int)!r}")
    return values


def serialize(instance: Instance) -> str:
    """Indented JSON: a matrix one row string per line, a diagram one column
    string per line, a 1D witness one value per line."""
    if isinstance(instance, FreeSpaceMatrix):
        return _matrix_text(instance)
    if isinstance(instance, Witness):
        if isinstance(instance.curve_p, CurveD):
            return json.dumps(_to_obj(instance), indent=2) + "\n"
        return _curves_text(instance)
    if isinstance(instance, diagram_module().FreeSpaceDiagram1D):
        return _diagram_text(instance)
    return json.dumps(_to_obj(instance), indent=2) + "\n"


def _matrix_text(matrix: FreeSpaceMatrix) -> str:
    """Each row as a string over 0/1 whose character j is bit j of its mask."""
    m = matrix.m_cols
    rows = ",\n".join(f'    "{format(r, f"0{m}b")[::-1]}"' for r in matrix.row_masks)
    return (
        f'{{\n  "format": "{FORMAT}",\n  "kind": "matrix",\n  "rows": {matrix.n_rows},\n  "cols": {m},\n'
        f'  "entries": [\n{rows}\n  ]\n}}\n'
    )


def _diagram_text(d: FreeSpaceDiagram1D) -> str:
    """The diagram's table as it stores it: its ints over its scale, each
    column's letter string, and every column's intercepts in column order."""
    columns = ",\n".join(f'    "{col}"' for col in d.columns)
    return (
        f'{{\n  "format": "{FORMAT}",\n  "kind": "diagram1d",\n  "scale": {d.scale},\n'
        f'  "epsilon": {d.scaled_eps},\n  "colWidths": {_int_list(d.scaled_widths)},\n'
        f'  "rowHeights": {_int_list(d.scaled_heights)},\n  "columns": [\n{columns}\n  ],\n'
        f'  "intercepts": {_int_list(chain.from_iterable(d.scaled_intercepts))}\n}}\n'
    )


def _int_list(values) -> str:
    return "[" + ", ".join(map(str, values)) + "]"


def _curves_text(witness: Witness) -> str:
    """A witness on the line as ``json.dumps(..., indent=2)`` writes it."""
    kind = "polyline" if isinstance(witness.curve_p, Curve1D) else "points"
    return (
        f'{{\n  "format": "{FORMAT}",\n  "kind": "curves",\n  "epsilon": "{rat_str(witness.epsilon)}",\n'
        f'  "dimension": 1,\n  "curveKind": "{kind}",\n'
        f'  "curveP": [\n{_values_text(witness.curve_p)}\n  ],\n'
        f'  "curveQ": [\n{_values_text(witness.curve_q)}\n  ]\n}}\n'
    )


def _values_text(curve) -> str:
    """The values of a 1D curve or point sequence, one string a line, each
    formatted from its int over the curve's scale."""
    ints = curve.scaled_vertices if isinstance(curve, Curve1D) else curve.scaled_points
    scale = curve.scale
    return '    "' + '",\n    "'.join(scaled_str(v, scale) for v in ints) + '"'


def _to_obj(instance: Instance) -> dict:
    if isinstance(instance, Witness):
        p, q = instance.curve_p, instance.curve_q
        return {
            "format": FORMAT,
            "kind": "curves",
            "epsilon": instance.epsilon,
            "dimension": p.dimension,
            "curveKind": "points",
            "curveP": [list(v) for v in p.vertices],
            "curveQ": [list(v) for v in q.vertices],
        }
    from .generators import SignVectorSet

    if isinstance(instance, SignVectorSet):
        return {
            "format": FORMAT,
            "kind": "signvectors",
            "vectors": ["".join("+" if x > 0 else "-" for x in v) for v in instance.vectors],
        }
    raise TypeError(f"cannot serialize {type(instance).__name__}")


def parse(text: str) -> Instance:
    # besides JSONDecodeError, json.loads raises a plain ValueError for an
    # integer literal past sys.get_int_max_str_digits() and RecursionError
    # for deep nesting
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    if obj.get("format") != FORMAT:
        raise FormatError(f"unsupported format {obj.get('format')!r}; expected {FORMAT}")
    kind = obj.get("kind")
    if kind == "matrix":
        return _parse_matrix(obj)
    if kind == "diagram1d":
        return _parse_diagram(obj) if "cells" in obj else _parse_table(obj)
    if kind == "curves":
        return _parse_curves(obj)
    if kind == "signvectors":
        return _parse_signs(obj)
    raise FormatError(f"unknown instance kind {kind!r}")


def _parse_matrix(obj: dict) -> FreeSpaceMatrix:
    _check_keys(obj, {"format", "kind", "rows", "cols", "entries"})
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise FormatError("entries must be a list of rows")
    types = {*map(type, entries)}
    strings = types <= {str}
    if not strings and not types <= {list}:
        raise FormatError("entries must be a list of rows, all strings or all arrays")
    rows, cols = _int_in(obj["rows"], "rows"), _int_in(obj["cols"], "cols")
    if len(entries) != rows or not {*map(len, entries)} <= {cols}:
        raise FormatError("entries shape does not match rows/cols")
    if strings:
        if cols < 1 or not entries:
            raise FormatError(_NOT_2D)
        # one count over the joined rows; a sign, space, underscore or other
        # digit that int() would read fails it, and only then is the row found
        text = "".join(entries)
        if text.count("0") + text.count("1") != len(text):
            row = next(row for row in entries if row.strip("01"))
            raise FormatError(f"matrix rows must be strings over 0 and 1, got {row[:40]!r}")
        return FreeSpaceMatrix._built(cols, [int(row[::-1], 2) for row in entries])
    for row in entries:
        for v in row:
            if type(v) is not int or v not in (0, 1):
                raise FormatError(f"matrix entries must be 0 or 1, got {v!r}")
    try:
        # the masks stay lazy, so cols < 1 is refused first
        return FreeSpaceMatrix.from_row_masks(cols, map(row_mask, entries))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


_TABLE_KEYS = frozenset({"format", "kind", "scale", "epsilon", "colWidths", "rowHeights", "columns", "intercepts"})


def _parse_table(obj: dict) -> FreeSpaceDiagram1D:
    """A diagram written as ints over one scale, a string of cell letters per
    column and one flat list of intercepts, which is split by column."""
    _check_keys(obj, _TABLE_KEYS)
    scale = _int_in(obj["scale"], "scale")
    if scale < 1:
        raise FormatError(f"scale must be at least 1, got {scale}")
    eps = _int_in(obj["epsilon"], "epsilon")
    widths = _ints_in(obj["colWidths"], "colWidths")
    heights = _ints_in(obj["rowHeights"], "rowHeights")
    intercepts = _ints_in(obj["intercepts"], "intercepts")
    columns = _list_in(obj["columns"], "columns")
    m = len(heights)
    if not {*map(type, columns)} <= {str} or not {*map(len, columns)} <= {m}:
        raise FormatError(f"columns must be strings of one letter per row ({m})")
    letters = "".join(columns)
    partial = letters.count("p") + letters.count("n")
    if partial + letters.count("e") + letters.count("f") != len(letters):
        raise FormatError("columns must be strings over e, f, p and n")
    if len(intercepts) != 2 * partial:
        raise FormatError(f"intercepts must hold 2 ints for each of the {partial} partial cells, got {len(intercepts)}")
    it = iter(intercepts)
    per_column = [tuple(islice(it, 2 * (col.count("p") + col.count("n")))) for col in columns]
    diagram = diagram_module()
    try:
        built = diagram.FreeSpaceDiagram1D._built(scale, eps, widths, heights, columns, per_column)
        return diagram._check_diagram(built)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


_PARTIAL_KEYS = frozenset({"status", "sigma", "cLo", "cHi"})
_STATUS_KEYS = frozenset({"status"})


def _cell_in(c) -> tuple:
    """A cell's fields, a partial cell's intercepts still as read."""
    if not isinstance(c, dict):
        raise FormatError("cells must be objects")
    status = c.get("status")
    if status == "partial":
        _check_keys(c, _PARTIAL_KEYS)
        lo, hi = _rational_in(c["cLo"]), _rational_in(c["cHi"])
        return status, _int_in(c["sigma"], "sigma"), lo, hi
    if status in ("empty", "full"):
        _check_keys(c, _STATUS_KEYS)
        return (status,)
    raise FormatError(f"unknown cell status {status!r}")


def _parse_diagram(obj: dict) -> FreeSpaceDiagram1D:
    """A diagram in the layout of earlier files: "num/den" strings and one
    object per cell."""
    diagram = diagram_module()
    _check_keys(obj, {"format", "kind", "epsilon", "colWidths", "rowHeights", "cells"})
    eps = _rational_in(obj["epsilon"])
    widths = _rationals_in(obj["colWidths"], "colWidths")
    heights = _rationals_in(obj["rowHeights"], "rowHeights")
    cells = _list_in(obj["cells"], "cells")
    cols = [[diagram.CellContent(*_cell_in(c)) for c in _list_in(col, "each cell column")] for col in cells]
    try:
        return diagram.FreeSpaceDiagram1D(eps, widths, heights, cols)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(str(exc)) from None


def _parse_curves(obj: dict) -> Witness:
    _check_keys(obj, {"format", "kind", "epsilon", "dimension", "curveKind", "curveP", "curveQ"})
    dim = _int_in(obj["dimension"], "dimension")
    if dim == 1:
        pv = _rationals_in(obj["curveP"], "curveP")
        qv = _rationals_in(obj["curveQ"], "curveQ")
        try:
            if obj["curveKind"] == "polyline":
                return Witness(Curve1D(pv), Curve1D(qv), obj["epsilon"])
            if obj["curveKind"] == "points":
                return Witness(PointSeq1D(pv), PointSeq1D(qv), obj["epsilon"])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(str(exc)) from None
        raise FormatError(f"unknown curveKind {obj['curveKind']!r}")
    if dim < 2:
        raise FormatError("dimension must be 1 or an integer >= 2")
    pv = [_point_in(v, dim, "curveP") for v in _list_in(obj["curveP"], "curveP")]
    qv = [_point_in(v, dim, "curveQ") for v in _list_in(obj["curveQ"], "curveQ")]
    try:
        return Witness(CurveD(pv), CurveD(qv), obj["epsilon"])
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from None


def _parse_signs(obj: dict) -> SignVectorSet:
    from .generators import SignVectorSet

    _check_keys(obj, {"format", "kind", "vectors"})
    rows = obj["vectors"]
    if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
        raise FormatError("vectors must be strings over '+'/'-'")
    if any(set(r) - {"+", "-"} for r in rows):
        raise FormatError("vectors must be strings over '+'/'-'")
    try:
        return SignVectorSet.from_strings(rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
