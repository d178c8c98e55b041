"""Strict JSON serialization of instances and witnesses (schema fsreal/1).

Rationals travel as "num/den" strings so files never contain binary floats
for 1D data; curves in R^d use plain JSON numbers. A matrix is written one
row per line, each row a string over ``0``/``1`` whose character j is entry
j; rows given as arrays of 0/1 ints, as earlier files hold them, are still
read.

The reader does its per-value work in C where it can: a string row becomes
its int mask through one ``int(row[::-1], 2)``, and the exact 1D values are
checked only for their JSON type and handed to the model's constructors as
read, which scale them as int pairs (numerator, denominator) through the
grammar of :func:`fsreal.model.rat`. Only a curves file's epsilon is read as
a Fraction.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .model import (
    PARTIAL,
    CellContent,
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
    rat,
    rat_str,
    row_mask,
    scaled_str,
)

if TYPE_CHECKING:  # imported where a sign-vector file is read or written
    from .generators import SignVectorSet

FORMAT = "fsreal/1"

Instance = Union[FreeSpaceMatrix, FreeSpaceDiagram1D, Witness, "SignVectorSet"]


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
    constructors and :func:`rat` to read; ``true``, floats and ``null`` are
    rejected."""
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


def _eps_in(value, exact: bool):
    """A positive epsilon: a rational for 1D curves (``exact``), otherwise a
    finite float, which may also be given as a JSON number."""
    if isinstance(value, float) and not exact:
        eps = value
    else:
        value = _rational_in(value)
        try:
            eps = rat(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(str(exc)) from None
    if not exact:
        try:
            eps = float(eps)
        except OverflowError:
            eps = math.inf
    if not eps > 0 or eps == math.inf:
        raise FormatError(f"epsilon must be positive and finite, got {value!r}")
    return eps


def serialize(instance: Instance) -> str:
    """Indented JSON; a matrix is written one row string per line."""
    if isinstance(instance, FreeSpaceMatrix):
        return _matrix_text(instance)
    return json.dumps(_to_obj(instance), indent=2) + "\n"


def _matrix_text(matrix: FreeSpaceMatrix) -> str:
    """Each row as a string over 0/1 whose character j is bit j of its mask."""
    m = matrix.m_cols
    rows = ",\n".join(f'    "{format(r, f"0{m}b")[::-1]}"' for r in matrix.row_masks)
    return (
        f'{{\n  "format": "{FORMAT}",\n  "kind": "matrix",\n  "rows": {matrix.n_rows},\n  "cols": {m},\n'
        f'  "entries": [\n{rows}\n  ]\n}}\n'
    )


def _to_obj(instance: Instance) -> dict:
    if isinstance(instance, FreeSpaceDiagram1D):
        scale = instance.scale
        return {
            "format": FORMAT,
            "kind": "diagram1d",
            "epsilon": scaled_str(instance.scaled_eps, scale),
            "colWidths": [scaled_str(w, scale) for w in instance.scaled_widths],
            "rowHeights": [scaled_str(h, scale) for h in instance.scaled_heights],
            "cells": [[_cell_obj(c, scale) for c in col] for col in instance.scaled_cells],
        }
    if isinstance(instance, Witness):
        return {
            "format": FORMAT,
            "kind": "curves",
            "epsilon": rat_str(instance.epsilon) if isinstance(instance.epsilon, (Fraction, int)) else float(instance.epsilon),
            **_curves_obj(instance.curve_p, instance.curve_q),
        }
    from .generators import SignVectorSet

    if isinstance(instance, SignVectorSet):
        return {
            "format": FORMAT,
            "kind": "signvectors",
            "vectors": ["".join("+" if x > 0 else "-" for x in v) for v in instance.vectors],
        }
    raise TypeError(f"cannot serialize {type(instance).__name__}")


def _cell_obj(cell: CellContent, scale: int) -> dict:
    """A cell of a diagram's ``scaled_cells``, its intercepts over ``scale``."""
    if not cell.is_partial:
        return {"status": cell.status}
    lo, hi = scaled_str(cell.c_lo, scale), scaled_str(cell.c_hi, scale)
    return {"status": "partial", "sigma": cell.sigma, "cLo": lo, "cHi": hi}


def _curves_obj(p, q) -> dict:
    if isinstance(p, CurveD):
        return {
            "dimension": p.dimension,
            "curveKind": "points",
            "curveP": [list(v) for v in p.vertices],
            "curveQ": [list(v) for v in q.vertices],
        }
    return {
        "dimension": 1,
        "curveKind": "polyline" if isinstance(p, Curve1D) else "points",
        "curveP": _values_1d(p),
        "curveQ": _values_1d(q),
    }


def _values_1d(curve) -> list[str]:
    """The values of a 1D curve or point sequence, each formatted from its
    int over the curve's scale."""
    ints = curve.scaled_vertices if isinstance(curve, Curve1D) else curve.scaled_points
    return [scaled_str(v, curve.scale) for v in ints]


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
        return _parse_diagram(obj)
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
    strings = all(type(r) is str for r in entries)
    if not strings and not all(isinstance(r, list) for r in entries):
        raise FormatError("entries must be a list of rows, all strings or all arrays")
    rows, cols = _int_in(obj["rows"], "rows"), _int_in(obj["cols"], "cols")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise FormatError("entries shape does not match rows/cols")
    if strings:
        # strip("01") leaves any sign, space, underscore or other digit that
        # int() would read; the masks stay lazy, so cols < 1 is refused first
        for row in entries:
            if row.strip("01"):
                raise FormatError(f"matrix rows must be strings over 0 and 1, got {row[:40]!r}")
        masks = (int(row[::-1], 2) for row in entries)
    else:
        for row in entries:
            for v in row:
                if type(v) is not int or v not in (0, 1):
                    raise FormatError(f"matrix entries must be 0 or 1, got {v!r}")
        masks = map(row_mask, entries)
    try:
        return FreeSpaceMatrix.from_row_masks(cols, masks)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


_PARTIAL_KEYS = frozenset({"status", "sigma", "cLo", "cHi"})
_STATUS_KEYS = frozenset({"status"})
_STATUS_CELLS = {"empty": CellContent.empty(), "full": CellContent.full()}


def _cell_in(c) -> CellContent:
    """A cell, a partial cell's intercepts still as read."""
    if not isinstance(c, dict):
        raise FormatError("cells must be objects")
    status = c.get("status")
    if status == "partial":
        _check_keys(c, _PARTIAL_KEYS)
        lo, hi = _rational_in(c["cLo"]), _rational_in(c["cHi"])
        return CellContent(PARTIAL, _int_in(c["sigma"], "sigma"), lo, hi)
    if status in ("empty", "full"):
        _check_keys(c, _STATUS_KEYS)
        return _STATUS_CELLS[status]
    raise FormatError(f"unknown cell status {status!r}")


def _parse_diagram(obj: dict) -> FreeSpaceDiagram1D:
    _check_keys(obj, {"format", "kind", "epsilon", "colWidths", "rowHeights", "cells"})
    eps = _rational_in(obj["epsilon"])
    widths = _rationals_in(obj["colWidths"], "colWidths")
    heights = _rationals_in(obj["rowHeights"], "rowHeights")
    cols = [[_cell_in(c) for c in _list_in(col, "each cell column")] for col in _list_in(obj["cells"], "cells")]
    try:
        return FreeSpaceDiagram1D(eps, widths, heights, cols)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(str(exc)) from None


def _parse_curves(obj: dict) -> Witness:
    _check_keys(obj, {"format", "kind", "epsilon", "dimension", "curveKind", "curveP", "curveQ"})
    dim = _int_in(obj["dimension"], "dimension")
    if dim == 1:
        eps = _eps_in(obj["epsilon"], exact=True)
        pv = _rationals_in(obj["curveP"], "curveP")
        qv = _rationals_in(obj["curveQ"], "curveQ")
        try:
            if obj["curveKind"] == "polyline":
                return Witness(Curve1D(pv), Curve1D(qv), eps)
            if obj["curveKind"] == "points":
                return Witness(PointSeq1D(pv), PointSeq1D(qv), eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(str(exc)) from None
        raise FormatError(f"unknown curveKind {obj['curveKind']!r}")
    if dim < 2:
        raise FormatError("dimension must be 1 or an integer >= 2")
    pv = [_point_in(v, dim, "curveP") for v in _list_in(obj["curveP"], "curveP")]
    qv = [_point_in(v, dim, "curveQ") for v in _list_in(obj["curveQ"], "curveQ")]
    eps = _eps_in(obj["epsilon"], exact=False)
    try:
        return Witness(CurveD(pv), CurveD(qv), eps)
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
