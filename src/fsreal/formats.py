"""Strict JSON serialization of instances and witnesses (schema fsreal/1).

Rationals travel as "num/den" strings so files never contain binary floats
for 1D data; curves in R^d use plain JSON numbers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

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
from .generators import SignVectorSet

FORMAT = "fsreal/1"

Instance = Union[FreeSpaceMatrix, FreeSpaceDiagram1D, Witness, SignVectorSet]


class FormatError(ValueError):
    """Raised for malformed files, schema violations, or invalid instances."""


def _check_keys(obj: dict, required: set[str], optional: set[str] = frozenset()) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
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


def _rat_in(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"expected a rational string or integer, got {value!r}")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {value!r}: {exc}") from None


def _eps_in(value, exact: bool):
    """A positive epsilon: a rational for 1D curves (``exact``), otherwise a
    finite float, which may also be given as a JSON number."""
    eps = value if isinstance(value, float) and not exact else _rat_in(value)
    if not exact:
        try:
            eps = float(eps)
        except OverflowError:
            eps = math.inf
    if not eps > 0 or eps == math.inf:
        raise FormatError(f"epsilon must be positive and finite, got {value!r}")
    return eps


def serialize(instance: Instance) -> str:
    """Indented JSON; a matrix keeps each row of entries on one line."""
    if isinstance(instance, FreeSpaceMatrix):
        return _matrix_text(instance)
    return json.dumps(_to_obj(instance), indent=2) + "\n"


def _matrix_text(matrix: FreeSpaceMatrix) -> str:
    m = matrix.m_cols
    rows = ",\n".join("    [" + ", ".join(format(r, f"0{m}b")[::-1]) + "]" for r in matrix.row_masks)
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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise FormatError("entries must be a list of rows")
    rows, cols = _int_in(obj["rows"], "rows"), _int_in(obj["cols"], "cols")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise FormatError("entries shape does not match rows/cols")
    for row in entries:
        for v in row:
            if type(v) is not int or v not in (0, 1):
                raise FormatError(f"matrix entries must be 0 or 1, got {v!r}")
    try:
        return FreeSpaceMatrix.from_row_masks(cols, map(row_mask, entries))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse_diagram(obj: dict) -> FreeSpaceDiagram1D:
    _check_keys(obj, {"format", "kind", "epsilon", "colWidths", "rowHeights", "cells"})
    eps = _rat_in(obj["epsilon"])
    widths = [_rat_in(w) for w in _list_in(obj["colWidths"], "colWidths")]
    heights = [_rat_in(h) for h in _list_in(obj["rowHeights"], "rowHeights")]
    cols = []
    for col in _list_in(obj["cells"], "cells"):
        out_col = []
        for c in _list_in(col, "each cell column"):
            if not isinstance(c, dict):
                raise FormatError("cells must be objects")
            status = c.get("status")
            if status == "partial":
                _check_keys(c, {"status", "sigma", "cLo", "cHi"})
                out_col.append(CellContent(PARTIAL, _int_in(c["sigma"], "sigma"), _rat_in(c["cLo"]), _rat_in(c["cHi"])))
            elif status in ("empty", "full"):
                _check_keys(c, {"status"})
                out_col.append(CellContent.empty() if status == "empty" else CellContent.full())
            else:
                raise FormatError(f"unknown cell status {status!r}")
        cols.append(out_col)
    try:
        return FreeSpaceDiagram1D(eps, widths, heights, cols)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse_curves(obj: dict) -> Witness:
    _check_keys(obj, {"format", "kind", "epsilon", "dimension", "curveKind", "curveP", "curveQ"})
    dim = _int_in(obj["dimension"], "dimension")
    if dim == 1:
        eps = _eps_in(obj["epsilon"], exact=True)
        pv = [_rat_in(v) for v in _list_in(obj["curveP"], "curveP")]
        qv = [_rat_in(v) for v in _list_in(obj["curveQ"], "curveQ")]
        try:
            if obj["curveKind"] == "polyline":
                return Witness(Curve1D(pv), Curve1D(qv), eps)
            if obj["curveKind"] == "points":
                return Witness(PointSeq1D(pv), PointSeq1D(qv), eps)
        except ValueError as exc:
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
