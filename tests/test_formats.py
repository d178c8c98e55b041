import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fsreal import (
    Curve1D,
    CurveD,
    FreeSpaceMatrix,
    PointSeq1D,
    SignVectorSet,
    Witness,
    compute_diagram_1d,
    gen_partition,
    gen_random_instance,
)
from fsreal.formats import FormatError, parse, serialize
from fsreal.model import rat

from conftest import cell_dict_text


def _round_trip(instance):
    text = serialize(instance)
    again = parse(text)
    assert serialize(again) == text
    return again


def test_matrix_round_trip():
    m = gen_random_instance(4, kind="matrix")
    assert _round_trip(m) == m


def test_diagram_round_trip(partition_diagram):
    assert _round_trip(partition_diagram) == partition_diagram


def test_rational_diagram_round_trip():
    d = compute_diagram_1d(
        Curve1D([0, Fraction(5, 3)]), Curve1D([Fraction(1, 3), Fraction(7, 6)]), Fraction(1, 2)
    )
    assert _round_trip(d) == d


def test_witness_round_trip():
    w = Witness(Curve1D([0, 2, 1]), Curve1D([Fraction(1, 3), 2]), Fraction(1, 2))
    again = _round_trip(w)
    assert again.curve_p == w.curve_p and again.curve_q == w.curve_q


def test_point_witness_round_trip():
    w = Witness(PointSeq1D([0, 0, 1]), PointSeq1D([2]), 1)
    again = _round_trip(w)
    assert isinstance(again.curve_p, PointSeq1D)


def test_signvectors_round_trip():
    s = SignVectorSet.from_strings(["--", "++", "-+", "+-"])
    assert _round_trip(s) == s


def test_rational_string_parsing():
    d = compute_diagram_1d(Curve1D([0, 1]), Curve1D([0, 1]), Fraction(1, 3))
    obj = json.loads(cell_dict_text(serialize(d)))
    assert obj["epsilon"] == "1/3"
    assert parse(json.dumps(obj)).epsilon == Fraction(1, 3)


def test_table_values_are_ints_over_one_scale():
    d = compute_diagram_1d(Curve1D([0, 1]), Curve1D([0, 1]), Fraction(1, 3))
    obj = json.loads(serialize(d))
    assert (obj["scale"], obj["epsilon"], obj["colWidths"], obj["rowHeights"]) == (3, 1, [3], [3])
    assert parse(json.dumps(obj)).epsilon == Fraction(1, 3)
    # a scale shared with the ints is divided out on reading
    obj.update(scale=6, epsilon=2, colWidths=[6], rowHeights=[6], intercepts=[2 * v for v in obj["intercepts"]])
    assert parse(json.dumps(obj)) == d


def _random_entries(rng, n, m):
    return [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]


def _matrix_file(n, m, rows):
    return (
        '{\n  "format": "fsreal/1",\n  "kind": "matrix",\n'
        f'  "rows": {n},\n  "cols": {m},\n  "entries": [\n' + ",\n".join(rows) + "\n  ]\n}\n"
    )


def test_matrix_parse_builds_row_masks():
    rng = random.Random(6)
    for n, m in ((1, 1), (3, 70), (9, 130), (1, 10_000)):
        ent = _random_entries(rng, n, m)
        # the layout of earlier files: one array of entries per line
        arrays = _matrix_file(n, m, ["    [" + ", ".join(map(str, row)) + "]" for row in ent])
        matrix = parse(arrays)
        assert matrix == FreeSpaceMatrix(ent)
        assert matrix.row_masks == tuple(sum(v << j for j, v in enumerate(row)) for row in ent)
        # serialize writes one string per row, character j being entry j
        strings = _matrix_file(n, m, ['    "' + "".join(map(str, row)) + '"' for row in ent])
        assert serialize(matrix) == strings
        assert parse(strings) == matrix


def test_matrix_in_entry_per_line_layout_parses():
    # the layout written before rows were kept on one line: json.dumps with
    # indent=2 puts every entry on a line of its own
    rng = random.Random(7)
    for n, m in ((1, 1), (4, 9), (12, 70)):
        ent = _random_entries(rng, n, m)
        obj = {"format": "fsreal/1", "kind": "matrix", "rows": n, "cols": m, "entries": ent}
        matrix = parse(json.dumps(obj, indent=2) + "\n")
        assert matrix == FreeSpaceMatrix(ent)
        assert parse(_matrix_file(n, m, ["    " + json.dumps(row) for row in ent])) == matrix
        assert parse(serialize(matrix)) == matrix


@pytest.mark.parametrize(
    "cols, entries",
    [
        (3, ["012"]),
        (3, ["0 1"]),
        (3, [" 01"]),
        (3, ["0b1"]),
        (3, ["1_0"]),
        (2, ["+1"]),
        (2, ["\u0661\u0660"]),  # Arabic-Indic digits, which int() reads
        (3, ["01"]),
        (2, ["01", "011"]),
        (2, ["01", [0, 1]]),
        (1, [1]),
        (1, [["1"]]),
        (0, [""]),
    ],
)
def test_matrix_string_row_rejected(cols, entries):
    obj = {"format": "fsreal/1", "kind": "matrix", "rows": len(entries), "cols": cols, "entries": entries}
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


def _array_rows(text):
    obj = json.loads(text)
    obj["entries"] = [[int(ch) for ch in row] for row in obj["entries"]]
    return json.dumps(obj)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_solve_corpus_files_read_in_both_layouts(seed, tmp_path, monkeypatch):
    # every file the benchmark's cli-solve workload writes: a matrix reads
    # the same with its rows as strings or as arrays, a diagram the same as
    # an int table or with one object per cell, and serialize gives back the
    # text it was read from
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    # import bench/corpus.py afresh; sys.modules gets back what it held
    monkeypatch.setitem(sys.modules, "corpus", None)
    del sys.modules["corpus"]
    corpus = importlib.import_module("corpus")
    decisions = corpus.WORKLOADS["cli-solve"](seed, tmp_path)
    matrices = diagrams = 0
    for decision in decisions:
        text = Path(decision.path).read_text(encoding="utf-8")
        instance = parse(text)
        assert instance == decision.case.instance
        assert serialize(instance) == text
        if isinstance(instance, FreeSpaceMatrix):
            matrices += 1
            assert parse(_array_rows(text)) == instance
        else:
            diagrams += 1
            assert '"columns": [' in text and '"cells"' not in text
            assert parse(cell_dict_text(text)) == instance
    assert matrices > 0 and diagrams > 0


@pytest.mark.parametrize(
    "rows, cols, entries",
    [
        (0, 0, []),
        (1, 0, [[]]),
        (2, 2, [[1, 0], [1]]),
        (1, 2, [[1, 0], [0, 1]]),
        (1, 1, [1]),
        (1, 2, [[0, -1]]),
        (0, 1, []),
        (1, -1, [""]),
    ],
)
def test_matrix_bad_shape_rejected(rows, cols, entries):
    obj = {"format": "fsreal/1", "kind": "matrix", "rows": rows, "cols": cols, "entries": entries}
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


def test_bad_entry_rejected():
    bad = {"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 1, "entries": [[2]]}
    with pytest.raises(FormatError):
        parse(json.dumps(bad))


@pytest.mark.parametrize(
    "field, value",
    [("entries", [[1.0]]), ("entries", [[True]]), ("entries", [["1"]]), ("rows", 1.0), ("cols", True)],
)
def test_matrix_non_integer_numbers_rejected(field, value):
    obj = {"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 1, "entries": [[1]]}
    obj[field] = value
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


@pytest.mark.parametrize("sigma", [1.0, -1.0, True])
def test_partial_cell_non_integer_sigma_rejected(sigma):
    obj = json.loads(cell_dict_text(serialize(gen_partition([2, 2]))))
    cell = next(c for col in obj["cells"] for c in col if c["status"] == "partial")
    cell["sigma"] = sigma
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


@pytest.mark.parametrize(
    "status, cell",
    [
        ("empty", {"status": "half"}),
        ("empty", {"status": ["empty"]}),
        ("empty", {"status": None}),
        ("empty", {"status": "empty", "sigma": 1}),
        ("empty", {}),
        ("partial", {"status": "partial", "sigma": 1, "cLo": "0"}),
        ("partial", {"status": "partial", "sigma": 1, "cLo": True, "cHi": "2"}),
        ("partial", {"status": "partial", "sigma": 1, "cLo": "0", "cHi": 2.0}),
        ("empty", "empty"),
    ],
)
def test_bad_cell_rejected(status, cell):
    obj = json.loads(cell_dict_text(serialize(gen_partition([2, 2]))))
    col = next(col for col in obj["cells"] if any(c["status"] == status for c in col))
    col[next(j for j, c in enumerate(col) if c["status"] == status)] = cell
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


# each value of a cell-object diagram or 1D curves file is read as an int
# pair through the grammar model.rat reads strings with; the file takes
# exactly what rat takes from a JSON integer or string, and no true, 1.0 or
# null
@pytest.mark.parametrize(
    "value",
    ["3", " 3 ", "-3/4", "3/-4", "6/8", "1_000", "+2", " 1 / 2 ", "1/0", "1.5", "", "/", "1/2/3", 7, -7, True, 1.0, None],
)
def test_value_reader_agrees_with_rat(value):
    try:
        expected = rat(value) if type(value) in (int, str) else None
    except (ValueError, ZeroDivisionError):
        expected = None
    points = json.loads(serialize(Witness(PointSeq1D([0, 100]), PointSeq1D([1]), 1)))
    points["curveP"][0] = value
    diagram = json.loads(cell_dict_text(serialize(gen_partition([1, 1]))))
    diagram["colWidths"][1] = value
    texts = [json.dumps(points), json.dumps(diagram)]
    if expected is None:
        for text in texts:
            with pytest.raises(FormatError):
                parse(text)
        return
    assert parse(texts[0]).curve_p.points[0] == expected
    if expected > 0:
        assert parse(texts[1]).col_widths[1] == expected
        points["epsilon"] = value
        assert parse(json.dumps(points)).epsilon == expected


def _count_fractions(monkeypatch, fn) -> int:
    count = 0
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return count


def test_parse_builds_no_fractions(monkeypatch):
    # diagram values are read as ints, or int pairs in the cell-object
    # layout, and stored over one scale; a 1D curves file builds one
    # Fraction, its epsilon
    diagrams = [
        gen_partition([3, 2, 1, 2]),
        compute_diagram_1d(Curve1D([0, Fraction(5, 3), -1]), Curve1D([Fraction(1, 3), Fraction(7, 6)]), Fraction(1, 2)),
        compute_diagram_1d(
            Curve1D([Fraction(1, 1000003), Fraction(3000010, 1000003)]),
            Curve1D([Fraction(499992, 999983), Fraction(3499941, 999983)]),
            1,
        ),
    ]
    texts = [serialize(d) for d in diagrams]
    texts += [cell_dict_text(t) for t in texts]
    assert [d.scale for d in diagrams] == [1, 6, 1000003 * 999983]
    parsed = []
    assert _count_fractions(monkeypatch, lambda: parsed.extend(map(parse, texts))) == 0
    assert parsed == diagrams * 2
    rng = random.Random(3)
    for k in (2, 40, 400):
        values = [v + Fraction(1, rng.choice([2, 3, 7])) for v in range(k)]
        points = Witness(PointSeq1D(values), PointSeq1D(Fraction(v, 5) for v in range(k)), Fraction(3, 4))
        for witness in (points, Witness(Curve1D(values), Curve1D(values[::-1]), 2)):
            text = serialize(witness)
            out = []
            assert _count_fractions(monkeypatch, lambda: out.append(parse(text))) == 1
            assert out[0] == witness


def test_empty_sign_vectors_rejected():
    # no lines: the one expected cell has no all-plus partner
    with pytest.raises(FormatError, match="at least one line"):
        parse(json.dumps({"format": "fsreal/1", "kind": "signvectors", "vectors": [""]}))


def test_curves_non_integer_dimension_rejected():
    obj = json.loads(serialize(Witness(PointSeq1D([0]), PointSeq1D([1]), 1)))
    obj["dimension"] = 1.0
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


# a diagram of widths (3, 4) and height (2), and curves (3, 4) and (2, 5): a
# digit string or an object keyed by the same digits reads as the same values
_ARRAY_FIELDS = {
    "colWidths": ("34", {"3": 0, "4": 0}, 7),
    "rowHeights": ("2", {"2": 0}, 2),
    "curveP": ("34", {"3": 0, "4": 0}, 3),
    "curveQ": ("25", {"2": 0, "5": 0}, 2),
}


def _array_field_instance(field):
    if field.startswith("curve"):
        return Witness(Curve1D([3, 4]), Curve1D([2, 5]), 1)
    return compute_diagram_1d(Curve1D([0, 3, -1]), Curve1D([0, 2]), 1)


@pytest.mark.parametrize("field, value", [(f, v) for f, values in _ARRAY_FIELDS.items() for v in values])
def test_array_fields_require_json_arrays(field, value):
    obj = json.loads(serialize(_array_field_instance(field)))
    obj[field] = value
    with pytest.raises(FormatError, match=f"{field} must be an array"):
        parse(json.dumps(obj))


def _plane_witness():
    return Witness(CurveD([[0, 0], [1, 2.5]]), CurveD([[3, 4]]), 0.5)


def test_plane_witness_round_trip():
    assert _round_trip(_plane_witness()) == _plane_witness()


_WITNESS_CURVES = {
    "polyline": (Curve1D([0, Fraction(5, 3)]), Curve1D([1, -2, 4])),
    "points": (PointSeq1D([0, 0, Fraction(1, 7)]), PointSeq1D([2])),
    "plane": (CurveD([[0, 0], [1, 2.5]]), CurveD([[3, 4]])),
}
_EPSILONS = [
    1, 7, 10**400, Fraction(1, 3), Fraction(-1, 3), "5/2", " 3 ", "6/4", "1/0", "x", "",
    0, -1, "-1/2", "0", 0.5, 2.0, 1e-300, 0.0, -0.5, float("nan"), float("inf"), True, False, None, [1],
]


@pytest.mark.parametrize("kind", _WITNESS_CURVES)
def test_every_witness_that_builds_round_trips(kind):
    # Witness refuses exactly the epsilons that a curves file refuses, so
    # every witness that can be built is written and read back as it is
    p, q = _WITNESS_CURVES[kind]
    built = 0
    for eps in _EPSILONS:
        try:
            witness = Witness(p, q, eps)
        except ValueError:
            witness = None
        if type(eps) is not Fraction:  # a value a JSON file can hold
            obj = json.loads(serialize(Witness(p, q, 1)))
            obj["epsilon"] = eps
            if witness is None:
                with pytest.raises(FormatError):
                    parse(json.dumps(obj))
            else:
                assert parse(json.dumps(obj)) == witness
        if witness is None:
            continue
        built += 1
        assert type(witness.epsilon) is (float if kind == "plane" else Fraction)
        assert _round_trip(witness) == witness
    assert built == (9 if kind == "plane" else 7)


def test_witness_rejects_an_epsilon_that_the_forward_check_cannot_read():
    with pytest.raises(ValueError, match="expected a rational string or integer"):
        Witness(Curve1D([0, 1]), Curve1D([0, 1]), 0.5)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        Witness(PointSeq1D([0]), PointSeq1D([1]), Fraction(-1, 2))
    with pytest.raises(ValueError, match="must be finite"):
        Witness(CurveD([[0, float("inf")]]), CurveD([[0, 0]]), 1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", 3),
        ("curveP", ["12", "34"]),
        ("curveP", {"12": 0, "34": 0}),
        ("curveQ", [[0, True]]),
        ("curveQ", [[0, 0, 0]]),
        ("curveQ", [[0]]),
        ("curveQ", [[0, None]]),
        ("curveQ", [[0, float("nan")]]),
        ("curveP", 12),
    ],
)
def test_plane_curves_require_arrays_of_numbers(field, value):
    obj = json.loads(serialize(_plane_witness()))
    obj[field] = value
    with pytest.raises(FormatError):
        parse(json.dumps(obj))



@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("epsilon", ["-1", "0", -1, 0, True, float("nan"), float("inf")])
def test_curves_epsilon_must_be_positive_and_finite(dimension, epsilon):
    witness = _plane_witness() if dimension == 2 else Witness(Curve1D([0, 2]), Curve1D([1, 3]), 1)
    obj = json.loads(serialize(witness))
    obj["epsilon"] = epsilon
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


_CURVES_1D = json.loads(serialize(Witness(Curve1D([0, 2]), Curve1D([1, 3]), 1)))


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "top-level value must be an object"),
        ({"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 2, "entries": "11"}, "entries must be a list"),
        ({**_CURVES_1D, "curveKind": "spline"}, "unknown curveKind"),
        ({**_CURVES_1D, "dimension": 0}, "dimension must be 1 or an integer >= 2"),
        ({**json.loads(serialize(_plane_witness())), "curveP": []}, "at least one vertex"),
        ({"format": "fsreal/1", "kind": "signvectors", "vectors": [1]}, "vectors must be strings"),
        ({"format": "fsreal/1", "kind": "signvectors", "vectors": ["+0"]}, "vectors must be strings"),
    ],
)
def test_outside_input_rejected(obj, message):
    with pytest.raises(FormatError, match=message):
        parse(json.dumps(obj))


def test_unknown_field_rejected():
    bad = {"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 1, "entries": [[1]], "extra": 1}
    with pytest.raises(FormatError):
        parse(json.dumps(bad))


def test_unknown_kind_rejected():
    with pytest.raises(FormatError):
        parse(json.dumps({"format": "fsreal/1", "kind": "nope"}))


def test_wrong_format_version_rejected():
    with pytest.raises(FormatError):
        parse(json.dumps({"format": "fsreal/2", "kind": "matrix"}))


def test_malformed_json_rejected():
    with pytest.raises(FormatError):
        parse("{not json")


def test_structurally_invalid_diagram_rejected():
    text = cell_dict_text(serialize(gen_partition([2, 2])))
    obj = json.loads(text)
    obj["cells"][0][0]["cHi"] = "99"  # slab width != 2*eps
    with pytest.raises(FormatError):
        parse(json.dumps(obj))


def test_structurally_invalid_table_diagram_rejected():
    obj = json.loads(serialize(gen_partition([2, 2])))
    obj["intercepts"][1] = 99  # the first partial cell's cHi: slab width != 2*eps
    with pytest.raises(FormatError, match="slab width != 2\\*eps"):
        parse(json.dumps(obj))


_DROP = object()


# gen_partition([2, 2]): four columns of one row, "p" first and "n" last, and
# four intercepts; a callable value maps the file's own value
@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("scale", True, "scale must be an integer", id="scale-true"),
        pytest.param("scale", 1.0, "scale must be an integer", id="scale-float"),
        pytest.param("scale", "1", "scale must be an integer", id="scale-string"),
        pytest.param("scale", 0, "scale must be at least 1", id="scale-0"),
        pytest.param("scale", -2, "scale must be at least 1", id="scale-negative"),
        pytest.param("epsilon", "1", "epsilon must be an integer", id="epsilon-string"),
        pytest.param("epsilon", 1.0, "epsilon must be an integer", id="epsilon-float"),
        pytest.param("epsilon", False, "epsilon must be an integer", id="epsilon-false"),
        pytest.param("colWidths", lambda v: ["5", *v[1:]], "colWidths must hold integers", id="width-string"),
        pytest.param("colWidths", lambda v: [*v[:-1], True], "colWidths must hold integers", id="width-true"),
        pytest.param("rowHeights", [1.0], "rowHeights must hold integers", id="height-float"),
        pytest.param("rowHeights", 1, "rowHeights must be an array", id="heights-int"),
        pytest.param("intercepts", lambda v: [*v[:3], None], "intercepts must hold integers", id="intercept-null"),
        pytest.param("intercepts", "-1,1,2,4", "intercepts must be an array", id="intercepts-string"),
        pytest.param("intercepts", lambda v: v[:2], "2 ints for each of the 2 partial cells", id="intercepts-short"),
        pytest.param("intercepts", lambda v: v + [0, 2], "2 ints for each of the 2 partial cells", id="intercepts-long"),
        pytest.param("columns", "peen", "columns must be an array", id="columns-string"),
        pytest.param("columns", lambda v: [list(c) for c in v], "columns must be strings of one letter", id="column-array"),
        pytest.param("columns", lambda v: ["pe", *v[1:]], "columns must be strings of one letter", id="column-long"),
        pytest.param("columns", lambda v: ["", *v[1:]], "columns must be strings of one letter", id="column-short"),
        pytest.param("columns", lambda v: ["x", *v[1:]], "columns must be strings over e, f, p and n", id="letter-x"),
        pytest.param("columns", lambda v: [*v[:-1], "N"], "columns must be strings over e, f, p and n", id="letter-N"),
        pytest.param("columns", lambda v: ["1", *v[1:]], "columns must be strings over e, f, p and n", id="letter-1"),
        pytest.param("scale", _DROP, "missing fields: \\['scale'\\]", id="no-scale"),
        pytest.param("intercepts", _DROP, "missing fields: \\['intercepts'\\]", id="no-intercepts"),
        pytest.param("rows", 1, "unknown fields: \\['rows'\\]", id="extra-rows"),
        pytest.param("cells", [], "unknown fields", id="cells-and-columns"),
    ],
)
def test_table_diagram_grammar_rejected(field, value, message, tmp_path, capsys):
    from fsreal.cli import main

    obj = json.loads(serialize(gen_partition([2, 2])))
    assert obj["columns"] == ["p", "e", "e", "n"] and len(obj["intercepts"]) == 4
    if value is _DROP:
        del obj[field]
    else:
        obj[field] = value(obj[field]) if callable(value) else value
    text = json.dumps(obj)
    with pytest.raises(FormatError, match=message):
        parse(text)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["solve", "--mode", "cont1d-dp", "--in", str(bad)]) == 2
    assert capsys.readouterr().err
