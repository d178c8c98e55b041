import json
from pathlib import Path

import pytest

from fsreal import gen_random_instance
from fsreal.cli import main
from fsreal.formats import parse, serialize
from fsreal.render import render_ascii, render_svg

from conftest import cell_dict_text


def _write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_text(serialize(instance), encoding="utf-8")
    return str(path)


def test_solve_discrete_no_fixture(tmp_path, capsys):
    from fsreal import FreeSpaceMatrix

    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert main(["solve", "--mode", "discrete1d", "--in", path]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_discrete_yes_with_witness(tmp_path, capsys):
    from fsreal import FreeSpaceMatrix

    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]))
    out = str(tmp_path / "w.json")
    assert main(["solve", "--mode", "discrete1d", "--in", path, "--witness", out]) == 0
    assert main(["verify", "--instance", path, "--witness", out]) == 0


def test_parser_built_once_and_options_do_not_carry_over(tmp_path, capsys):
    from fsreal import FreeSpaceMatrix
    from fsreal.cli import _parser

    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]))
    witness = tmp_path / "w.json"
    assert main(["solve", "--mode", "discrete1d", "--in", path, "--witness", str(witness)]) == 0
    assert capsys.readouterr().out == "YES\n"
    witness.unlink()
    assert main(["solve", "--mode", "discrete1d", "--in", path]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert not witness.exists()
    # --partition and --out of one gen call are gone in the next
    part = tmp_path / "part.json"
    assert main(["gen", "--partition", "1,1", "--out", str(part)]) == 0
    assert main(["gen", "--random", "3", "--kind", "matrix"]) == 0
    assert parse(capsys.readouterr().out) == gen_random_instance(3, kind="matrix")
    assert _parser() is _parser()


def test_gen_partition_pipe_to_fpt(tmp_path):
    inst = str(tmp_path / "part.json")
    assert main(["gen", "--partition", "3,2,1,2", "--out", inst]) == 0
    assert main(["solve", "--mode", "cont1d-fpt", "--in", inst]) == 0
    assert main(["solve", "--mode", "cont1d-dp", "--in", inst]) == 0


def test_gen_partition_no_instance(tmp_path):
    inst = str(tmp_path / "part.json")
    assert main(["gen", "--partition", "1,1,1", "--out", inst]) == 0
    assert main(["solve", "--mode", "cont1d-fpt", "--in", inst]) == 1


def test_forward_round_trip(tmp_path):
    inst = str(tmp_path / "part.json")
    wit = str(tmp_path / "wit.json")
    fwd = str(tmp_path / "fwd.json")
    main(["gen", "--partition", "2,2", "--out", inst])
    assert main(["solve", "--mode", "cont1d-fpt", "--in", inst, "--witness", wit]) == 0
    assert main(["forward", "--curves", wit, "--as", "diagram", "--out", fwd]) == 0
    assert json.loads(Path(inst).read_text()) == json.loads(Path(fwd).read_text())


def test_rational_diagram_solves_in_both_modes(tmp_path, capsys):
    from fractions import Fraction

    from fsreal import Curve1D, Witness

    p = Curve1D([0, Fraction(3, 2), Fraction(-1, 3), Fraction(5, 2)])
    curves = Witness(p, Curve1D([Fraction(1, 2), 2, Fraction(5, 4)]), Fraction(3, 4))
    inst = str(tmp_path / "d.json")
    wit = str(tmp_path / "w.json")
    assert main(["forward", "--curves", _write(tmp_path, "c.json", curves), "--as", "diagram", "--out", inst]) == 0
    for mode in ("cont1d-dp", "cont1d-fpt"):
        assert main(["solve", "--mode", mode, "--in", inst, "--witness", wit]) == 0
        assert capsys.readouterr().out == "YES\n"
        assert main(["verify", "--instance", inst, "--witness", wit]) == 0
        assert capsys.readouterr().out == "VERIFIED\n"


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 1, "entries": [[3]]}')
    assert main(["solve", "--mode", "discrete1d", "--in", str(bad)]) == 2


@pytest.mark.parametrize("mode", ["cont1d-fpt", "cont1d-dp"])
@pytest.mark.parametrize("items, code", [([3, 2, 1, 2], 0), ([1, 1, 1], 1)])
def test_one_structural_check_per_diagram_decision(tmp_path, capsys, structural_checks, mode, items, code):
    # parsing builds the diagram, which checks itself; nothing after that
    # checks it again
    from fsreal import gen_partition

    path = _write(tmp_path, "d.json", gen_partition(items))
    structural_checks.clear()
    assert main(["solve", "--mode", mode, "--in", path, "--witness", str(tmp_path / "w.json")]) == code
    assert len(structural_checks) == 1


@pytest.mark.parametrize("mode", ["cont1d-fpt", "cont1d-dp", "brute-cont"])
@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda obj, cell: cell.update(cHi="99"), "cell (0,0): slab width != 2*eps"),
        (lambda obj, cell: cell.update(sigma=2), "cell (0,0): slab orientation must be +1 or -1"),
        (lambda obj, cell: obj["cells"].pop(), "cell grid width does not match colWidths"),
        (lambda obj, cell: obj["cells"][1].append({"status": "empty"}), "cell grid height does not match rowHeights"),
        (lambda obj, cell: obj.update(epsilon="-1"), "epsilon must be positive"),
    ],
    ids=["slab-width", "sigma", "missing-column", "long-column", "epsilon"],
)
def test_malformed_diagram_file_exits_2_with_its_problem(tmp_path, capsys, mode, edit, problem):
    from fsreal import gen_partition

    obj = json.loads(cell_dict_text(serialize(gen_partition([2, 2]))))
    edit(obj, obj["cells"][0][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["solve", "--mode", mode, "--in", str(bad)]) == 2
    assert f"invalid diagram: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["cont1d-fpt", "cont1d-dp", "brute-cont"])
@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda obj: obj["intercepts"].__setitem__(1, 99), "invalid diagram: cell (0,0): slab width != 2*eps"),
        (lambda obj: obj["columns"].__setitem__(0, "x"), "columns must be strings over e, f, p and n"),
        (lambda obj: obj["columns"].pop(1), "invalid diagram: cell grid width does not match colWidths"),
        (lambda obj: obj["columns"].__setitem__(1, "ee"), "columns must be strings of one letter per row"),
        (lambda obj: obj.update(epsilon=-1), "invalid diagram: epsilon must be positive"),
    ],
    ids=["slab-width", "letter", "missing-column", "long-column", "epsilon"],
)
def test_malformed_table_diagram_file_exits_2_with_its_problem(tmp_path, capsys, mode, edit, problem):
    # the cases above, in the int table layout that serialize writes: a cell
    # is a letter, so an orientation other than +1 or -1 is a letter other
    # than p or n
    from fsreal import gen_partition

    obj = json.loads(serialize(gen_partition([2, 2])))
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["solve", "--mode", mode, "--in", str(bad)]) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("widths", ["34", 7])
def test_non_array_widths_exit_code(tmp_path, widths):
    from fsreal import Curve1D, compute_diagram_1d

    obj = json.loads(serialize(compute_diagram_1d(Curve1D([0, 3, -1]), Curve1D([0, 2]), 1)))
    obj["colWidths"] = widths
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["solve", "--mode", "cont1d-dp", "--in", str(bad)]) == 2


@pytest.mark.parametrize("widths, heights", [([], []), ([], ["1"]), (["1", "2"], [])])
def test_empty_diagram_exit_code(tmp_path, capsys, widths, heights):
    obj = {"format": "fsreal/1", "kind": "diagram1d", "epsilon": "1"}
    obj.update(colWidths=widths, rowHeights=heights, cells=[[] for _ in widths])
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(obj))
    for args in (["solve", "--mode", "cont1d-fpt"], ["solve", "--mode", "cont1d-dp"], ["render", "--ascii"]):
        assert main(args + ["--in", str(bad)]) == 2
        assert "cell grid is empty" in capsys.readouterr().err


@pytest.mark.parametrize("widths, heights", [([], []), ([], [1]), ([1, 2], [])])
def test_empty_table_diagram_exit_code(tmp_path, capsys, widths, heights):
    obj = {"format": "fsreal/1", "kind": "diagram1d", "scale": 1, "epsilon": 1}
    obj.update(colWidths=widths, rowHeights=heights, columns=["" for _ in widths], intercepts=[])
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(obj))
    for args in (["solve", "--mode", "cont1d-fpt"], ["solve", "--mode", "cont1d-dp"], ["render", "--ascii"]):
        assert main(args + ["--in", str(bad)]) == 2
        assert "cell grid is empty" in capsys.readouterr().err


def test_verify_diagram_rejects_curves_that_are_not_1d_polylines(tmp_path, capsys):
    from fsreal import Curve1D, CurveD, PointSeq1D, Witness, compute_diagram_1d

    inst = _write(tmp_path, "d.json", compute_diagram_1d(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1))
    points = Witness(PointSeq1D([0, 2, 1]), PointSeq1D([1, 3]), 1)
    plane = Witness(CurveD([[0, 0]]), CurveD([[1, 1]]), 1.0)
    for curves in (points, plane):
        wit = _write(tmp_path, "w.json", curves)
        assert main(["verify", "--instance", inst, "--witness", wit]) == 2
        assert "1D polyline curves" in capsys.readouterr().err


def test_verify_rejects_witness_of_wrong_dimension(tmp_path):
    from fsreal import CurveD, FreeSpaceMatrix, Witness

    inst = _write(tmp_path, "m.json", FreeSpaceMatrix([[1]]))
    obj = json.loads(serialize(Witness(CurveD([[0, 0]]), CurveD([[0, 0]]), 0.5)))
    obj["dimension"] = 3  # the points are 2D
    bad = tmp_path / "w.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--instance", inst, "--witness", str(bad)]) == 2



def _curves_file(tmp_path, epsilon="1"):
    from fsreal import Curve1D, Witness

    obj = json.loads(serialize(Witness(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1)))
    obj["epsilon"] = epsilon
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_verify_rejects_nonpositive_epsilon(tmp_path):
    from fsreal import FreeSpaceMatrix

    inst = _write(tmp_path, "m.json", FreeSpaceMatrix([[1], [0], [1]]))
    assert main(["verify", "--instance", inst, "--witness", _curves_file(tmp_path, "-1")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--eps", "abc"],
        ["--eps", "1/0"],
        ["--eps", "0"],
        ["--eps", "-1", "--as", "diagram"],
        ["--eps", "0", "--as", "matrix"],
        ["--eps", "-1", "--as", "matrix"],
        ["--eps", "0.5", "--as", "matrix"],  # 1D curves take a rational eps only
    ],
)
def test_forward_bad_eps_exit_code(tmp_path, args):
    out = tmp_path / "out.json"
    assert main(["forward", "--curves", _curves_file(tmp_path), "--out", str(out)] + args) == 2
    assert not out.exists()


def test_forward_bad_curves_exit_code(tmp_path):
    from fsreal import CurveD, Witness

    assert main(["forward", "--curves", _curves_file(tmp_path, "-1")]) == 2
    plane = _write(tmp_path, "plane.json", Witness(CurveD([[0, 0]]), CurveD([[1, 1]]), 0.5))
    assert main(["forward", "--curves", plane, "--as", "diagram"]) == 2


@pytest.mark.parametrize(
    "eps, value",
    [
        ("0.5", 0.5),
        ("1/2", 0.5),
        ("1e-1", 0.1),
        ("3", 3.0),
        ("inf", None),
        ("nan", None),
        ("-0.5", None),
        ("0", None),
        ("abc", None),
    ],
)
def test_forward_plane_curves_eps(tmp_path, eps, value):
    from fsreal import CurveD, Witness, compute_matrix

    p, q = CurveD([[0, 0], [1, 0]]), CurveD([[0, 0.4], [3, 3]])
    plane = _write(tmp_path, "plane.json", Witness(p, q, 2))
    out = tmp_path / "out.json"
    code = main(["forward", "--curves", plane, "--as", "matrix", "--eps", eps, "--out", str(out)])
    if value is None:
        assert code == 2 and not out.exists()
    else:
        assert code == 0 and parse(out.read_text()) == compute_matrix(p, q, value)


@pytest.mark.parametrize(
    "command, message",
    [
        (["solve", "--mode", "discrete1d", "--in", "{diagram}"], "mode discrete1d needs a matrix instance"),
        (["solve", "--mode", "cont1d-dp", "--in", "{matrix}"], "mode cont1d-dp needs a diagram1d instance"),
        (["solve", "--mode", "cont1d-dp", "--in", "{curves}"], "mode cont1d-dp needs a diagram1d instance"),
        (["forward", "--curves", "{matrix}"], "forward needs a curves file"),
        (["verify", "--instance", "{matrix}", "--witness", "{matrix}"], "witness file must contain curves"),
        (["verify", "--instance", "{curves}", "--witness", "{curves}"], "instance must be a matrix or diagram1d file"),
        (["render", "--in", "{diagram}"], "render needs --out FILE.svg or --ascii"),
        (["gen", "--stretchability", "{matrix}"], "stretchability input must be a signvectors file"),
    ],
    ids=[
        "discrete-on-diagram",
        "dp-on-matrix",
        "dp-on-curves",
        "forward-on-matrix",
        "verify-matrix-witness",
        "verify-curves-instance",
        "render-nowhere",
        "stretchability-of-matrix",
    ],
)
def test_wrong_kind_of_file_exits_2(tmp_path, capsys, command, message):
    from fsreal import Curve1D, FreeSpaceMatrix, Witness, compute_diagram_1d

    files = {
        "diagram": _write(tmp_path, "d.json", compute_diagram_1d(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1)),
        "matrix": _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1]])),
        "curves": _write(tmp_path, "c.json", Witness(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1)),
    }
    assert main([arg.format(**files) for arg in command]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    from fsreal import FreeSpaceMatrix, discrete

    def broken(matrix):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(discrete, "solve", broken)
    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1]]))
    assert main(["solve", "--mode", "discrete1d", "--in", path]) == 3
    assert capsys.readouterr().err == "internal error: broken invariant\n"


@pytest.mark.parametrize(
    "content, message",
    [
        # json.loads raises a plain ValueError past the int digit limit
        (b'{"format": "fsreal/1", "kind": "matrix", "rows": ' + b"1" * 5000 + b"}", "{path}: "),
        (b"[" * 100_000 + b"]" * 100_000, "{path}: malformed JSON: "),
        (b'{"format": "fsreal/1", "kind": "matrix\xff"}', "cannot read {path}: "),
    ],
    ids=["long-int", "deep-nesting", "not-utf8"],
)
def test_unreadable_input_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    assert main(["solve", "--mode", "discrete1d", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--mode", "discrete1d", "--in", "{matrix}", "--witness", "{out}"],
        ["gen", "--random", "3", "--kind", "matrix", "--out", "{out}"],
        ["forward", "--curves", "{curves}", "--out", "{out}"],
        ["render", "--in", "{matrix}", "--out", "{out}"],
        ["render", "--in", "{matrix}", "--ascii", "--out", "{out}"],
    ],
    ids=["solve-witness", "gen", "forward", "render-svg", "render-ascii"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    from fsreal import Curve1D, FreeSpaceMatrix, Witness

    files = {
        "matrix": _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]])),
        "curves": _write(tmp_path, "c.json", Witness(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1)),
        "out": str(tmp_path / "missing" / "out.json"),
    }
    assert main([arg.format(**files) for arg in command]) == 2
    captured = capsys.readouterr()
    # a witness that cannot be written comes with no verdict
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {files['out']}: ")


def test_witness_to_stdout_follows_the_verdict(tmp_path, capsys):
    from fsreal import FreeSpaceMatrix, Witness

    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]))
    assert main(["solve", "--mode", "discrete1d", "--in", path, "--witness", "-"]) == 0
    verdict, _, text = capsys.readouterr().out.partition("\n")
    assert verdict == "YES"
    assert isinstance(parse(text), Witness)

def test_missing_file_exit_code():
    assert main(["solve", "--mode", "discrete1d", "--in", "/nonexistent.json"]) == 2


def test_gen_requires_exactly_one_source(tmp_path):
    assert main(["gen", "--partition", "1,2", "--random", "3"]) == 2


@pytest.mark.parametrize("items", ["3,0", "3,x"])
def test_gen_partition_of_bad_items_exits_2(capsys, items):
    assert main(["gen", "--partition", items]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_random_modes(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["gen", "--random", "5", "--kind", "matrix", "--out", out]) == 0
    assert main(["solve", "--mode", "discrete1d", "--in", out]) == 0
    assert main(["gen", "--random", "5", "--kind", "diagram", "--out", out]) == 0
    assert main(["solve", "--mode", "cont1d-fpt", "--in", out]) == 0


def test_gen_stretchability(tmp_path):
    from fsreal import SignVectorSet

    signs = str(tmp_path / "s.json")
    out = str(tmp_path / "m.json")
    (tmp_path / "s.json").write_text(serialize(SignVectorSet.from_strings(["-", "+"])))
    assert main(["gen", "--stretchability", signs, "--out", out]) == 0
    matrix = parse(Path(out).read_text())
    assert matrix.entries.tolist() == [[0, 1], [1, 0]]


def test_gen_stretchability_of_empty_vectors_exits_2(tmp_path, capsys):
    # n = 0 lines: one expected cell, so the set once reached an index error
    signs = tmp_path / "s.json"
    signs.write_text(json.dumps({"format": "fsreal/1", "kind": "signvectors", "vectors": [""]}))
    assert main(["gen", "--stretchability", str(signs)]) == 2
    assert "an arrangement needs at least one line" in capsys.readouterr().err


def test_render_ascii_and_svg(tmp_path, capsys, partition_diagram):
    inst = _write(tmp_path, "d.json", partition_diagram)
    assert main(["render", "--in", inst, "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "/" in out and "\\" in out
    svg = str(tmp_path / "d.svg")
    assert main(["render", "--in", inst, "--out", svg]) == 0
    text = Path(svg).read_text()
    assert text.startswith("<svg") and "polygon" in text


@pytest.mark.parametrize("args", [["--ascii"], ["--out", "x.svg"]])
def test_render_rejects_signvectors_file(tmp_path, capsys, args):
    from fsreal import SignVectorSet

    signs = _write(tmp_path, "s.json", SignVectorSet.from_strings(["-", "+"]))
    args = [str(tmp_path / a) if a.endswith(".svg") else a for a in args]
    assert main(["render", "--in", signs, *args]) == 2
    assert "render needs a matrix, diagram1d or curves file" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_render_matrix_and_witness_smoke(tmp_path):
    m = gen_random_instance(3, kind="matrix")
    assert "#" in render_ascii(m) or "." in render_ascii(m)
    assert render_svg(m).startswith("<svg")
    from fsreal import solve_discrete_1d

    w = solve_discrete_1d(m)
    assert w is not None
    assert "eps" in render_ascii(w)
    assert render_svg(w).startswith("<svg")


def test_brute_modes_available(tmp_path):
    from fsreal import FreeSpaceMatrix

    path = _write(tmp_path, "m.json", FreeSpaceMatrix([[1, 0], [1, 1]]))
    assert main(["solve", "--mode", "brute-discrete", "--in", path]) == 0


def test_brute_modes_past_their_caps_exit_2(tmp_path, capsys):
    from fsreal import Curve1D, FreeSpaceMatrix, compute_diagram_1d

    wide = _write(tmp_path, "m.json", FreeSpaceMatrix([[1] * 7]))
    assert main(["solve", "--mode", "brute-discrete", "--in", wide]) == 2
    assert "capped at 6 columns" in capsys.readouterr().err
    # 11 + 10 segments
    long = _write(tmp_path, "d.json", compute_diagram_1d(Curve1D(range(12)), Curve1D(range(11)), 1))
    assert main(["solve", "--mode", "brute-cont", "--in", long]) == 2
    assert "capped at 20 segments" in capsys.readouterr().err
