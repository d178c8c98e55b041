"""Each command imports only the modules its mode runs, and ``import fsreal``
imports none: the public names load their submodule on first use.

Every check runs in a fresh interpreter, since this process has imported
the whole package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsreal import FreeSpaceMatrix, gen_partition
from fsreal.formats import serialize

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names by the submodule that defines them, in ``__all__`` order;
# solve_discrete_1d is discrete.solve
PUBLIC = {
    "model": [
        "CellContent",
        "Curve1D",
        "CurveD",
        "FreeSpaceDiagram1D",
        "FreeSpaceMatrix",
        "PointSeq1D",
        "Witness",
        "rat",
        "rat_str",
        "consistency_problems",
    ],
    "forward": [
        "EllipseCell",
        "RelativePlacement",
        "cell_ellipse_2d",
        "compute_diagram_1d",
        "compute_matrix",
        "relative_placement_from_cell",
        "verify_witness",
    ],
    "bruteforce": ["brute_force_continuous_1d", "brute_force_discrete_1d"],
    "discrete": ["solve_discrete_1d"],
    "folding": ["CreaseAssignment", "check_foldable", "extract_curves", "infer_creases", "solve_fpt"],
    "pseudopoly": ["fixed_boundary_dp", "solve_pseudo_poly", "subdivide_and_type"],
    "generators": [
        "OrientedLine",
        "PartitionInstance",
        "SignVectorSet",
        "arrangement_to_witness",
        "gen_partition",
        "gen_random_instance",
        "gen_stretchability",
        "has_balanced_partition",
    ],
}

_SOLVE = """
import json, sys
from fsreal.cli import main
code = main(["solve", "--mode", sys.argv[1], "--in", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("fsreal"))]))
"""

_PACKAGE = """
import json, sys
import fsreal
loaded = sorted(m for m in sys.modules if m.startswith("fsreal"))
listed = dir(fsreal)
star = {}
exec("from fsreal import *", star)
star.pop("__builtins__")
source = json.loads(sys.argv[1])
origin = {}
for name, value in star.items():
    attr = "solve" if name == "solve_discrete_1d" else name
    origin[name] = getattr(sys.modules["fsreal." + source[name]], attr) is value
print(json.dumps([loaded, fsreal.__all__, listed, origin]))
"""


def _run(script, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "mode, kind, absent",
    [
        ("discrete1d", "matrix", ["folding", "pseudopoly", "bruteforce", "generators", "render"]),
        ("cont1d-fpt", "diagram", ["discrete", "bruteforce", "generators", "render"]),
        ("cont1d-dp", "diagram", ["discrete", "folding", "bruteforce", "generators", "render"]),
        # the oracles share no code with the solvers they check
        ("brute-discrete", "matrix", ["discrete", "folding", "pseudopoly", "generators", "render"]),
        ("brute-cont", "diagram", ["discrete", "folding", "pseudopoly", "generators", "render"]),
    ],
)
def test_solve_imports_only_its_mode(tmp_path, mode, kind, absent):
    instance = FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]) if kind == "matrix" else gen_partition([3, 2, 1, 2])
    path = tmp_path / "in.json"
    path.write_text(serialize(instance), encoding="utf-8")
    code, loaded = _run(_SOLVE, mode, path)
    assert code == 0
    assert {"fsreal.cli", "fsreal.formats", "fsreal.model"} <= set(loaded)
    assert not {f"fsreal.{name}" for name in absent} & set(loaded), loaded


def test_public_names_load_on_first_use():
    source = {name: module for module, names in PUBLIC.items() for name in names}
    loaded, public, listed, origin = _run(_PACKAGE, json.dumps(source))
    assert loaded == ["fsreal"]
    assert public == list(source)
    assert set(public) <= set(listed)
    assert origin == dict.fromkeys(public, True)
