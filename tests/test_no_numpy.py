"""The library runs without numpy.

Matrices are int row masks from file to witness check, and the forward
computation of curves in R^d compares on ints too, so every command decides,
renders and computes forward without importing numpy; only
``FreeSpaceMatrix.entries`` and numpy-array input load it.
"""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

from fsreal import compute_matrix

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = textwrap.dedent(
    """
    import sys
    from fsreal import Curve1D, CurveD, Witness
    from fsreal.cli import main
    from fsreal.formats import serialize

    work = sys.argv[1]

    def run(*argv, code=0):
        got = main(list(argv))
        assert got == code, (argv, got)

    def write(name, instance):
        path = f"{work}/{name}"
        with open(path, "w", encoding="utf-8") as out:
            out.write(serialize(instance))
        return path

    part, matrix = f"{work}/part.json", f"{work}/matrix.json"
    run("gen", "--partition", "3,2,1,2", "--out", part)
    run("gen", "--random", "5", "--kind", "matrix", "--out", matrix)
    walk = [0]
    for k in range(80):
        walk.append(walk[-1] + (k * 7 % 9 + 1) * (1 if k % 3 else -1))
    curves = write("curves.json", Witness(Curve1D(walk), Curve1D([0, 5, -3, 4]), 6))
    long = f"{work}/long.json"
    run("forward", "--curves", curves, "--as", "diagram", "--out", long)
    run("forward", "--curves", curves, "--as", "matrix", "--out", f"{work}/forward.json")

    witness = f"{work}/witness.json"
    for mode in ("discrete1d", "brute-discrete"):
        run("solve", "--mode", mode, "--in", matrix, "--witness", witness)
        run("verify", "--instance", matrix, "--witness", witness)
    for mode in ("cont1d-fpt", "cont1d-dp", "brute-cont"):
        run("solve", "--mode", mode, "--in", part, "--witness", witness)
        run("verify", "--instance", part, "--witness", witness)
    run("solve", "--mode", "cont1d-dp", "--in", long, "--witness", witness)
    run("verify", "--instance", long, "--witness", witness)
    for path in (part, matrix, witness):
        run("render", "--in", path, "--ascii")
        run("render", "--in", path, "--out", f"{work}/render.svg")
    assert "numpy" not in sys.modules, "the 1D path imported numpy"

    plane = write("plane.json", Witness(CurveD([(0, 0), (3, 1)]), CurveD([(1, 1), (0, 2)]), 1.5))
    run("forward", "--curves", plane, "--out", f"{work}/plane_matrix.json")
    run("verify", "--instance", f"{work}/plane_matrix.json", "--witness", plane)
    assert "numpy" not in sys.modules, "the plane forward computation imported numpy"
    print("ok")
    """
)


def test_commands_never_import_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "plane_matrix.json").read_text().count('"kind": "matrix"') == 1


def test_matrix_1d_memory():
    # the int64 broadcast of an earlier version peaked at 61 MB here and at
    # 244 MB at a 4000-point side
    rng = random.Random(99)
    p, q = [0], [0]
    for _ in range(1999):
        p.append(p[-1] + rng.randint(-9, 9))
        q.append(q[-1] + rng.randint(-9, 9))
    tracemalloc.start()
    try:
        matrix = compute_matrix(p, q, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.n_rows == matrix.m_cols == 2000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
