"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and budget is fixed here.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import fsreal as fs
from fsreal.bruteforce import brute_force_continuous_1d
from fsreal.forward import PARTIAL_ELLIPSE
from fsreal.formats import parse, serialize

from test_exhaustive_discrete import disagreements as exhaustive_disagreements


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_discrete_round_trip():
    budget = 10.0
    t0 = time.monotonic()
    rng = random.Random(20240)
    for trial in range(1000):
        n = rng.randint(1, 50)
        m = rng.randint(1, 50)
        den = rng.choice([1, 2, 3, 4, 8])
        p = [Fraction(rng.randint(-300, 300), den) for _ in range(n)]
        q = [Fraction(rng.randint(-300, 300), den) for _ in range(m)]
        eps = Fraction(rng.randint(1, 120), 2)
        matrix = fs.compute_matrix(p, q, eps)
        witness = fs.solve_discrete_1d(matrix)
        assert witness is not None, f"round trip {trial} answered NO"
        assert fs.compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == matrix
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget}s budget"
    _report(1, f"1000 discrete round trips (n,m <= 50) in {elapsed:.1f}s")


def test_criterion_2_discrete_exhaustive_oracle_equivalence(monkeypatch):
    # over the same solves, the premise of discrete._within_sides: no class
    # with within-class rows is both the first and the last of its component
    from fsreal import discrete

    within_sides = discrete._within_sides
    ends = {"first and last": 0, "with rows": 0}

    def checked(sets, first, last):
        ends["first and last"] += first and last
        ends["with rows"] += bool(first and last and sets)
        return within_sides(sets, first, last)

    monkeypatch.setattr(discrete, "_within_sides", checked)
    budget = 60.0
    t0 = time.monotonic()
    disagreements, _ = exhaustive_disagreements(4, 4)
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert ends["first and last"] > 0 and ends["with rows"] == 0
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget}s budget"
    _report(2, f"all 65,536 4x4 matrices agree with the endpoint-order oracle in {elapsed:.1f}s")


def test_criterion_3_discrete_fixtures():
    assert fs.solve_discrete_1d([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) is None
    matrix = fs.FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]])
    witness = fs.solve_discrete_1d(matrix)
    assert witness is not None
    assert fs.compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == matrix
    _report(3, "[[110],[011],[101]] is NO; [[10],[11],[01]] is YES with an exact witness")


def _random_integer_diagram(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    m = rng.randint(1, min(5, 13 - n))
    eps = rng.randint(1, 3)

    def walk(k):
        pts = [rng.randint(-2, 2)]
        for _ in range(k):
            pts.append(pts[-1] + rng.randint(1, 5) * rng.choice([-1, 1]))
        return fs.Curve1D(pts)

    return fs.compute_diagram_1d(walk(n), walk(m), eps)


def test_criterion_4_continuous_three_way_agreement():
    budget = 300.0
    t0 = time.monotonic()
    rng = random.Random(555)
    checked = 0
    for trial in range(500):
        diagram = _random_integer_diagram(trial)
        mutated = fs.gen_random_instance(
            trial,
            kind="diagram",
            n_points=rng.randint(2, 8),
            m_points=rng.randint(2, 6),
            max_coord=5,
            eps=rng.randint(1, 3),
            mutate=True,
        )
        for instance in (diagram, mutated):
            brute = brute_force_continuous_1d(instance) is not None
            fpt = fs.solve_fpt(instance) is not None
            dp = fs.solve_pseudo_poly(instance) is not None
            assert brute == fpt == dp, f"trial {trial}: {brute} {fpt} {dp}"
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 1000
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget}s budget"
    _report(4, f"three-way agreement on 500 forward + 500 mutated diagrams in {elapsed:.1f}s")


def test_criterion_5_partition_correctness():
    count = 0
    for n in range(1, 7):
        for items in itertools.combinations_with_replacement(range(1, 6), n):
            expected = fs.has_balanced_partition(items)
            got = fs.solve_fpt(fs.gen_partition(items)) is not None
            assert got == expected, f"partition {items}: expected {expected}"
            count += 1
    _report(5, f"gen_partition realizable iff balanced partition for all {count} multisets (n<=6, a_i<=5)")


def test_criterion_6_complexity_smoke():
    # discrete solver on a forward-generated 2000 x 2000 matrix
    rng = np.random.default_rng(99)
    p = np.cumsum(rng.integers(-9, 10, size=2000)).tolist()
    q = np.cumsum(rng.integers(-9, 10, size=2000)).tolist()
    matrix = fs.compute_matrix([int(x) for x in p], [int(x) for x in q], 40)
    t0 = time.monotonic()
    witness = fs.solve_discrete_1d(matrix)
    discrete_elapsed = time.monotonic() - t0
    assert witness is not None
    assert discrete_elapsed < 30.0, f"discrete 2000x2000 took {discrete_elapsed:.1f}s"

    # FPT solver: wall time grows at most 2.5x per unit of k at fixed grid size
    def k_instance(far_segs, total=16):
        pts = [0]
        near = total - far_segs - 2
        for _ in range(near // 2 * 2):
            pts.append(2 if pts[-1] == 0 else 0)
        pts.append(4)
        for _ in range(far_segs):
            pts.append(6 if pts[-1] == 4 else 4)
        pts.append(2)
        while len(pts) < total + 1:
            pts.append(0 if pts[-1] == 2 else 2)
        return fs.compute_diagram_1d(fs.Curve1D(pts), fs.Curve1D([0, 2]), 1)

    timings = {}
    for far in (7, 9, 11, 13):
        diagram = k_instance(far)
        k = fs.infer_creases(diagram).k
        best = math.inf
        for _ in range(3):
            t0 = time.monotonic()
            assert fs.solve_fpt(diagram) is not None
            best = min(best, time.monotonic() - t0)
        timings[k] = best
    ks = sorted(timings)
    for a, b in zip(ks, ks[1:]):
        ratio = timings[b] / timings[a]
        per_step = ratio ** (1.0 / (b - a))
        assert per_step <= 2.5, f"k {a}->{b}: {per_step:.2f}x per unit of k"

    # pseudo-polynomial solver at n=200 segments, W=10, eps=20
    rng2 = random.Random(7)
    pts = [0]
    for _ in range(200):
        pts.append(pts[-1] + rng2.randint(1, 10) * rng2.choice([-1, 1]))
    qts = [0]
    for _ in range(40):
        qts.append(qts[-1] + rng2.randint(1, 10) * rng2.choice([-1, 1]))
    diagram = fs.compute_diagram_1d(fs.Curve1D(pts), fs.Curve1D(qts), 20)
    t0 = time.monotonic()
    witness = fs.solve_pseudo_poly(diagram)
    dp_elapsed = time.monotonic() - t0
    assert witness is not None
    assert dp_elapsed < 60.0, f"pseudo-poly n=200 took {dp_elapsed:.1f}s"
    _report(
        6,
        f"discrete 2000x2000 {discrete_elapsed:.1f}s; fpt k-sweep {[f'{timings[k]*1e3:.0f}ms' for k in ks]} "
        f"for k={ks}; pseudo-poly n=200 {dp_elapsed:.1f}s",
    )


def test_criterion_7_cell_geometry():
    rng = random.Random(4242)
    checked = 0
    while checked < 100:
        sp = ((rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        sq = ((rng.uniform(-3, 3), rng.uniform(-3, 3)), (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        eps = rng.uniform(0.5, 2.5)
        try:
            cell = fs.cell_ellipse_2d(sp, sq, eps)
        except ValueError:
            continue
        checked += 1
        a = np.array(sp[0])
        u = np.array(sp[1]) - a
        c = np.array(sq[0])
        v = np.array(sq[1]) - c
        lp, lq = np.linalg.norm(u), np.linalg.norm(v)
        u, v = u / lp, v / lq
        xs = np.linspace(0.0, lp, 50)
        ys = np.linspace(0.0, lq, 50)
        pts = a[None, None, :] + xs[:, None, None] * u[None, None, :] - (
            c[None, None, :] + ys[None, :, None] * v[None, None, :]
        )
        dist = np.sqrt((pts**2).sum(axis=2))
        truth = dist <= eps
        if cell.status == "empty":
            claim = np.zeros_like(truth)
        elif cell.status == "full":
            claim = np.ones_like(truth)
        elif cell.status == "partial_slab":
            val = ys[None, :] - cell.slab_sigma * xs[:, None]
            claim = (val >= cell.slab_lo) & (val <= cell.slab_hi)
        else:
            x0, y0 = cell.center
            s = (xs[:, None] - x0) + (ys[None, :] - y0)
            t = (ys[None, :] - y0) - (xs[:, None] - x0)
            aa = cell.semi_major if cell.major_axis_sign == 1 else cell.semi_minor
            bb = cell.semi_minor if cell.major_axis_sign == 1 else cell.semi_major
            claim = (s / aa) ** 2 + (t / bb) ** 2 <= 2.0
        off_boundary = np.abs(dist - eps) > 1e-9
        assert (claim == truth)[off_boundary].all()

    # angle round trips, including the arcsin spot values
    from fsreal.forward import EllipseCell

    spot = fs.relative_placement_from_cell(
        EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), math.sqrt(2), 1.0, 1), 1.0
    )
    assert abs(spot.angle - math.pi / 6) <= 1e-9
    spot2 = fs.relative_placement_from_cell(
        EllipseCell(PARTIAL_ELLIPSE, (0.0, 0.0), 1.0, 1 / math.sqrt(2), -1), 1.0
    )
    assert abs(spot2.angle - math.pi / 2) <= 1e-9
    done = 0
    while done < 100:
        sp = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        sq = ((rng.uniform(-2, 2), rng.uniform(-2, 2)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        try:
            cell = fs.cell_ellipse_2d(sp, sq, 1.0)
        except ValueError:
            continue
        if cell.status != PARTIAL_ELLIPSE:
            continue
        done += 1
        placement = fs.relative_placement_from_cell(cell, 1.0)
        u = np.array(sp[1]) - np.array(sp[0])
        v = np.array(sq[1]) - np.array(sq[0])
        enclosed = math.acos(max(-1.0, min(1.0, float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))))
        assert abs(2 * placement.angle - enclosed) <= 1e-9
    _report(7, "cell geometry matches 50x50 grids on 100 pairs; placements round-trip enclosed angles")


def test_criterion_8_stretchability_generator():
    signs = fs.SignVectorSet.from_strings(["---", "+++", "--+", "-++", "-+-", "++-", "+--"])
    matrix = fs.gen_stretchability(signs)
    assert (matrix.n_rows, matrix.m_cols) == (6, 7)
    for i in range(3):
        assert ((matrix.entries[i] ^ matrix.entries[3 + i]) == 1).all()
    lines = [fs.OrientedLine(-1.0, 1.0, 2.0), fs.OrientedLine(0.0, 1.0, 0.0), fs.OrientedLine(1.0, 1.0, 2.0)]
    points = [(0.1, -5.0), (0.2, 5.0), (5.0, -0.1), (5.0, 0.1), (0.0, 1.0), (-5.0, 0.1), (-5.0, -0.1)]
    witness = fs.arrangement_to_witness(signs, lines, points)
    assert fs.compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == matrix
    _report(8, "6x7 stretchability matrix with complementary rows; 3-line arrangement witness verifies")


def test_criterion_9_cli_contract(tmp_path):
    from fsreal.cli import main

    corpus = {
        "matrix.json": fs.gen_random_instance(11, kind="matrix"),
        "diagram.json": fs.gen_random_instance(12, kind="diagram"),
        "partition.json": fs.gen_partition([3, 2, 1, 2]),
        "odd.json": fs.gen_partition([1, 1, 1]),
        "signs.json": fs.SignVectorSet.from_strings(["-", "+"]),
    }
    for name, instance in corpus.items():
        path = tmp_path / name
        path.write_text(serialize(instance), encoding="utf-8")
        assert serialize(parse(path.read_text(encoding="utf-8"))) == serialize(instance)

    no_fixture = tmp_path / "no.json"
    no_fixture.write_text(serialize(fs.FreeSpaceMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])))
    assert main(["solve", "--mode", "discrete1d", "--in", str(no_fixture)]) == 1

    witness_path = str(tmp_path / "wit.json")
    partition_path = str(tmp_path / "partition.json")
    assert main(["solve", "--mode", "cont1d-fpt", "--in", partition_path, "--witness", witness_path]) == 0
    assert main(["verify", "--instance", partition_path, "--witness", witness_path]) == 0
    assert main(["solve", "--mode", "cont1d-dp", "--in", str(tmp_path / "odd.json")]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "fsreal/1", "kind": "matrix", "rows": 1, "cols": 1, "entries": [[5]]}')
    assert main(["solve", "--mode", "discrete1d", "--in", str(bad)]) == 2

    svg = str(tmp_path / "out.svg")
    assert main(["render", "--in", str(tmp_path / "diagram.json"), "--out", svg]) == 0
    assert Path(svg).read_text().startswith("<svg")
    _report(9, "exit codes 0/1/2 honored end to end; fixture corpus round-trips losslessly")
