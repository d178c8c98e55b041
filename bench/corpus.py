"""Seeded instance corpora for the decision benchmark.

Every case carries an independent label: YES by construction for instances
computed forward from curves (the generating curves are kept as proof), the
endpoint-order oracle for small random matrices, the brute-force continuous
oracle for mutated diagrams, and subset sum for partition diagrams. The
solvers under test see only ``Case.instance``.

Shapes are stratified (fixed counts, sizes and epsilon regimes per
workload); only the content of an instance is random.

The run's seed draws the strata labelled by an oracle (random matrices,
mutated diagrams, partitions), whose YES/NO mix it varies. The strata built
forward from curves (round trips, walk matrices, forward and long diagrams)
are one fixed set drawn from FIXED_SEED. The solvers' cost on one such
instance swings up to four-fold with its random content, and a run can only
afford a few dozen of each, so drawing them from the run's seed made p50,
p90 and throughput differ by 15 to 30 % between seeds. ``--fixed-seed``
draws another fixed set, to check that a gain holds beyond the default one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

import fsreal.bruteforce
import fsreal.formats
import fsreal.forward
import fsreal.generators
from fsreal.model import Curve1D, FreeSpaceMatrix

# seed of the forward-built strata; set from ``--fixed-seed``
FIXED_SEED = 0

# cli solve modes, also used as the solver names of in-process decisions
DISCRETE = "discrete1d"
FPT = "cont1d-fpt"
DP = "cont1d-dp"

# (rows, columns) of the random-walk stratum, 150..1000 per side at about
# the same cell count, so that no single matrix dominates a pass and the
# pass cost does not hang on the content of one or two instances
WALK_SHAPES = ((150, 1000), (250, 600), (400, 400), (600, 250), (1000, 150))
WALK_REPEATS = 2  # matrices per shape and regime


@dataclass(frozen=True)
class Case:
    """One instance with its independent label (True = realizable)."""

    kind: str
    instance: object
    label: bool
    curves: Optional[tuple] = None  # (P, Q, eps) the instance was computed from


@dataclass(frozen=True)
class Decision:
    """One solver call: in-process when ``path`` is None, otherwise
    ``fsreal solve --mode <mode> --in <path>`` run in-process through the CLI."""

    case: Case
    mode: str
    path: Optional[str] = None


# (P, Q) segment counts of the small diagrams: n <= 9, m <= 5, n + m <= 13
_SMALL_GRIDS = [(n, m) for n in range(1, 10) for m in range(1, 6) if n + m <= 13]


def _spread(k: int, count: int, lo: int, hi: int) -> int:
    """The k-th of ``count`` values spread evenly over lo..hi."""
    return lo + (hi - lo) * k // max(1, count - 1)


def _forward_matrix(kind, p, q, eps) -> Case:
    return Case(kind, fsreal.forward.compute_matrix(p, q, eps), True, (tuple(p), tuple(q), eps))


def _forward_diagram(kind, p: Curve1D, q: Curve1D, eps) -> Case:
    return Case(kind, fsreal.forward.compute_diagram_1d(p, q, eps), True, (p, q, eps))


def _integer_walk(rng: random.Random, segments: int, max_step: int, start: int = 0) -> Curve1D:
    pts = [start]
    for _ in range(segments):
        pts.append(pts[-1] + rng.randint(1, max_step) * rng.choice([-1, 1]))
    return Curve1D(pts)


def random_matrices(rng: random.Random, count: int) -> list[Case]:
    """Random boolean matrices with 3..5 columns, labelled by the
    endpoint-order oracle: realizable iff the set of row supports lies inside
    one family of cover sets that m unit intervals can produce. Two in three
    are realizable in every shape that has unrealizable matrices (with two
    rows all are): a matrix is redrawn, at most 200 times, until its label
    fits. A YES costs the solver and the cli several times a NO, so a label
    mix left to chance moved p50 between seeds."""
    families = {m: fsreal.bruteforce.realizable_row_families(m) for m in (3, 4, 5)}
    out = []
    for k in range(count):
        m = 3 + k % 3
        n = 2 + k // 3 % 7
        want = k % 9 not in (0, 4, 8)
        for _ in range(200):
            density = rng.uniform(0.25, 0.75)
            ent = [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
            supports = {frozenset(j for j in range(m) if row[j]) for row in ent}
            label = any(supports <= fam for fam in families[m])
            if label == want:
                break
        out.append(Case("random", FreeSpaceMatrix(ent), label))
    return out


def round_trip_matrices(rng: random.Random, count: int) -> list[Case]:
    """Forward round trips of the shape of acceptance criterion 1: n, m in
    1..50 and eps in 1/2..60 spread evenly, random rational points."""
    out = []
    for k in range(count):
        n = _spread(k, count, 1, 50)
        m = _spread(k * 7 % count, count, 1, 50)
        eps = Fraction(_spread(k * 11 % count, count, 1, 120), 2)
        den = rng.choice([1, 2, 3, 4, 8])
        p = [Fraction(rng.randint(-300, 300), den) for _ in range(n)]
        q = [Fraction(rng.randint(-300, 300), den) for _ in range(m)]
        out.append(_forward_matrix("round_trip", p, q, eps))
    return out


def walk_matrix(rng: random.Random, n: int, m: int, giant: bool) -> Case:
    """Random-walk matrix with steps -9..9; Q is shifted so that both walks
    have the same median, so they always overlap. An eps of 1/16 of the
    range the walks cover gives one giant UIG component at a density that
    does not depend on how far the walks happen to wander; eps 1 gives many
    small components."""
    nprng = np.random.default_rng(rng.getrandbits(64))
    p, q = (np.cumsum(nprng.integers(-9, 10, size=k)) for k in (n, m))
    q += int(np.median(p) - np.median(q))
    p, q = p.tolist(), q.tolist()
    if giant:
        return _forward_matrix("walk_giant", p, q, max(9, (max(p + q) - min(p + q)) // 16))
    return _forward_matrix("walk_split", p, q, 1)


def walk_matrices(rng: random.Random) -> list[Case]:
    """Every WALK_SHAPES shape WALK_REPEATS times per regime."""
    shapes = WALK_SHAPES * WALK_REPEATS
    return [walk_matrix(rng, n, m, giant) for giant in (True, False) for n, m in shapes]


def forward_diagrams(rng: random.Random, count: int) -> list[Case]:
    """Forward diagrams of the shape of acceptance criterion 4: (n, m)
    segment counts spread evenly over n <= 9, m <= 5, n + m <= 13, so at
    most 12 unknown crease lines."""
    out = []
    for k in range(count):
        n, m = _SMALL_GRIDS[k * len(_SMALL_GRIDS) // count]
        eps = 1 + k % 3
        p = _integer_walk(rng, n, 5, rng.randint(-2, 2))
        q = _integer_walk(rng, m, 5, rng.randint(-2, 2))
        out.append(_forward_diagram("forward", p, q, eps))
    return out


def mutated_diagrams(rng: random.Random, count: int) -> list[Case]:
    """One-slab mutations of criterion-4 diagrams with n + m <= 10 segments,
    labelled by the brute-force continuous oracle. The oracle enumerates
    2^(n+m-1) orientations and dominates set-up; above 10 segments single
    cases cost up to half a second and set-up time would swing with the seed."""
    grids = [(n, m) for n, m in _SMALL_GRIDS if n + m <= 10 and n <= 7]
    out = []
    for k in range(count):
        n, m = grids[k * len(grids) // count]
        diagram = fsreal.generators.gen_random_instance(
            rng.getrandbits(32),
            kind="diagram",
            n_points=min(n, 7) + 1,
            m_points=m + 1,
            max_coord=5,
            eps=1 + k % 3,
            mutate=True,
        )
        label = fsreal.bruteforce.brute_force_continuous_1d(diagram) is not None
        out.append(Case("mutated", diagram, label))
    return out


def partition_diagrams(rng: random.Random, balanced_sizes, unbalanced_sizes) -> list[Case]:
    """gen_partition diagrams, one multiset per size, labelled by subset sum.
    Unbalanced ones are consistent NO instances on which the FPT solver
    tries all 2^k crease assignments (k = size + 1), so their cost is fixed
    by the size; a balanced one stops at its first accepted assignment, at a
    random position, so large balanced sizes would make the cost swing."""
    out = []
    for want, sizes in ((True, balanced_sizes), (False, unbalanced_sizes)):
        for size in sizes:
            for _ in range(10_000):
                items = [rng.randint(1, 12) for _ in range(size)]
                label = fsreal.generators.has_balanced_partition(items)
                if label == want:
                    break
            else:
                raise RuntimeError(f"no {'balanced' if want else 'unbalanced'} multiset of size {size}")
            out.append(Case("partition", fsreal.generators.gen_partition(items), label))
    return out


def long_diagrams(rng: random.Random, count: int) -> list[Case]:
    """Forward diagrams with 60..200 P segments (stratified), 2..6 Q
    segments and epsilon cycling through 3, 5, 10, 20."""
    out = []
    for k in range(count):
        n = _spread(k, count, 60, 200)
        m = 2 + k * 3 % 5
        eps = (3, 5, 10, 20)[k % 4]
        out.append(_forward_diagram("long", _integer_walk(rng, n, 10), _integer_walk(rng, m, 10), eps))
    return out


def criterion_6_diagram() -> Case:
    """The n=200 pseudo-polynomial smoke instance of acceptance criterion 6
    (seed 7, steps 1..10, 40 Q segments, eps 20); independent of the seed."""
    rng = random.Random(7)
    p = _integer_walk(rng, 200, 10)
    q = _integer_walk(rng, 40, 10)
    return _forward_diagram("criterion_6", p, q, 20)


def _fixed_rng(stratum: str) -> random.Random:
    """Generator of one forward-built stratum (str seeds hash the same in
    every process)."""
    return random.Random(f"{stratum}:{FIXED_SEED}")


def _matrix(seed: int, workdir: Path) -> list[Decision]:
    fixed = _fixed_rng("matrix")
    cases = random_matrices(random.Random(seed), 30) + round_trip_matrices(fixed, 64) + walk_matrices(fixed)
    return [Decision(c, DISCRETE) for c in cases]


def _diagram(seed: int, workdir: Path) -> list[Decision]:
    rng, fixed = random.Random(seed), _fixed_rng("diagram")
    small = forward_diagrams(fixed, 40) + mutated_diagrams(rng, 16) + partition_diagrams(rng, range(3, 7), range(3, 11))
    long = long_diagrams(fixed, 50) + [criterion_6_diagram()]
    return [Decision(c, mode) for c in small for mode in (FPT, DP)] + [Decision(c, DP) for c in long]


def _cli_solve(seed: int, workdir: Path) -> list[Decision]:
    rng, fixed = random.Random(seed), _fixed_rng("cli")
    planned: list[tuple[Case, str]] = []
    planned += [(c, DISCRETE) for c in random_matrices(rng, 100)]
    planned += [(walk_matrix(fixed, 250 + 10 * k, 340 - 10 * k, k % 2 == 0), DISCRETE) for k in range(10)]
    small = forward_diagrams(fixed, 15) + mutated_diagrams(rng, 15) + partition_diagrams(rng, range(3, 9), range(3, 9))
    planned += [(c, (FPT, DP)[k % 2]) for k, c in enumerate(small)]
    planned += [(c, DP) for c in long_diagrams(fixed, 8)]
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for k, (case, mode) in enumerate(planned):
        path = workdir / f"case{k:03d}.json"
        path.write_text(fsreal.formats.serialize(case.instance), encoding="utf-8")
        out.append(Decision(case, mode, str(path)))
    return out


# name -> builder(seed, workdir) -> decisions of one pass, in order
WORKLOADS = {
    "matrix": _matrix,
    "diagram": _diagram,
    "cli-solve": _cli_solve,
}

# the tiny fixture and solve mode of each workload's CLI cold start
COLD_START = {
    "matrix": ([[1, 0], [1, 1], [0, 1]], DISCRETE),
    "diagram": ([1, 1], FPT),
    "cli-solve": ([[1, 0], [1, 1], [0, 1]], DISCRETE),
}


def cold_start_fixture(workload: str, workdir: Path) -> tuple[str, str]:
    """Write the workload's tiny YES fixture; returns (path, mode)."""
    spec, mode = COLD_START[workload]
    instance = FreeSpaceMatrix(spec) if mode == DISCRETE else fsreal.generators.gen_partition(spec)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "cold_start.json"
    path.write_text(fsreal.formats.serialize(instance), encoding="utf-8")
    return str(path), mode
