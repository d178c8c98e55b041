"""Instance factories: hardness-reduction constructions and seeded random
instances built through the forward computation. The planar geometry of
``arrangement_to_witness`` is float geometry on ``math``; the witness it
builds is checked by the exact forward computation."""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .model import (
    CellContent,
    Curve1D,
    CurveD,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    PointSeq1D,
    Witness,
    _check_diagram,
    rat,
)
from .forward import compute_diagram_1d, compute_matrix


@dataclass(frozen=True)
class PartitionInstance:
    """Multiset of positive integers for the balanced-partition reduction."""

    items: tuple[int, ...]

    def __init__(self, items: Sequence[int]):
        vals = tuple(items)
        if not vals or any(isinstance(a, bool) or not isinstance(a, numbers.Integral) or a < 1 for a in vals):
            raise ValueError("partition items must be positive integers")
        object.__setattr__(self, "items", tuple(int(a) for a in vals))

    @property
    def total(self) -> int:
        return sum(self.items)


def gen_partition(instance: Union[PartitionInstance, Sequence[int]]) -> FreeSpaceDiagram1D:
    """Single-row diagram realizable iff the items admit a balanced partition.

    One row of height 1 at eps = 1; column widths (1+S, a_1..a_n, 1+S) with
    empty middle cells. The first cell carries the slab |x - y| <= 1 (through
    the bottom-left corner), the last the slab |(1+S) - x - y| <= 1 (through
    the top-right corner), forcing both long segments onto the unit segment.
    """
    if not isinstance(instance, PartitionInstance):
        instance = PartitionInstance(instance)
    s = instance.total
    widths = [1 + s] + list(instance.items) + [1 + s]
    first = CellContent.partial(1, -1, 1)
    last = CellContent.partial(-1, s, s + 2)
    cols = [[first]] + [[CellContent.empty()] for _ in instance.items] + [[last]]
    return FreeSpaceDiagram1D(1, widths, [1], cols)


def has_balanced_partition(items: Sequence[int]) -> bool:
    """Subset-sum check used as the independent oracle for gen_partition."""
    total = sum(items)
    if total % 2:
        return False
    half = total // 2
    reachable = 1
    for a in items:
        reachable |= reachable << a
    return bool((reachable >> half) & 1)


@dataclass(frozen=True)
class SignVectorSet:
    """Cell descriptions of a potential arrangement of n lines.

    Exactly 1 + n(n+1)/2 vectors over {-1, +1}^n, beginning with the all-minus
    and all-plus vectors.
    """

    n: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, vectors: Sequence[Sequence[int]]):
        vecs = tuple(tuple(int(x) for x in v) for v in vectors)
        if not vecs:
            raise ValueError("sign vector set must be non-empty")
        n = len(vecs[0])
        if n == 0:
            raise ValueError("an arrangement needs at least one line")
        if any(len(v) != n for v in vecs):
            raise ValueError("all sign vectors must have the same length")
        if any(x not in (-1, 1) for v in vecs for x in v):
            raise ValueError("sign vector entries must be -1 or +1")
        expected = 1 + n * (n + 1) // 2
        if len(vecs) != expected:
            raise ValueError(f"an arrangement of {n} lines has {expected} cells, got {len(vecs)}")
        if len(set(vecs)) != len(vecs):
            raise ValueError("sign vectors must be distinct")
        if vecs[0] != tuple([-1] * n) or vecs[1] != tuple([1] * n):
            raise ValueError("the first two vectors must be all-minus and all-plus")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vectors", vecs)

    @staticmethod
    def from_strings(rows: Sequence[str]) -> "SignVectorSet":
        return SignVectorSet([[1 if ch == "+" else -1 for ch in row] for row in rows])


def gen_stretchability(signs: SignVectorSet) -> FreeSpaceMatrix:
    """2n x |S| matrix whose realizability in the plane captures whether the
    sign vectors describe a line arrangement: column j sets row i to 1 iff
    v_j[i] = +, and row n+i to 1 iff v_j[i] = -."""
    n = signs.n
    rows = [0] * (2 * n)
    for j, vec in enumerate(signs.vectors):
        for i, sign in enumerate(vec):
            rows[i if sign > 0 else n + i] |= 1 << j
    return FreeSpaceMatrix.from_row_masks(len(signs.vectors), rows)


@dataclass(frozen=True)
class OrientedLine:
    """Line a*x + b*y = c; the positive side is where a*x + b*y > c."""

    a: float
    b: float
    c: float

    def side(self, point) -> int:
        v = self.a * point[0] + self.b * point[1] - self.c
        if v == 0:
            raise ValueError("point lies on a line; cell points must be interior")
        return 1 if v > 0 else -1


def arrangement_to_witness(
    signs: SignVectorSet,
    lines: Sequence[OrientedLine],
    cell_points: Sequence[Sequence[float]],
) -> Witness:
    """Curves in the plane realizing gen_stretchability(signs), built from a
    user-supplied arrangement realizing the sign vectors.

    P places two tangent disks per line at its crossing with the segment from
    the all-minus point to the all-plus point; the radius doubles until every
    disk contains exactly its side's cell points, and eps is the final radius.
    """
    if len(lines) != signs.n:
        raise ValueError("need one line per sign coordinate")
    if len(cell_points) != len(signs.vectors):
        raise ValueError("need one interior point per sign vector")
    pts = [tuple(map(float, p)) for p in cell_points]
    for vec, point in zip(signs.vectors, pts):
        actual = tuple(line.side(point) for line in lines)
        if actual != vec:
            raise ValueError(f"cell point {list(point)} has sign vector {actual}, expected {vec}")

    (x1, y1), (x2, y2) = pts[0], pts[1]
    dx, dy = x2 - x1, y2 - y1
    disks = []  # per line: the touch point and the unit normal
    for line in lines:
        denom = line.a * dx + line.b * dy
        if abs(denom) < 1e-12:
            raise ValueError("a line is parallel to the all-minus/all-plus segment")
        t = (line.c - (line.a * x1 + line.b * y1)) / denom
        if not 0.0 < t < 1.0:
            raise ValueError("a line misses the all-minus/all-plus segment")
        norm = math.hypot(line.a, line.b)
        disks.append(((x1 + t * dx, y1 + t * dy), (line.a / norm, line.b / norm)))

    r = 1.0
    for _ in range(200):
        centers = _disk_centers(disks, r)
        # each cell point lies in the disk on its side of every line
        if all(math.dist(p, centers[i][vec[i] < 0]) <= r for vec, p in zip(signs.vectors, pts) for i in range(signs.n)):
            break
        r *= 2.0
    else:
        raise ValueError("could not find a containing radius for the arrangement")

    witness = Witness(CurveD([above for above, _ in centers] + [below for _, below in centers]), CurveD(pts), r)
    if compute_matrix(witness.curve_p, witness.curve_q, r) != gen_stretchability(signs):
        raise ValueError("arrangement produced a witness that does not reproduce the matrix")
    return witness


def _disk_centers(disks, r: float) -> list:
    """Per line, the centers of its two tangent disks of radius r: on the
    positive side, then on the negative."""
    return [((tx + r * nx, ty + r * ny), (tx - r * nx, ty - r * ny)) for (tx, ty), (nx, ny) in disks]


def gen_random_instance(
    seed: int,
    kind: str = "matrix",
    n_points: int = 6,
    m_points: int = 5,
    max_coord: int = 12,
    eps: Optional[Union[int, str, Fraction]] = None,
    mutate: bool = False,
) -> Union[FreeSpaceMatrix, FreeSpaceDiagram1D]:
    """Seed-reproducible instances drawn from random curves on the line.

    Unmutated outputs are realizable by construction; the mutation knob flips
    one matrix entry or shifts one partial cell's intercepts, which usually
    breaks realizability.
    """
    rng = random.Random(seed)
    if kind == "matrix":
        den = rng.choice([1, 2, 3, 4])
        p = [Fraction(rng.randint(-max_coord * den, max_coord * den), den) for _ in range(n_points)]
        q = [Fraction(rng.randint(-max_coord * den, max_coord * den), den) for _ in range(m_points)]
        e = rat(eps) if eps is not None else Fraction(rng.randint(1, 2 * max_coord), 2)
        matrix = compute_matrix(PointSeq1D(p), PointSeq1D(q), e)
        if mutate:
            rows = list(matrix.row_masks)
            i = rng.randrange(matrix.n_rows)
            j = rng.randrange(matrix.m_cols)
            rows[i] ^= 1 << j
            matrix = FreeSpaceMatrix.from_row_masks(matrix.m_cols, rows)
        return matrix
    if kind == "diagram":
        e = rat(eps) if eps is not None else rng.randint(1, 3)
        p = _random_integer_curve(rng, n_points, max_coord)
        q = _random_integer_curve(rng, m_points, max_coord)
        diagram = compute_diagram_1d(p, q, e)
        if mutate:
            diagram = _mutate_diagram(rng, diagram) or diagram
        return diagram
    raise ValueError(f"unknown instance kind {kind!r}")


def _mutate_diagram(rng: random.Random, d: FreeSpaceDiagram1D) -> Optional[FreeSpaceDiagram1D]:
    """Shift one partial cell's slab by one unit, keeping the diagram
    structurally well-formed (boundary consistency may break: that is the
    point, such instances are usually unrealizable)."""
    intercepts, unit = d.scaled_intercepts, d.scale
    candidates = [(i, k, s) for i, ints in enumerate(intercepts) for k in range(0, len(ints), 2) for s in (-unit, unit)]
    rng.shuffle(candidates)
    for i, k, shift in candidates:
        shifted = list(intercepts)
        ints = shifted[i] = list(intercepts[i])
        ints[k] += shift
        ints[k + 1] += shift
        mutant = FreeSpaceDiagram1D._built(unit, d.scaled_eps, d.scaled_widths, d.scaled_heights, d.columns, shifted)
        try:
            return _check_diagram(mutant)
        except ValueError:
            continue  # the shifted slab misses the cell or covers it
    return None


def _random_integer_curve(rng: random.Random, n_vertices: int, max_step: int) -> Curve1D:
    pts = [rng.randint(-2, 2)]
    for _ in range(max(1, n_vertices - 1)):
        step = rng.randint(1, max_step) * rng.choice([-1, 1])
        pts.append(pts[-1] + step)
    return Curve1D(pts)
