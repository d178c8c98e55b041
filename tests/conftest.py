import json
import random
from fractions import Fraction

import pytest

from fsreal import CellContent, Curve1D, FreeSpaceDiagram1D, compute_diagram_1d


def random_integer_curves(seed: int, n_segs: int, m_segs: int, max_step: int = 5):
    rng = random.Random(seed)

    def walk(k):
        pts = [rng.randint(-2, 2)]
        for _ in range(k):
            pts.append(pts[-1] + rng.randint(1, max_step) * rng.choice([-1, 1]))
        return Curve1D(pts)

    return walk(n_segs), walk(m_segs)


def random_integer_diagram(seed: int, n_segs: int, m_segs: int, eps: int, max_step: int = 5):
    p, q = random_integer_curves(seed, n_segs, m_segs, max_step)
    return compute_diagram_1d(p, q, eps)


def random_rational_diagram(rng: random.Random, max_p_segs: int = 5, max_q_segs: int = 4):
    """Forward diagram of two walks whose vertices share a denominator of 2,
    3, 4 or 6, at a rational eps."""
    den = rng.choice([2, 3, 4, 6])

    def walk(k):
        pts = [Fraction(rng.randint(-6, 6), den)]
        for _ in range(k):
            pts.append(pts[-1] + rng.choice([-1, 1]) * Fraction(rng.randint(1, 10), den))
        return Curve1D(pts)

    eps = Fraction(rng.randint(1, 10), rng.choice([1, 2, 3, 4]))
    return compute_diagram_1d(walk(rng.randint(1, max_p_segs)), walk(rng.randint(1, max_q_segs)), eps)


def cell_dict_text(table_text: str) -> str:
    """A diagram file in the layout written before the int table: the same
    values as "num/den" strings, one object per cell, indented as
    ``json.dumps(..., indent=2)`` writes it. Reads only the JSON of
    ``table_text``, so it shares no code with the reader."""
    obj = json.loads(table_text)
    scale = obj["scale"]

    def value(v):
        return str(Fraction(v, scale))

    intercepts = iter(obj["intercepts"])
    cells = [
        [
            {"status": "empty"}
            if ch == "e"
            else {"status": "full"}
            if ch == "f"
            else {
                "status": "partial",
                "sigma": 1 if ch == "p" else -1,
                "cLo": value(next(intercepts)),
                "cHi": value(next(intercepts)),
            }
            for ch in col
        ]
        for col in obj["columns"]
    ]
    old = {
        "format": obj["format"],
        "kind": obj["kind"],
        "epsilon": value(obj["epsilon"]),
        "colWidths": [value(w) for w in obj["colWidths"]],
        "rowHeights": [value(h) for h in obj["rowHeights"]],
        "cells": cells,
    }
    return json.dumps(old, indent=2) + "\n"


def divided_diagram(d: FreeSpaceDiagram1D, k: int) -> FreeSpaceDiagram1D:
    """The diagram with every length and intercept divided by k."""
    cells = [
        [c if not c.is_partial else CellContent.partial(c.sigma, c.c_lo / k, c.c_hi / k) for c in col]
        for col in d.cells
    ]
    return FreeSpaceDiagram1D(d.epsilon / k, [w / k for w in d.col_widths], [h / k for h in d.row_heights], cells)


def scrambled_diagram(rng: random.Random, d: FreeSpaceDiagram1D) -> FreeSpaceDiagram1D:
    """The diagram with up to three cells replaced by an empty cell, a full
    cell, or the slab shifted or turned, each replacement kept when the
    diagram stays well formed."""
    cols = [list(col) for col in d.scaled_cells]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(d.n_cols), rng.randrange(d.m_rows)
        c = cols[i][j]
        if not c.is_partial or rng.random() < 0.3:
            cols[i][j] = rng.choice([CellContent.empty(), CellContent.full()])
        elif rng.random() < 0.5:
            shift = rng.choice([-1, 1]) * rng.randint(1, 2 * d.scaled_eps)
            cols[i][j] = CellContent(c.status, c.sigma, c.c_lo + shift, c.c_hi + shift)
        else:
            cols[i][j] = CellContent(c.status, -c.sigma, c.c_lo, c.c_hi)
        try:
            FreeSpaceDiagram1D.from_scaled(d.scale, d.scaled_eps, d.scaled_widths, d.scaled_heights, cols)
        except ValueError:
            cols[i][j] = c
    return FreeSpaceDiagram1D.from_scaled(d.scale, d.scaled_eps, d.scaled_widths, d.scaled_heights, cols)


@pytest.fixture
def partition_diagram():
    from fsreal import gen_partition

    return gen_partition([3, 2, 1, 2])


@pytest.fixture
def structural_checks(monkeypatch):
    """The diagrams passed to ``model.structural_problems`` while the test
    runs, counted at every module that has the name."""
    import sys

    from fsreal import model

    calls = []
    real = model.structural_problems

    def counted(d):
        calls.append(d)
        return real(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("fsreal") and getattr(module, "structural_problems", None) is real:
            monkeypatch.setattr(module, "structural_problems", counted)
    return calls
