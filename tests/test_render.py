"""Rendering: the SVG of a diagram corpus is pinned by digest, and each kind
of instance and witness draws."""

import hashlib
import random

from fsreal import CellContent, Curve1D, CurveD, FreeSpaceDiagram1D, Witness, gen_partition, gen_random_instance
from fsreal.render import render_ascii, render_svg

from conftest import random_rational_diagram
from test_fuzz_pseudopoly import forward_diagrams

# sha256 over the SVGs of _svg_corpus(), one per line: a change to how cells
# are drawn must say so and re-pin it
SVG_DIGEST = "d20a5ccf06eebd92717d53682d285531e68b5c236ea27608975ac2a42e585f7c"


def _svg_corpus():
    yield from forward_diagrams(20, seed=3)
    for seed in range(60):
        yield gen_random_instance(seed, kind="diagram", n_points=8, m_points=6, max_coord=6, eps=1 + seed % 4)
    rng = random.Random(4)
    for _ in range(40):
        yield random_rational_diagram(rng)
    for size in range(2, 12):
        yield gen_partition([rng.randint(1, 9) for _ in range(size)])


def test_diagram_svg_digest():
    svgs = [render_svg(d) for d in _svg_corpus()]
    assert sum(svg.count("<polygon") for svg in svgs) > 2000
    assert hashlib.sha256("\n".join(svgs).encode()).hexdigest() == SVG_DIGEST


def test_polyline_witness_draws_its_vertices():
    w = Witness(Curve1D([0, 2, 1]), Curve1D([1, 3]), 1)
    text = render_ascii(w)
    assert text.splitlines()[:3] == ["eps = 1", "P: 0 2 1", "Q: 1 3"]
    # P's vertex 2 lies on Q's vertex 1 and is drawn as *
    assert text.splitlines()[3] == "P" + "-" * 19 + "*" + "-" * 19 + "P" + "-" * 19 + "Q"
    svg = render_svg(w)
    for label in ("p0", "p1", "p2", "q0", "q1"):
        assert f">{label}<" in svg
    # one eps interval per Q vertex: 2 * eps over a span of 3, on 560 units
    assert svg.count('width="373.33" height="8"') == 2


def test_all_full_cells_draw_as_hashes_and_whole_rectangles():
    d = FreeSpaceDiagram1D(2, [1, 1], [1], [[CellContent.full()], [CellContent.full()]])
    assert render_ascii(d) == "##\nwidths: 1 1\nheights: 1\n"
    svg = render_svg(d)
    assert '<polygon points="0.00,24.00 24.00,24.00 24.00,0.00 0.00,0.00"' in svg
    assert '<polygon points="24.00,24.00 48.00,24.00 48.00,0.00 24.00,0.00"' in svg


def test_planar_witness_draws_its_points():
    w = Witness(CurveD([(0, 0), (3, 1)]), CurveD([(1, 1), (0, 2)]), 1.5)
    assert render_ascii(w) == "witness in R^2, eps=1.5\n"
    svg = render_svg(w)
    assert 'viewBox="0 0 80.00 56.00"' in svg
    assert svg.count('fill="#c02020"') == 2 and svg.count("<circle") == 2
    assert '<rect x="72.00" y="24.00"' in svg and '<circle cx="0.00" cy="48.00"' in svg
