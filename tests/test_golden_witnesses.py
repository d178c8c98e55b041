"""Golden digests of the solvers' answers.

The sha256 of the serialized witnesses (null for NO) that ``solve_pseudo_poly``
and ``solve_fpt`` return on a small seeded corpus of diagrams, and that the
discrete solver returns on a seeded corpus of matrices. A refactor that keeps
verdicts and witnesses byte-identical keeps both digests; a change that
alters a witness on purpose must say so and update the digest here. The
FPT and discrete verdicts are also pinned on their own, so a change of
witnesses cannot hide a change of answers, and so are the crease labels of
``infer_creases``, on a corpus that adds diagrams failing the consistency
check. The discrete brute-force oracle's witnesses and the row families it
labels the benchmark's matrices with are pinned too, so a faster oracle
must give the same answers, and so are the continuous oracle's, on small
diagrams of every kind it handles. Long diagrams, on which most segments meet no
partial cell, have their own pseudo-poly and FPT digests. The messages of
the diagram checks and of the diagram table reader are pinned as text.
"""

import hashlib
import json
import random
from fractions import Fraction

from fsreal import (
    CellContent,
    FreeSpaceDiagram1D,
    FreeSpaceMatrix,
    brute_force_continuous_1d,
    brute_force_discrete_1d,
    compute_matrix,
    gen_partition,
    gen_random_instance,
    infer_creases,
    solve_discrete_1d,
    solve_fpt,
    solve_pseudo_poly,
)
from fsreal.bruteforce import realizable_row_families
from fsreal.diagram import (
    EMPTY,
    PARTIAL,
    cell_edge_interval,
    consistency_problems,
    structural_problems,
    transpose_diagram,
)
from fsreal.formats import parse, serialize

from conftest import random_integer_diagram, random_rational_diagram, scrambled_diagram
from test_fuzz_pseudopoly import consistent_diagrams, forward_diagrams

# 400 diagrams, 267 of them past the consistency check: pseudo-poly answers
# 218 YES; FPT runs on the 380 with k <= 10 and answers 201 YES. The k <= 10
# filter dates from FPT's enumeration of all 2^k crease assignments; it
# stays so that the corpus, and with it the digests, stays the same.
# Re-pinned when pseudo-poly stopped subdividing segments: 52 of the 218
# witnesses changed, 49 of them by a translation (a frame is now rooted at
# a segment's start, not at its first anchored piece); the verdicts held.
PSEUDO_POLY_DIGEST = "24f9b4c9bcc0d7c0b62bb72c3926f49badec3e39d0a00d44d2ff7f4e9f7eb55c"
# the 400 YES/NO answers of solve_pseudo_poly alone (218 YES)
PSEUDO_POLY_VERDICT_DIGEST = "7978d925a501ec75319db5644bc77cf2835eb44c6b36abcb9b6433fb08b54fc2"
# solve_pseudo_poly on 32 forward diagrams of 60..200 P segments by 2..6 Q
# segments at eps 3, 5, 10 and 20, the benchmark's long shape, where most
# segments meet no partial cell, and their 53 consistent one-slab mutants.
# Re-pinned when pseudo-poly stopped subdividing segments: 8 of the 42
# witnesses changed, all 8 by a translation; the verdicts held.
PSEUDO_POLY_LONG_DIGEST = "6e6a3866ae6724a9ff7edc1f7e508f41157424f64a916596f00a6c6b96fe77fb"
# the 85 YES/NO answers alone (42 YES: the 32 forward diagrams, 10 mutants)
PSEUDO_POLY_LONG_VERDICT_DIGEST = "9904ddfb82e6cc151006686840f2e75c7d8c4cee07702fcd0294a65e2ac10e65"
# solve_fpt on the same 85 long diagrams; its verdicts are pseudo-poly's
FPT_LONG_DIGEST = "112e0c1cbaa6cc08fa68cffd426b04f9bbdaa01a79ec4b8d6998f5eff3f781d9"
# FPT decides the diagrams without partial cells by pseudo-poly's closed
# form, which centres each curve's smallest window instead of its smallest
# hull over the crease labels: 16 of the 201 witnesses changed, all on
# all-full diagrams
FPT_DIGEST = "8c9ab9133384fd0a9880c7d10921f91427e93ee89e3a9500da52e14ebec99099"
# the 380 YES/NO answers alone, pinned before the column sweep replaced the
# enumeration, which changed 75 of the 201 witnesses
FPT_VERDICT_DIGEST = "b62837efa54585d039bb29ab9c892a4bf1fc47b1df1adfedada8cf03632c46a4"
# FPT on rational diagrams, whose witness is read off unscaled Fractions:
# 100 forward diagrams of rational curves, then 60 all-full and 40 all-empty
# grids of rational sizes (the centred and the far placement); the shared
# closed form changed 26 of the 167 witnesses, all on all-full grids
FPT_RATIONAL_DIGEST = "20dfd670e0cdd189a4fd8c143d15656dd58a791b79057f726d539222a6974115"
# its 200 YES/NO answers alone (167 YES), pinned before the column sweep,
# which changed 56 of the 167 witnesses
FPT_RATIONAL_VERDICT_DIGEST = "b547ffe16c0f4319792cc4e3b5b80ce6098c85af53f0e83a55cd3daf7ece0a17"
# solve_pseudo_poly on the same 200 rational diagrams (167 YES), where the
# scale of the diagram and of its witness must be handled exactly.
# Re-pinned when pseudo-poly stopped subdividing segments: 23 of the 167
# witnesses changed, 21 of them by a translation; the verdicts held.
PSEUDO_POLY_RATIONAL_DIGEST = "f49ed2e3740ce992e15d7eeef1cd89f432f1b6991b38609ce9143a7b7772f7e6"
# its 200 YES/NO answers alone (167 YES), pinned apart from the witnesses so
# that a re-pin of the witness digest cannot hide a verdict change
PSEUDO_POLY_RATIONAL_VERDICT_DIGEST = "b547ffe16c0f4319792cc4e3b5b80ce6098c85af53f0e83a55cd3daf7ece0a17"
# the discrete solver on 120 criterion-1 round trips, 300 random matrices up
# to 8x8 (94 of the 429 answers are NO), 8 walk matrices and one pair of
# points beyond 2^62, which an int64 forward kernel could not hold. Equal
# rows and equal columns share a point of the witness: the solver decides
# the matrix with its twins merged.
DISCRETE_DIGEST = "053e19c4502773f008d0fa026833eea2d1eb8238d2e7d24da13973a6c257b34d"
# the 429 YES/NO answers alone (335 YES)
DISCRETE_VERDICT_DIGEST = "f7ebf9f79a8ae02fb00998188e807fefd9a41360bd2d9a7c783a650d51426cf5"
# infer_creases's (vertical, horizontal, contradictions) on 900 diagrams:
# the 400 of the witness corpus, the 200 rational ones, 100 partitions and
# 200 forward diagrams with one to three cells replaced. 273 of the 900
# fail the consistency check (140 of the last 200), so their labels reach
# no witness digest; 282 have a contradiction
CREASE_DIGEST = "a3bd97fcd373c4c45271067a5995c9773704f2c48929e8fb84ae3aaba251573f"
# realizable_row_families(m) for m = 1..6 (1, 2, 10, 94, 1286 and 22876
# families), each family as its sorted list of sorted column lists, in the
# order the function returns them; pinned while the oracle still built all
# C_m * m! combinatorial classes
ROW_FAMILY_DIGESTS = {
    1: "2d662b6eccd38637ce9e6338a268a60008b12ae9c573008ec9fb44e073acfe0c",
    2: "b80b52ea65721a15f046b211783a748e7fb807ee71798f28e755a62c947cc261",
    3: "641fb9565a682caab38b0c56d5a90a744cb5a754c74caae55444e40b77bd2cf3",
    4: "08b2f87ae3d8679041de730397b5a8a259bdc519caa2b65d5358fd81efdb96cb",
    5: "2bac49e60caf416881aa9acea9bb74b3cc6f5478018a8ff10890e3c71d4f8ea4",
    6: "6847bf9e7a72df5e69a4a7ec6d5583f0b15cf185cac2a4897c5b799935dcdd7f",
}
# brute_force_discrete_1d on every matrix of at most 3 x 4 or 4 x 3 entries
# and 300 seeded matrices of 4 to 6 columns (8984 of the 9718 answers are
# YES), pinned at the same time
BRUTE_DISCRETE_DIGEST = "7fadfbccfda6a16b205971e74f85d4df2a44598ccd390d96c9ed612641683e90"
# brute_force_continuous_1d on 300 diagrams of at most 12 segments: 60
# integer forward diagrams and each with up to three cells replaced, 30
# mutated random instances, 30 partitions, 60 rational forward diagrams and
# 60 rational grids, all full and all empty in turn (181 YES), pinned while
# the oracle still computed on Fractions
CONTINUOUS_BRUTE_DIGEST = "46a86cc9c48d924644cdefb0f197e072b92c7e02a37e82760d01cc9904ad8501"
# the 300 YES/NO answers alone
CONTINUOUS_BRUTE_VERDICT_DIGEST = "52fdef4ae108e9befced56aa3c36433c46b213bd313fd5140c5b493876828665"


def _corpus():
    yield from forward_diagrams(40, seed=5)
    yield from consistent_diagrams(60, seed=6)
    for seed in range(300):
        rng = random.Random(seed)
        yield gen_random_instance(
            seed,
            kind="diagram",
            n_points=rng.randint(3, 12),
            m_points=rng.randint(2, 8),
            max_coord=10,
            eps=rng.randint(1, 12),
            mutate=bool(seed % 2),
        )


def _uniform_grid(rng: random.Random, cell: CellContent) -> FreeSpaceDiagram1D:
    def length():
        return Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6]))

    widths = [length() for _ in range(rng.randint(1, 4))]
    heights = [length() for _ in range(rng.randint(1, 4))]
    return FreeSpaceDiagram1D(length() * 2, widths, heights, [[cell] * len(heights) for _ in widths])


def _rational_corpus():
    rng = random.Random(8)
    for _ in range(100):
        yield random_rational_diagram(rng)
    for index in range(100):
        yield _uniform_grid(rng, CellContent.full() if index < 60 else CellContent.empty())


def _sha256(answers) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def _digest(solve, diagrams) -> str:
    return _sha256([None if w is None else serialize(w) for w in map(solve, diagrams)])


def _fpt_digests(diagrams) -> tuple[str, str]:
    """The witness digest and the verdict digest of solve_fpt."""
    witnesses = [solve_fpt(d) for d in diagrams]
    return (
        _sha256([None if w is None else serialize(w) for w in witnesses]),
        _sha256([w is not None for w in witnesses]),
    )


def test_witness_digests():
    diagrams = list(_corpus())
    assert len(diagrams) == 400
    witnesses = [solve_pseudo_poly(d) for d in diagrams]
    assert _sha256([w is not None for w in witnesses]) == PSEUDO_POLY_VERDICT_DIGEST
    assert _sha256([None if w is None else serialize(w) for w in witnesses]) == PSEUDO_POLY_DIGEST
    fpt_corpus = [d for d in diagrams if infer_creases(d).k <= 10]
    assert len(fpt_corpus) == 380
    assert _fpt_digests(fpt_corpus) == (FPT_DIGEST, FPT_VERDICT_DIGEST)


def _long_forward_diagrams():
    rng = random.Random(3)
    for k in range(32):
        n, m, eps = rng.randint(60, 200), rng.randint(2, 6), (3, 5, 10, 20)[k % 4]
        yield random_integer_diagram(rng.randrange(1 << 30), n, m, eps, max_step=10)


def _edges_agree(d: FreeSpaceDiagram1D, i: int, j: int, cell: CellContent) -> bool:
    """Whether ``cell`` in place (i, j) meets its neighbours' white sets on
    every shared grid line."""
    w, h, cells = d.scaled_widths, d.scaled_heights, d.scaled_cells
    for a, b, mine, theirs in ((i - 1, j, "L", "R"), (i + 1, j, "R", "L"), (i, j - 1, "B", "T"), (i, j + 1, "T", "B")):
        if 0 <= a < d.n_cols and 0 <= b < d.m_rows:
            if cell_edge_interval(cell, w[i], h[j], mine) != cell_edge_interval(cells[a][b], w[a], h[b], theirs):
                return False
    return True


def _consistent_one_slab_mutants(d: FreeSpaceDiagram1D):
    """Every well-formed diagram that shifts one slab of ``d`` by a nonzero
    amount of at most 2*eps and still passes the grid-line check, in grid
    order and by shift."""
    eps = d.scaled_eps
    for i, col in enumerate(d.scaled_cells):
        for j, c in enumerate(col):
            if not c.is_partial:
                continue
            for shift in [s for s in range(-2 * eps, 2 * eps + 1) if s]:
                cell = CellContent(c.status, c.sigma, c.c_lo + shift, c.c_hi + shift)
                if not _edges_agree(d, i, j, cell):
                    continue
                cols = [list(col) for col in d.scaled_cells]
                cols[i][j] = cell
                try:
                    yield FreeSpaceDiagram1D.from_scaled(d.scale, eps, d.scaled_widths, d.scaled_heights, cols)
                except ValueError:
                    continue  # the shifted slab misses the cell or covers it


def _long_corpus() -> list[FreeSpaceDiagram1D]:
    diagrams = list(_long_forward_diagrams())
    diagrams += [m for d in diagrams for m in _consistent_one_slab_mutants(d)]
    assert len(diagrams) == 85
    return diagrams


def test_long_pseudo_poly_witness_digest():
    diagrams = _long_corpus()
    assert not any(consistency_problems(d) for d in diagrams)
    witnesses = [solve_pseudo_poly(d) for d in diagrams]
    assert _sha256([w is not None for w in witnesses]) == PSEUDO_POLY_LONG_VERDICT_DIGEST
    assert _sha256([None if w is None else serialize(w) for w in witnesses]) == PSEUDO_POLY_LONG_DIGEST


def test_long_fpt_witness_digest():
    assert _fpt_digests(_long_corpus()) == (FPT_LONG_DIGEST, PSEUDO_POLY_LONG_VERDICT_DIGEST)


def _crease_corpus():
    yield from _corpus()
    yield from _rational_corpus()
    rng = random.Random(10)
    for _ in range(100):
        yield gen_partition([rng.randint(1, 12) for _ in range(rng.randint(2, 8))])
    for index in range(200):
        if index % 2:
            d = random_rational_diagram(rng)
        else:
            d = random_integer_diagram(index, rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 4))
        yield scrambled_diagram(rng, d)


def test_crease_label_digest():
    labels = [infer_creases(d) for d in _crease_corpus()]
    assert len(labels) == 900
    assert _sha256([[c.vertical, c.horizontal, c.contradictions] for c in labels]) == CREASE_DIGEST


def test_rational_fpt_witness_digest():
    assert _fpt_digests(list(_rational_corpus())) == (FPT_RATIONAL_DIGEST, FPT_RATIONAL_VERDICT_DIGEST)


def test_rational_pseudo_poly_witness_digest():
    witnesses = [solve_pseudo_poly(d) for d in _rational_corpus()]
    assert _sha256([w is not None for w in witnesses]) == PSEUDO_POLY_RATIONAL_VERDICT_DIGEST
    assert _sha256([None if w is None else serialize(w) for w in witnesses]) == PSEUDO_POLY_RATIONAL_DIGEST


def _walk(rng: random.Random, k: int) -> list[int]:
    pts = [0]
    for _ in range(k - 1):
        pts.append(pts[-1] + rng.randint(-9, 9))
    return pts


def _discrete_corpus():
    rng = random.Random(11)
    for _ in range(120):
        n, m = rng.randint(1, 50), rng.randint(1, 50)
        den = rng.choice([1, 2, 3, 4, 8])
        p = [Fraction(rng.randint(-300, 300), den) for _ in range(n)]
        q = [Fraction(rng.randint(-300, 300), den) for _ in range(m)]
        yield compute_matrix(p, q, Fraction(rng.randint(1, 120), 2))
    for _ in range(300):
        n, m, density = rng.randint(1, 8), rng.randint(1, 8), rng.uniform(0.2, 0.8)
        yield FreeSpaceMatrix([[int(rng.random() < density) for _ in range(m)] for _ in range(n)])
    for k in range(8):
        p, q = _walk(rng, 40 + 20 * k), _walk(rng, 120 - 10 * k)
        yield compute_matrix(p, q, max(9, (max(p + q) - min(p + q)) // 16) if k % 2 else 1)
    big = 2**62
    p = [Fraction(big + 3 * v, 2) for v in _walk(rng, 30)]
    q = [big // 2 + 2 * v for v in _walk(rng, 25)]
    yield compute_matrix(p, q, Fraction(17, 2))


def test_discrete_witness_digest():
    matrices = list(_discrete_corpus())
    assert len(matrices) == 429
    witnesses = [solve_discrete_1d(m) for m in matrices]
    assert _sha256([w is not None for w in witnesses]) == DISCRETE_VERDICT_DIGEST
    assert _sha256([None if w is None else serialize(w) for w in witnesses]) == DISCRETE_DIGEST


def test_row_family_digests():
    digests = {m: _sha256([sorted(map(sorted, fam)) for fam in realizable_row_families(m)]) for m in range(1, 7)}
    assert digests == ROW_FAMILY_DIGESTS


def _brute_discrete_corpus():
    for n in range(1, 5):
        for m in range(1, 5):
            if n * m <= 12:
                full = (1 << m) - 1
                for code in range(1 << (n * m)):
                    yield FreeSpaceMatrix.from_row_masks(m, [code >> (m * i) & full for i in range(n)])
    rng = random.Random(13)
    for index in range(300):
        n, m = rng.randint(2, 7), rng.randint(4, 6)
        if index % 2:
            yield FreeSpaceMatrix.from_row_masks(m, [rng.getrandbits(m) for _ in range(n)])
        else:
            p = [rng.randint(0, 12) for _ in range(n)]
            q = [rng.randint(0, 12) for _ in range(m)]
            yield compute_matrix(p, q, rng.randint(1, 3))


def test_brute_discrete_witness_digest():
    matrices = list(_brute_discrete_corpus())
    assert len(matrices) == 9718
    assert _digest(brute_force_discrete_1d, matrices) == BRUTE_DISCRETE_DIGEST


def _brute_continuous_corpus():
    rng = random.Random(17)
    for _ in range(60):
        d = random_integer_diagram(rng.randrange(1 << 30), rng.randint(1, 7), rng.randint(1, 5), rng.randint(1, 4))
        yield d
        yield scrambled_diagram(rng, d)
    for _ in range(30):
        yield gen_random_instance(
            rng.randrange(1 << 30),
            kind="diagram",
            n_points=rng.randint(2, 6),
            m_points=rng.randint(2, 5),
            max_coord=8,
            eps=rng.randint(1, 4),
            mutate=True,
        )
    for _ in range(30):
        yield gen_partition([rng.randint(1, 9) for _ in range(rng.randint(2, 7))])
    for _ in range(60):
        yield random_rational_diagram(rng)
    for index in range(60):
        yield _uniform_grid(rng, CellContent.full() if index % 2 else CellContent.empty())


def test_brute_continuous_witness_digest():
    diagrams = list(_brute_continuous_corpus())
    assert len(diagrams) == 300
    witnesses = [brute_force_continuous_1d(d) for d in diagrams]
    assert _sha256([w is not None for w in witnesses]) == CONTINUOUS_BRUTE_VERDICT_DIGEST
    assert _sha256([None if w is None else serialize(w) for w in witnesses]) == CONTINUOUS_BRUTE_DIGEST


# the problems that diagram.structural_problems and consistency_problems name,
# and the FormatError messages of the diagram table reader, as exact text:
# [structural, consistency] of 600 built diagrams (forward, consistent,
# their scrambled mutants and the transposes of all of these; 218 fail the
# grid-line check), then the error of a malformed cell grid and of a
# malformed table made from each (132 of the grids still build)
PROBLEM_MESSAGE_DIGEST = "1289920df396594d94c308a46ad73efd6d11f88142a8e628209a1b789345b19b"


def _message_corpus() -> list[FreeSpaceDiagram1D]:
    rng = random.Random(33)
    diagrams = list(forward_diagrams(75, seed=33)) + list(consistent_diagrams(75, seed=34))
    diagrams += [scrambled_diagram(rng, d) for d in diagrams]
    diagrams += [transpose_diagram(d) for d in diagrams]
    return diagrams


def _malformed_cells(rng: random.Random, d: FreeSpaceDiagram1D):
    """The fields of a cell grid with one to three defects, in the order
    that the cell-grid constructor takes them."""
    eps, widths, heights = d.scaled_eps, list(d.scaled_widths), list(d.scaled_heights)
    cols = [list(col) for col in d.scaled_cells]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(cols)), rng.randrange(len(heights))
        c, w, h = cols[i][j], widths[i], heights[j]
        sigma = c.sigma if c.is_partial else rng.choice([1, -1])
        vmin, vmax = (-w, h) if sigma == 1 else (0, w + h)
        defect = rng.randrange(9)
        if defect == 0 and c.is_partial:
            cols[i][j] = CellContent(PARTIAL, sigma, c.c_lo, c.c_hi + rng.choice([-1, 1]))
        elif defect == 1:
            lo = vmax + rng.randint(1, 5) if rng.random() < 0.5 else vmin - 2 * eps - rng.randint(1, 5)
            cols[i][j] = CellContent(PARTIAL, sigma, lo, lo + 2 * eps)
        elif defect == 2 and 2 * eps >= vmax - vmin:
            cols[i][j] = CellContent(PARTIAL, sigma, vmin, vmin + 2 * eps)
        elif defect == 3:
            cols[i][j] = CellContent(rng.choice(["half", "Empty", "p"]))
        elif defect == 4:
            cols[i][j] = CellContent(PARTIAL, rng.choice([0, 2, True]), vmin, vmin + 2 * eps)
        elif defect == 5:
            widths[i] = rng.choice([0, -w])
        elif defect == 6:
            heights[j] = rng.choice([0, -h])
        elif defect == 7:
            eps = rng.choice([0, -eps])
        else:
            cols[i][j] = CellContent.full() if c.status == EMPTY else CellContent.empty()
    shape = rng.randrange(6)  # the grid's shape last, so the cell defects find their cells
    i = rng.randrange(len(cols))
    if shape == 0 and len(cols) > 1:
        del cols[i]
    elif shape == 1:
        cols[i] = cols[i][:-1] if rng.random() < 0.5 else cols[i] + [CellContent.empty()]
    return eps, widths, heights, cols


def _malformed_table(rng: random.Random, d: FreeSpaceDiagram1D) -> str:
    """The diagram's file with one defect of the table's grammar or shape,
    or one slab made malformed."""
    obj = json.loads(serialize(d))
    columns, intercepts = obj["columns"], obj["intercepts"]
    i = rng.randrange(len(columns))
    col = columns[i]
    defect = rng.randrange(9)
    if defect == 0:
        j = rng.randrange(len(col))
        columns[i] = col[:j] + rng.choice("xEP1 ") + col[j + 1 :]
    elif defect == 1:
        columns[i] = col[:-1] if rng.random() < 0.5 else col + "e"
    elif defect == 2:
        obj["intercepts"] = intercepts[:-1] if intercepts and rng.random() < 0.5 else intercepts + [0, 2]
    elif defect == 3 and intercepts:
        k = rng.randrange(len(intercepts))
        intercepts[k] += rng.choice([-1, 1])
    elif defect == 4 and intercepts:
        k = 2 * rng.randrange(len(intercepts) // 2)
        shift = rng.choice([-1, 1]) * (sum(obj["colWidths"]) + sum(obj["rowHeights"]) + 4 * obj["epsilon"])
        intercepts[k] += shift
        intercepts[k + 1] += shift
    elif defect == 5:
        del columns[i]
    elif defect == 6:
        obj["colWidths"][i] = rng.choice([0, -1])
    elif defect == 7:
        obj["epsilon"] = rng.choice([0, -obj["epsilon"]])
    else:
        columns[i] = col.replace("e", "f") if "e" in col else col.replace("f", "e")
    return json.dumps(obj)


def _error(build) -> str:
    try:
        build()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "built"


def test_problem_message_digest():
    diagrams = _message_corpus()
    assert len(diagrams) == 600
    answers = [[structural_problems(d), consistency_problems(d)] for d in diagrams]
    assert sum(bool(a[1]) for a in answers) > 100
    rng = random.Random(35)
    for d in diagrams:
        fields = _malformed_cells(rng, d)
        answers.append(_error(lambda: FreeSpaceDiagram1D.from_scaled(d.scale, *fields)))
    for d in diagrams:
        text = _malformed_table(rng, d)
        answers.append(_error(lambda: parse(text)))
    errors = answers[len(diagrams) :]
    assert sum(e.startswith("ValueError: invalid diagram") for e in errors) > 300
    assert sum(e.startswith("FormatError") for e in errors) > 300
    assert _sha256(answers) == PROBLEM_MESSAGE_DIGEST
