"""Differential fuzz of the pseudo-polynomial solver at eps 2..20, where its
search over frame placements and hull extremes is widest (the acceptance
corpus of criterion 4 stays at eps <= 3).

Forward diagrams must all solve YES with a forward-verified witness, and
consistent mutated and partition diagrams must get the verdict of
``solve_fpt``. Run as a script to count false NOs and disagreements on
larger corpora of the same shapes; the script also runs ``solve_fpt`` on
the forward corpus, whose diagrams leave far more than 10 crease lines
unknown, and counts its false NOs, and it checks both solvers' verdicts on
the consistent corpus under the transforms of ``tests/test_symmetry.py``
(the transpose, P reversed, Q reversed and scaling by 3), counting each
verdict that changes. It exits 1 if there is any:

    PYTHONPATH=src python tests/test_fuzz_pseudopoly.py 600 1692
"""

import random
import sys

from fsreal import compute_diagram_1d, gen_partition, gen_random_instance, infer_creases, solve_fpt, solve_pseudo_poly
from fsreal.diagram import consistency_problems

from conftest import random_integer_diagram


def forward_diagrams(count: int, seed: int = 2024):
    """Realizable diagrams: n 5..40 and m 2..12 segments, steps <= 10, eps 2..20."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m, eps = rng.randint(5, 40), rng.randint(2, 12), rng.randint(2, 20)
        yield random_integer_diagram(rng.randrange(1 << 30), n, m, eps, max_step=10)


def consistent_diagrams(count: int, seed: int = 2025):
    """Mutated forward diagrams and partitions of items <= 30 that pass the
    grid-line consistency check and leave at most 10 crease lines unknown."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        if rng.random() < 0.7:
            diagram = gen_random_instance(
                rng.randrange(1 << 30),
                kind="diagram",
                n_points=rng.randint(3, 12),
                m_points=rng.randint(2, 8),
                max_coord=10,
                eps=rng.randint(2, 20),
                mutate=True,
            )
        else:
            diagram = gen_partition([rng.randint(1, 30) for _ in range(rng.randint(2, 9))])
        if consistency_problems(diagram) or infer_creases(diagram).k > 10:
            continue
        made += 1
        yield diagram


def _verified(diagram, witness) -> bool:
    return witness is not None and compute_diagram_1d(witness.curve_p, witness.curve_q, diagram.epsilon) == diagram


def test_forward_diagrams_solve_yes_with_verified_witness():
    for index, diagram in enumerate(forward_diagrams(100)):
        assert _verified(diagram, solve_pseudo_poly(diagram)), f"forward diagram {index}"


def test_consistent_diagrams_agree_with_fpt():
    for index, diagram in enumerate(consistent_diagrams(60)):
        witness = solve_pseudo_poly(diagram)
        assert witness is None or _verified(diagram, witness), f"consistent diagram {index}"
        assert (witness is not None) == (solve_fpt(diagram) is not None), f"consistent diagram {index}"


if __name__ == "__main__":
    n_forward, n_consistent = (int(arg) for arg in sys.argv[1:3])
    false_no = fpt_false_no = 0
    for d in forward_diagrams(n_forward):
        false_no += not _verified(d, solve_pseudo_poly(d))
        fpt_false_no += not _verified(d, solve_fpt(d))
    print(f"forward: {false_no} false NO of {n_forward}; solve_fpt: {fpt_false_no} false NO")
    from test_symmetry import p_reversed, q_reversed, scaled, transposed

    disagree = yes = changed = 0
    for d in consistent_diagrams(n_consistent):
        fpt = solve_fpt(d) is not None
        dp = solve_pseudo_poly(d) is not None
        yes += fpt
        disagree += dp != fpt
        for v in (transposed(d), p_reversed(d), q_reversed(d), scaled(d, 3)):
            changed += ((solve_fpt(v) is not None) != fpt) + ((solve_pseudo_poly(v) is not None) != dp)
    print(f"consistent: {disagree} disagreements with solve_fpt of {n_consistent} ({yes} realizable)")
    print(f"symmetries: {changed} verdicts changed of {8 * n_consistent} (4 transforms, 2 solvers)")
    sys.exit(1 if false_no or fpt_false_no or disagree or changed else 0)
