"""Golden digest of the diagram solvers' answers.

The sha256 of the serialized witnesses (null for NO) that ``solve_pseudo_poly``
and ``solve_fpt`` return on a small seeded corpus. A refactor that keeps
verdicts and witnesses byte-identical keeps both digests; a change that
alters a witness on purpose must say so and update the digest here.
"""

import hashlib
import json
import random

from fsreal import gen_random_instance, infer_creases, solve_fpt, solve_pseudo_poly
from fsreal.formats import serialize

from test_fuzz_pseudopoly import consistent_diagrams, forward_diagrams

# 400 diagrams, 267 of them past the consistency check: pseudo-poly answers
# 218 YES; FPT runs on the 380 with k <= 10 and answers 201 YES
PSEUDO_POLY_DIGEST = "ca3d76278117493a408b0822ef790289f20f6782c033fb8c7984a0876170bfbd"
FPT_DIGEST = "c0d64d2038d869dd70be47c1f46bffeeba89376e335f236ac3143e2ff0d6325c"


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


def _digest(solve, diagrams) -> str:
    answers = [None if w is None else serialize(w) for w in map(solve, diagrams)]
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def test_witness_digests():
    diagrams = list(_corpus())
    assert len(diagrams) == 400
    assert _digest(solve_pseudo_poly, diagrams) == PSEUDO_POLY_DIGEST
    # FPT tries 2^k crease assignments, so keep it to diagrams with k <= 10
    assert _digest(solve_fpt, [d for d in diagrams if infer_creases(d).k <= 10]) == FPT_DIGEST
