"""Mutation gate: every named mutant of the deciding code must fail a test.

Each entry of ``MUTANTS`` names a source file under ``src/``, an exact
snippet of it, the replacement, and the test files (or node ids) that must
catch the change. For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the one replacement
there, and runs ``pytest -x -q`` on the listed tests; the mutant is killed
when a test fails (pytest's exit code 1). A snippet that is not found exactly
once is an error, so a rewrite of the code cannot empty the table without
notice, and so is any other pytest exit code, such as a test id that no
longer exists. Stdlib only
(pytest runs in a subprocess); tier-1 does not collect this file. Run from
the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It exits 0 when every mutant is killed, 1 when one survives, and 2 on an
error: a missing or ambiguous snippet, an unknown name, or a pytest run that
neither passed nor failed a test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


BRUTE = "fsreal/bruteforce.py"
BRUTE_TESTS = ("tests/test_bruteforce.py",)
GOLDEN = "tests/test_golden_witnesses.py"
MODEL = "fsreal/model.py"

MUTANTS = [
    Mutant(
        "bruteforce-quantum-1",
        BRUTE,
        "width, delta = 8 * m, 2",
        "width, delta = 8 * m, 1",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-cover-open-left",
        BRUTE,
        "if c - eps <= x <= c + eps",
        "if c - eps < x <= c + eps",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-cover-open-right",
        BRUTE,
        "if c - eps <= x <= c + eps",
        "if c - eps <= x < c + eps",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-last-representative",
        BRUTE,
        "first_rep.setdefault(cover, rep)",
        "first_rep[cover] = rep",
        (f"{GOLDEN}::test_brute_discrete_witness_digest",),
    ),
    Mutant(
        "bruteforce-pattern-skipped",
        BRUTE,
        'raise RuntimeError(f"endpoint pattern {pattern} of {m} intervals did not materialize")',
        "continue",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-family-order-without-size",
        BRUTE,
        "key=lambda fam: (fam.bit_count(), -fam)",
        "key=lambda fam: -fam",
        (f"{GOLDEN}::test_row_family_digests",),
    ),
    Mutant(
        "bruteforce-continuous-offset-sign",
        BRUTE,
        "q0 = pre_p - sq[j0] * (cell0.c_lo + eps) - pre_q",
        "q0 = pre_p + sq[j0] * (cell0.c_lo + eps) - pre_q",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-all-full-off-centre",
        BRUTE,
        "q0 = max(p_pts) + min(p_pts) - max(q_rel) - min(q_rel)",
        "q0 = max(p_pts) + min(p_pts) - max(q_rel) - min(q_rel) + 1",
        (f"{GOLDEN}::test_brute_continuous_witness_digest",),
    ),
    Mutant(
        "bruteforce-inverse-column-order",
        BRUTE,
        "centers[col] = centers_sorted[slot]",
        "centers[slot] = centers_sorted[col]",
        BRUTE_TESTS,
    ),
    Mutant(
        "bruteforce-outside-cell-half-a-width-out",
        BRUTE,
        "reps = [events[0] - 2 * eps]",
        "reps = [events[0] - eps]",
        BRUTE_TESTS,
    ),
    # the diagram's letter table
    Mutant(
        "classify-column-empty-at-the-top-corner",
        "fsreal/forward.py",
        "if c_lo > h or c_hi < -w:",
        "if c_lo >= h or c_hi < -w:",
        ("tests/test_forward.py::test_diagram_cells_match_fraction_reference",),
    ),
    Mutant(
        "classify-column-full-short-of-the-box",
        "fsreal/forward.py",
        "elif c_lo <= 0 and c_hi >= w + h:",
        "elif c_lo <= 0 and c_hi > w + h:",
        ("tests/test_forward.py::test_diagram_cells_match_fraction_reference",),
    ),
    Mutant(
        "grid-line-clip-open",
        MODEL,
        "hi if hi < h else h\n                edge_a = (lo, hi) if lo <= hi else None",
        "hi if hi < h else h\n                edge_a = (lo, hi) if lo < hi else None",
        ("tests/test_model.py::test_grid_line_check_matches_every_line_compared",),
    ),
    Mutant(
        "structural-slab-width-unchecked",
        MODEL,
        "if hi - lo != 2 * eps:",
        "if False:",
        ("tests/test_model.py::test_validate_slab_width", f"{GOLDEN}::test_problem_message_digest"),
    ),
    Mutant(
        "transpose-flip-without-sign",
        MODEL,
        "row_ints[j] += (-hi, -lo)",
        "row_ints[j] += (hi, lo)",
        ("tests/test_symmetry.py::test_verdicts_hold_under_the_diagram_symmetries_on_the_fuzz_corpora",),
    ),
    Mutant(
        "plain-segment-all-full-typed-boundary",
        "fsreal/pseudopoly.py",
        "TYPE_CLOSE if not notfull else TYPE_BOUNDARY))]",
        "TYPE_BOUNDARY if not notfull else TYPE_BOUNDARY))]",
        ("tests/test_pseudopoly.py::test_typing_all_full",),
    ),
]


def _mutated(mutant: Mutant) -> str:
    """The mutant's file with its one replacement, or LookupError."""
    text = (ROOT / "src" / mutant.file).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise LookupError(f"{mutant.name}: snippet found {count} times in src/{mutant.file}: {mutant.snippet!r}")
    return text.replace(mutant.snippet, mutant.replacement)


def _pytest_exit_code(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's tests, on a copy of the tree with
    the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="fsreal-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
        (tree / "src" / mutant.file).write_text(_mutated(mutant))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else MUTANTS
    # every snippet is checked before any test runs
    try:
        for mutant in chosen:
            _mutated(mutant)
    except LookupError as exc:
        print(exc, file=sys.stderr)
        return 2
    codes = []
    for mutant in chosen:
        start = time.monotonic()
        code = _pytest_exit_code(mutant)
        codes.append(code)
        outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit code {code})")
        print(f"{outcome:8} {mutant.name} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{codes.count(1)} of {len(chosen)} mutants killed")
    if any(code not in (0, 1) for code in codes):
        return 2
    return 1 if 0 in codes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
