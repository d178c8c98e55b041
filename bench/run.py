#!/usr/bin/env python3
"""Seeded decision benchmark for fsreal.

    python3 bench/run.py --workload matrix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --compare OLD_OUT_DIR NEW_OUT_DIR

Run from any directory; the library is imported from the ``src`` directory
next to ``bench``. The last line of standard output is the JSON result. See
bench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if argv[:1] == ["--compare"]:
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "fsreal" / "__init__.py").is_file():
        print(f"error: no fsreal source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    # One caller, one process: pin BLAS (the discrete solver's co-occurrence
    # matmul) to one thread before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main(sys.argv[1:]))
