"""``--compare A B``: set two sets of benchmark records side by side.

A and B are result files written by the benchmark (bench/out/result-*.json)
or directories holding them. Records are grouped by workload; each metric is
the median over the records of a side. Printed per workload: every
end-to-end metric and every per-layer ``.self_s``, as A, B and B/A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _records(path: str) -> dict[str, list[dict]]:
    root = Path(path)
    files = sorted(root.glob("result-*.json")) if root.is_dir() else [root]
    grouped: dict[str, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _medians(records: list[dict]) -> dict[str, tuple[float, str, int]]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            if record["trace"] and not name.endswith(".self_s"):
                continue
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: (statistics.median(v), units[name], len(v)) for name, v in values.items()}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py --compare A B   (result files or directories of them)", file=sys.stderr)
        return 2
    side_a, side_b = (_records(p) for p in argv)
    if not side_a or not side_b:
        print("error: no benchmark records found", file=sys.stderr)
        return 2
    for workload in sorted(set(side_a) | set(side_b)):
        med_a = _medians(side_a.get(workload, []))
        med_b = _medians(side_b.get(workload, []))
        print(f"== {workload}: A = {argv[0]}, B = {argv[1]}")
        print(f"{'metric':58s} {'A':>12s} {'B':>12s} {'B/A':>7s}  base")
        for name in sorted(set(med_a) | set(med_b), key=lambda n: (n.endswith(".self_s"), n)):
            a, unit, runs_a = med_a.get(name, (float("nan"), "", 0))
            b, unit_b, runs_b = med_b.get(name, (float("nan"), unit, 0))
            ratio = b / a if a else float("nan")
            print(
                f"{name:58s} {a:12.5g} {b:12.5g} {ratio:7.3f}  "
                f"A = {a:.5g} {unit or unit_b} (median of {runs_a} vs {runs_b} runs)"
            )
    return 0
