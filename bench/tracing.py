"""Per-layer tracing for the decision benchmark.

The library has no stage hooks, so the traced run replaces the public stage
functions of each layer, at the names their callers look up, with wrappers
that record spans. Spans live in memory (name, start, end, parent, decision
id) and are written out when the run ends; self time is a span's duration
minus its direct child spans. Every patched attribute is restored on exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import fsreal.bruteforce
import fsreal.cli
import fsreal.discrete
import fsreal.folding
import fsreal.formats
import fsreal.forward
import fsreal.generators
import fsreal.pseudopoly

_D = fsreal.discrete
_F = fsreal.folding
_P = fsreal.pseudopoly

# (owner, attribute, span name). A function reached through several lookup
# sites is patched at each of them under one span name; forward calls are
# named after the layer that makes them.
SOLVE_PATCHES = [
    (_D, "solve", "discrete.solve"),
    (fsreal.cli, "solve_discrete", "discrete.solve"),
    (_D, "build_uig", "discrete.build_uig"),
    (_D.UnitIntervalGraph, "components", "discrete.UnitIntervalGraph.components"),
    (_D, "choose_left_anchor", "discrete.choose_left_anchor"),
    (_D, "bfs_partial_order", "discrete.bfs_partial_order"),
    (_D, "refine_by_d", "discrete.refine_by_d"),
    (_D, "refine_by_rows", "discrete.refine_by_rows"),
    (_D, "extend_global_order", "discrete.extend_global_order"),
    (_D, "build_arrangement", "discrete.build_arrangement"),
    (_D, "verify_and_witness", "discrete.verify_and_witness"),
    (_D, "compute_matrix", "forward.compute_matrix.by_discrete"),
    (_F, "solve_fpt", "folding.solve_fpt"),
    (fsreal.cli, "solve_fpt", "folding.solve_fpt"),
    (_F, "infer_creases", "folding.infer_creases"),
    (_F, "check_foldable", "folding.check_foldable"),
    (_F, "extract_curves", "folding.extract_curves"),
    (_F, "compute_diagram_1d", "forward.compute_diagram_1d.by_folding"),
    (_P, "solve_pseudo_poly", "pseudopoly.solve_pseudo_poly"),
    (fsreal.cli, "solve_pseudo_poly", "pseudopoly.solve_pseudo_poly"),
    (_P, "subdivide_and_type", "pseudopoly.subdivide_and_type"),
    (_P, "build_placement_graph", "pseudopoly.build_placement_graph"),
    (_P, "anchor_components", "pseudopoly.anchor_components"),
    (_P, "fixed_boundary_dp", "pseudopoly.fixed_boundary_dp"),
    (_P, "dp_extract_path", "pseudopoly.dp_extract_path"),
    (_P, "compute_diagram_1d", "forward.compute_diagram_1d.by_pseudopoly"),
    (_F, "structural_problems", "model.structural_problems"),
    (_P, "structural_problems", "model.structural_problems"),
    (fsreal.cli, "structural_problems", "model.structural_problems"),
    (_F, "consistency_problems", "model.consistency_problems"),
    (_P, "consistency_problems", "model.consistency_problems"),
    (fsreal.formats, "parse", "formats.parse"),
    (fsreal.formats, "serialize", "formats.serialize"),
    (fsreal.cli, "main", "cli.main"),
]

# set-up calls of the benchmark's corpus builders (they look these names up
# on the modules at call time)
SETUP_PATCHES = [
    (fsreal.generators, "gen_random_instance", "generators.gen_random_instance"),
    (fsreal.generators, "gen_partition", "generators.gen_partition"),
    (fsreal.generators, "has_balanced_partition", "generators.has_balanced_partition"),
    (fsreal.bruteforce, "realizable_row_families", "bruteforce.realizable_row_families"),
    (fsreal.bruteforce, "brute_force_continuous_1d", "bruteforce.brute_force_continuous_1d"),
    (fsreal.forward, "compute_matrix", "forward.compute_matrix.by_setup"),
    (fsreal.forward, "compute_diagram_1d", "forward.compute_diagram_1d.by_setup"),
]

SPAN_NAMES = sorted({name for _, _, name in SOLVE_PATCHES + SETUP_PATCHES})

# derived counts: name -> (unit, better)
COUNTS = {
    "discrete.components": ("count", "lower"),
    "discrete.anchor_useful_ratio": ("ratio", "higher"),
    "folding.k_max": ("count", "lower"),
    "folding.useful_ratio": ("ratio", "higher"),
    "pseudopoly.useful_ratio": ("ratio", "higher"),
    "model.consistency_reject_ratio": ("ratio", "higher"),
    "formats.bytes": ("bytes", "lower"),
}


class Tracer:
    """In-memory span recorder with the counters the derived ratios need."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, decision id]
        self.stack: list[int] = []
        self.decision = -1
        self.components = 0
        self.k_max = 0
        self.fpt_yes = 0
        self.dp_yes = 0
        self.consistency_rejects = 0
        self.format_bytes = 0

    def _observe(self, name: str, args, result) -> None:
        if name == "discrete.UnitIntervalGraph.components":
            self.components += len(result)
        elif name == "folding.infer_creases":
            self.k_max = max(self.k_max, result.k)
        elif name == "folding.solve_fpt":
            self.fpt_yes += result is not None
        elif name == "pseudopoly.solve_pseudo_poly":
            self.dp_yes += result is not None
        elif name == "model.consistency_problems":
            self.consistency_rejects += bool(result)
        elif name == "formats.parse":
            self.format_bytes += len(args[0])
        elif name == "formats.serialize":
            self.format_bytes += len(result)

    @contextmanager
    def _open(self, name: str):
        span = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.decision]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, fn, name: str):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self._open(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def patched(self, patches):
        """Install wrappers for ``patches``; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in patches:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, decision: int = -1):
        """A span opened by the benchmark itself (a decision or set-up)."""
        self.decision = decision
        try:
            with self._open(name):
                yield
        finally:
            self.decision = -1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the wrapped spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - child_ns[idx]) / 1e9)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers the workload does not reach read 0."""
        times = self.self_times()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, self_s = times.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s

        def ratio(num, den):
            return num / den if den else 0.0

        out["discrete.components"] = self.components
        out["discrete.anchor_useful_ratio"] = ratio(self.components, out["discrete.bfs_partial_order.calls"])
        out["folding.k_max"] = self.k_max
        out["folding.useful_ratio"] = ratio(self.fpt_yes, out["folding.check_foldable.calls"])
        out["pseudopoly.useful_ratio"] = ratio(self.dp_yes, out["forward.compute_diagram_1d.by_pseudopoly.calls"])
        out["model.consistency_reject_ratio"] = ratio(
            self.consistency_rejects, out["model.consistency_problems.calls"]
        )
        out["formats.bytes"] = self.format_bytes
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[n], start, end, parent, dec] for n, start, end, parent, dec in self.spans]
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "decision"], "names": names, "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in the order reported."""
    spec = []
    for name in SPAN_NAMES:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    spec.append({"name": "trace_overhead_share", "unit": "ratio", "better": "lower"})
    return spec
