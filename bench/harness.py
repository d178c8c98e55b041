"""Measure one workload: set up, decide every case in closed loop, check.

One caller in one process decides the corpus one case at a time (closed
loop, no worker threads), in whole passes until the time is up. Per-decision
latency is process CPU time: the solvers are single-threaded and the machine
may be shared, so wall time of a call swings more than its CPU time.

Even CPU time swings by a fifth or more within seconds on a shared host (the
speed the host gives a vCPU wanders, and halves or doubles when another
tenant's work shares its core). So a reference chunk, a fixed piece of
pure-Python work, is timed on the same clocks before every call, and times
are reported in speed-scaled ms: a time over the median time of the chunks
around it, times REFERENCE_MS, the chunk's cost on this host when quiet. A
slower solver still reads slower; a slower host does not. Raw times
are kept in the result record. Each decision's cost is then its median over
the passes, and cold starts are spread between the passes. Every verdict is
checked against the case's label and every YES witness against forward
computation, outside the timed calls.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import fsreal
import fsreal.bruteforce
import fsreal.cli
import fsreal.discrete
import fsreal.folding
import fsreal.formats
import fsreal.forward
import fsreal.pseudopoly
from fsreal.model import FreeSpaceMatrix, Witness

import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SESSIONS = 2
SETUPS_PER_SESSION = 2
COLD_RUNS_PER_PASS = 2
# typical CPU ms of one reference_work() call on a 2.0 GHz Xeon vCPU under
# CPython 3.11; the scale of every speed-scaled time
REFERENCE_MS = 0.25
REFERENCE_CHUNKS = 9  # chunks on each side of a set-up
# wall ms of ``python -c "import numpy"`` on the same quiet host; the scale of
# cold starts
REFERENCE_START_MS = 200.0
REFERENCE_WINDOW = 8  # chunks on each side of a decision
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ADDR_NO_RANDOMIZE = 0x0040000

# solver names are the cli solve modes; looked up on the modules at call time
# so that the traced run sees its wrappers
SOLVERS = {
    corpus.DISCRETE: lambda instance: fsreal.discrete.solve(instance),
    corpus.FPT: lambda instance: fsreal.folding.solve_fpt(instance),
    corpus.DP: lambda instance: fsreal.pseudopoly.solve_pseudo_poly(instance),
}

E2E_UNITS = {
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "decisions_per_cpu_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}


class Failed:
    """Outcome of a call that raised."""

    def __init__(self, error: str):
        self.error = error


def reference_work() -> int:
    """Fixed work of the kinds the solvers do most (Fraction arithmetic,
    dict and list churn, a small JSON round trip); its cost tracks the speed
    the host gives this process. None of it runs library code."""
    table = {}
    total = 0
    for i in range(32):
        f = Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)
        table[i % 10] = f
        total += f.numerator
    doc = json.loads(json.dumps({"rows": [[i * j % 3 for j in range(5)] for i in range(8)], "eps": str(f)}))
    return total + len(sorted(table.values())) + len(doc["rows"])


def reference_chunk() -> tuple[int, int]:
    """Process-CPU and wall ns of one reference_work() call."""
    cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
    reference_work()
    return time.process_time_ns() - cpu0, time.perf_counter_ns() - wall0


def reference_ms(chunks: int = REFERENCE_CHUNKS) -> tuple[float, float]:
    """Median CPU and wall ms of ``chunks`` reference chunks."""
    cpu, wall = zip(*(reference_chunk() for _ in range(chunks)))
    return statistics.median(cpu) / 1e6, statistics.median(wall) / 1e6


def scaled(ms: float, reference: float) -> float:
    """Speed-scaled ms: ``ms`` measured while a reference chunk took
    ``reference`` ms."""
    return ms * REFERENCE_MS / reference


@dataclass
class Pass:
    """One pass over the corpus. Reference chunk k is timed just before
    decision k; the last one after the last decision. A single chunk is a
    noisy sample of the host's speed, so a decision is scaled by the median
    of the chunks within REFERENCE_WINDOW places of it."""

    outcomes: list
    cpu_ns: list[int]  # per decision
    wall_ns: list[int]
    ref_cpu_ns: list[int]  # one more than decisions
    ref_wall_ns: list[int]

    @staticmethod
    def _scaled_ms(times_ns, ref_ns) -> list[float]:
        out = []
        for k, ns in enumerate(times_ns):
            window = ref_ns[max(0, k - REFERENCE_WINDOW) : k + REFERENCE_WINDOW + 2]
            out.append(scaled(ns / 1e6, statistics.median(window) / 1e6))
        return out

    def scaled_cpu_ms(self) -> list[float]:
        return self._scaled_ms(self.cpu_ns, self.ref_cpu_ns)

    def scaled_wall_s(self) -> float:
        return sum(self._scaled_ms(self.wall_ns, self.ref_wall_ns)) / 1e3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong_verdicts: int = 0
    witness_failures: int = 0


def _call(decision: corpus.Decision):
    if decision.path is None:
        return SOLVERS[decision.mode](decision.case.instance)
    # the witness goes to standard output, which decide_pass captures: a
    # witness file created and deleted per call made the kernel's file
    # system work, and with it p50, grow by a fifth over consecutive runs
    argv = ["solve", "--mode", decision.mode, "--in", decision.path, "--witness", "-"]
    return fsreal.cli.main(argv)


def decide_pass(decisions, tracer=None) -> Pass:
    """Decide every case once, timing each call in process CPU and wall
    time between two reference chunks. A cli call's outcome is its exit
    code and what it printed (verdict, then witness)."""
    done = Pass([], [], [], [], [])
    for idx, decision in enumerate(decisions):
        ref_cpu, ref_wall = reference_chunk()
        done.ref_cpu_ns.append(ref_cpu)
        done.ref_wall_ns.append(ref_wall)
        scope = tracer.span("decision", idx) if tracer else nullcontext()
        printed = io.StringIO()
        with redirect_stdout(printed):
            cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
            try:
                with scope:
                    result = _call(decision)
            except Exception as exc:  # a raising solver is a failed decision, not a crash
                result = Failed(f"{type(exc).__name__}: {exc}")
            done.cpu_ns.append(time.process_time_ns() - cpu0)
            done.wall_ns.append(time.perf_counter_ns() - wall0)
        if decision.path is not None and not isinstance(result, Failed):
            result = (result, printed.getvalue())
        done.outcomes.append(result)
    ref_cpu, ref_wall = reference_chunk()
    done.ref_cpu_ns.append(ref_cpu)
    done.ref_wall_ns.append(ref_wall)
    return done


def reproduces(witness, instance) -> bool:
    """Forward computation of the witness curves gives the instance back."""
    if not isinstance(witness, Witness):
        return False
    if isinstance(instance, FreeSpaceMatrix):
        return fsreal.forward.compute_matrix(witness.curve_p, witness.curve_q, witness.epsilon) == instance
    return witness.epsilon == instance.epsilon and (
        fsreal.forward.compute_diagram_1d(witness.curve_p, witness.curve_q, instance.epsilon) == instance
    )


def check_pass(decisions, done: Pass, tally: Tally) -> None:
    """Count failed decisions, wrong verdicts and witnesses that do not
    reproduce their instance."""
    for decision, outcome in zip(decisions, done.outcomes):
        tally.attempted += 1
        witness = outcome
        if decision.path is not None and not isinstance(outcome, Failed):
            code, printed = outcome
            witness = None
            verdict_line, _, text = printed.partition("\n")
            if code == fsreal.cli.EXIT_YES and verdict_line == "YES":
                try:
                    witness = fsreal.formats.parse(text)
                except fsreal.formats.FormatError:
                    witness = Failed("unreadable witness")
            elif code != fsreal.cli.EXIT_NO or verdict_line != "NO":
                outcome = Failed(f"exit code {code}, printed {verdict_line!r}")
        if isinstance(outcome, Failed):
            tally.failed += 1
            print(f"failed: {decision.case.kind} {decision.mode}: {outcome.error}", file=sys.stderr)
            continue
        verdict = witness is not None
        if verdict != decision.case.label:
            tally.wrong_verdicts += 1
            print(f"wrong verdict: {decision.case.kind} {decision.mode}: {verdict}", file=sys.stderr)
        if verdict:
            try:
                ok = reproduces(witness, decision.case.instance)
            except (ValueError, TypeError, AttributeError):
                ok = False
            if not ok:
                tally.witness_failures += 1
                print(f"witness failure: {decision.case.kind} {decision.mode}", file=sys.stderr)


def set_up(workload: str, seed: int, workdir: Path):
    """Generate and label the corpus; clears the oracle's arrangement cache
    first, so every set-up pays for its labels."""
    fsreal.bruteforce.arrangements.cache_clear()
    return corpus.WORKLOADS[workload](seed, workdir)


def timed_set_up(workload: str, seed: int, workdir: Path):
    """``set_up`` and its speed-scaled CPU seconds."""
    before = reference_ms()[0]
    cpu0 = time.process_time()
    decisions = set_up(workload, seed, workdir)
    cpu_s = time.process_time() - cpu0
    return decisions, scaled(cpu_s, (before + reference_ms()[0]) / 2)


def _start_ms(cmd: list[str], env: dict) -> tuple[float, int]:
    """Wall ms and exit code of one subprocess run."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3, proc.returncode


def cold_starts(cmd: list[str], runs: int) -> list[float]:
    """Speed-scaled wall ms of sequential ``python -m fsreal.cli solve``
    runs; a run that does not answer YES reads as NaN.

    A fresh process spends its start mostly in imports and page faults,
    which follow the host's speed far less than the reference chunk does.
    So cold starts have a reference of their own: ``python -c "import
    numpy"``, run before the first cold start and after each one, and a cold
    start is scaled by the mean of the two around it, times
    REFERENCE_START_MS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    reference = [sys.executable, "-c", "import numpy"]
    times = []
    before, _ = _start_ms(reference, env)
    for _ in range(runs):
        wall_ms, code = _start_ms(cmd, env)
        after, _ = _start_ms(reference, env)
        ok = code == fsreal.cli.EXIT_YES
        times.append(wall_ms * REFERENCE_START_MS * 2 / (before + after) if ok else float("nan"))
        before = after
    return times


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fsreal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int, load_start: tuple) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "loadavg_start": list(load_start),
    }


def corpus_digest(decisions) -> str:
    h = hashlib.sha256()
    for d in decisions:
        inst = d.case.instance
        if isinstance(inst, FreeSpaceMatrix):
            body = inst.entries.tobytes() + repr(inst.entries.shape).encode()
        else:
            body = repr(inst).encode()
        h.update(f"{d.mode} {d.case.kind} {d.case.label} ".encode() + body)
    return h.hexdigest()


@contextmanager
def one_cpu():
    """Keep this process and its children on one CPU, so that the decisions,
    the reference chunks and the cold starts all run at the speed of the
    same vCPU; restores the CPU set on exit. Where the CPU set cannot be
    changed, the run goes on unpinned."""
    try:
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(saved)})
    except (AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def session(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One measuring process: set up SETUPS_PER_SESSION times (the last
    corpus is decided), then whole passes, each followed by its checks and
    by COLD_RUNS_PER_PASS cold starts, while another pass fits in
    ``seconds`` (at least one pass)."""
    setup_s, digests = [], set()
    for _ in range(SETUPS_PER_SESSION):
        decisions, cpu_s = timed_set_up(workload, seed, workdir)
        setup_s.append(cpu_s)
        digests.add(corpus_digest(decisions))
    gc.collect()
    gc.freeze()  # set-up garbage is not rescanned while timing
    fixture, mode = corpus.cold_start_fixture(workload, workdir)
    cold_cmd = [sys.executable, "-m", "fsreal.cli", "solve", "--mode", mode, "--in", fixture]
    tally, cold_ms = Tally(), []
    figures = {"scaled_cpu_ms": [], "scaled_wall_s": [], "raw_cpu_s": [], "raw_wall_s": []}
    start = last = time.perf_counter()
    while not cold_ms or 2 * time.perf_counter() - start - last <= seconds:
        last = time.perf_counter()
        done = decide_pass(decisions)
        check_pass(decisions, done, tally)
        # keep figures only: the outcomes of past passes would grow the heap
        # that the garbage collector scans during later passes
        figures["scaled_cpu_ms"].append(done.scaled_cpu_ms())
        figures["scaled_wall_s"].append(done.scaled_wall_s())
        figures["raw_cpu_s"].append(sum(done.cpu_ns) / 1e9)
        figures["raw_wall_s"].append(sum(done.wall_ns) / 1e9)
        del done
        cold_ms += cold_starts(cold_cmd, COLD_RUNS_PER_PASS)
    gc.unfreeze()
    return {
        "setup_s": setup_s,
        "digests": sorted(digests),
        **figures,
        "cold_ms": cold_ms,
        "tally": asdict(tally),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _fixed_layout() -> None:
    """In a child before exec: turn off address-space randomization for it
    and its children (Linux personality flag ADDR_NO_RANDOMIZE), so that
    every session lays out memory the same way. Without it the same seed
    read p50 a tenth apart from one run to the next. Elsewhere a no-op."""
    try:
        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def spawn_session(workload: str, seed: int, seconds: float, hash_seed: int) -> dict:
    """Run ``session`` in a fresh interpreter with a fixed hash seed and a
    fixed memory layout."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--session", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--fixed-seed", str(corpus.FIXED_SEED)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True, preexec_fn=_fixed_layout)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics and the correctness tally.

    The run is split over SESSIONS sequential processes with hash seeds
    0, 1, ... (one process decides at any time), so that neither the hash
    order inside the solvers nor the memory layout of one process weighs on
    every figure. Each decision's cost is its median speed-scaled CPU time
    over all passes of all sessions."""
    runs = [spawn_session(workload, seed, seconds / SESSIONS, k) for k in range(SESSIONS)]
    tally = Tally()
    for run in runs:
        for key, value in run["tally"].items():
            setattr(tally, key, getattr(tally, key) + value)
    passes = [p for run in runs for p in run["scaled_cpu_ms"]]
    decision_ms = [statistics.median(per_pass) for per_pass in zip(*passes)]
    cold_ms = [ms for run in runs for ms in run["cold_ms"]]
    metrics = {
        "decide_ms_p50": statistics.median(decision_ms),
        "decide_ms_p90": statistics.quantiles(decision_ms, n=10)[8],
        "decisions_per_cpu_s": len(decision_ms) / (sum(decision_ms) / 1e3),
        "wall_s": statistics.median(s for run in runs for s in run["scaled_wall_s"]),
        "setup_s": statistics.median(s for run in runs for s in run["setup_s"]),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "cold_start_ms": statistics.median(cold_ms),
    }
    return {
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()},
        "tally": tally,
        "checks": {
            "deterministic_setup": len({d for run in runs for d in run["digests"]}) == 1,
            "cold_start_yes": not any(map(math.isnan, cold_ms)),
        },
        "details": {
            "passes": len(passes),
            "decisions_per_pass": len(decision_ms),
            "setup_s_all": [s for run in runs for s in run["setup_s"]],
            "cold_start_ms_all": cold_ms,
            "raw_cpu_s_per_pass": [s for run in runs for s in run["raw_cpu_s"]],
            "raw_wall_s_per_pass": [s for run in runs for s in run["raw_wall_s"]],
        },
    }


def trace(workload: str, seed: int, workdir: Path) -> dict:
    """The traced run: per-layer metrics from one traced pass, bracketed by
    two untraced passes for the overhead; spans go to bench/out."""
    tracer = tracing.Tracer()
    with tracer.patched(tracing.SETUP_PATCHES), tracer.span("setup"):
        decisions = set_up(workload, seed, workdir)
    gc.collect()
    gc.freeze()
    tally = Tally()
    before = decide_pass(decisions)
    check_pass(decisions, before, tally)
    with tracer.patched(tracing.SOLVE_PATCHES):
        traced = decide_pass(decisions, tracer)
    check_pass(decisions, traced, tally)
    after = decide_pass(decisions)
    check_pass(decisions, after, tally)
    gc.unfreeze()

    values = tracer.layer_metrics()
    untraced = sum(before.scaled_cpu_ms()) + sum(after.scaled_cpu_ms())
    values["trace_overhead_share"] = 2 * sum(traced.scaled_cpu_ms()) / untraced
    units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
    span_file = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(span_file)
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "tally": tally,
        "checks": {},
        "details": {"spans": len(tracer.spans), "span_file": str(span_file)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsreal decision benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fixed-seed", type=int, default=0, help="seed of the forward-built strata (default 0)"
    )
    parser.add_argument("--session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not Path(fsreal.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fsreal imported from {fsreal.__file__}, not from {src}", file=sys.stderr)
        return 2
    corpus.FIXED_SEED = args.fixed_seed
    load_start = os.getloadavg()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.session:
            with one_cpu():
                print(json.dumps(session(args.workload, args.seed, args.seconds, workdir)))
            return 0
        if args.trace:
            with one_cpu():
                result = trace(args.workload, args.seed, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally: Tally = result.pop("tally")
    correct = tally.wrong_verdicts == 0 and tally.witness_failures == 0 and all(result["checks"].values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "fixed_seed": args.fixed_seed,
        "trace": args.trace,
        "env": environment(args.seed, load_start),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "wrong_verdicts": tally.wrong_verdicts,
        "witness_failures": tally.witness_failures,
        **result,
    }
    record_file = OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("env", "checks", "details")}))
    print(
        f"{args.workload} seed {args.seed}: {tally.attempted} decisions, failed {tally.failed}, "
        f"wrong verdicts {tally.wrong_verdicts}, witness failures {tally.witness_failures}; "
        f"record {record_file}"
    )
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if correct else 1
