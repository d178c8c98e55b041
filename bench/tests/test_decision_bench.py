"""Tests of the decision benchmark itself: labels, checks and tracing."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fsreal  # noqa: E402
from fsreal.bruteforce import brute_force_continuous_1d, brute_force_discrete_1d  # noqa: E402
from fsreal.model import FreeSpaceMatrix, PointSeq1D, Witness  # noqa: E402

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


def _reproduces_curves(case) -> bool:
    p, q, eps = case.curves
    if isinstance(case.instance, FreeSpaceMatrix):
        return fsreal.compute_matrix(list(p), list(q), eps) == case.instance
    return fsreal.compute_diagram_1d(p, q, eps) == case.instance


def test_labels_agree_with_oracles():
    rng = random.Random(3)
    for case in corpus.random_matrices(rng, 12):
        assert case.label == (brute_force_discrete_1d(case.instance) is not None)
    for case in corpus.partition_diagrams(rng, range(3, 6), range(3, 6)):
        assert case.label == (brute_force_continuous_1d(case.instance) is not None)
    for case in corpus.mutated_diagrams(rng, 6):
        assert case.label == (brute_force_continuous_1d(case.instance) is not None)
    forward = corpus.round_trip_matrices(rng, 4) + corpus.forward_diagrams(rng, 6) + corpus.long_diagrams(rng, 2)
    for case in forward:
        assert case.label and _reproduces_curves(case)


def _fixture_workload(seed, workdir):
    yes = corpus.Case("fixture", FreeSpaceMatrix([[1, 0], [1, 1], [0, 1]]), True)
    no = corpus.Case("fixture", FreeSpaceMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), False)
    return [corpus.Decision(yes, corpus.DISCRETE), corpus.Decision(no, corpus.DISCRETE)]


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setitem(corpus.WORKLOADS, "matrix", _fixture_workload)
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(harness, "COLD_RUNS_PER_PASS", 1)

    def in_process(workload, seed, seconds, hash_seed):
        # sessions run here, so the solver a test injects is the one timed
        return json.loads(json.dumps(harness.session(workload, seed, seconds, tmp_path / f"work{hash_seed}")))

    monkeypatch.setattr(harness, "spawn_session", in_process)

    def run(trace=0):
        code = harness.main(["--workload", "matrix", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
        record = json.loads((tmp_path / f"result-matrix-trace{trace}-seed1.json").read_text())
        return code, record

    return run


def test_correct_solver_passes(tiny_bench):
    code, record = tiny_bench()
    assert code == 0
    assert (record["attempted"], record["wrong_verdicts"], record["witness_failures"]) == (2 * harness.SESSIONS, 0, 0)


def test_flipped_verdict_is_caught(tiny_bench, monkeypatch):
    def flip(instance):
        witness = fsreal.discrete.solve(instance)
        return None if witness is not None else witness

    monkeypatch.setitem(harness.SOLVERS, corpus.DISCRETE, flip)
    code, record = tiny_bench()
    assert code != 0 and not record["correct"]
    assert (record["wrong_verdicts"], record["witness_failures"]) == (harness.SESSIONS, 0)


def test_corrupt_witness_is_caught(tiny_bench, monkeypatch):
    def corrupt(instance):
        witness = fsreal.discrete.solve(instance)
        if witness is None:
            return None
        q = [x + Fraction(1000) if k == 0 else x for k, x in enumerate(witness.curve_q.points)]
        return Witness(witness.curve_p, PointSeq1D(q), witness.epsilon)

    monkeypatch.setitem(harness.SOLVERS, corpus.DISCRETE, corrupt)
    code, record = tiny_bench()
    assert code != 0 and not record["correct"]
    assert (record["wrong_verdicts"], record["witness_failures"]) == (0, harness.SESSIONS)


def _patched_now():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in tracing.SOLVE_PATCHES + tracing.SETUP_PATCHES}


def test_trace_restores_every_patched_attribute(tiny_bench):
    before = _patched_now()
    code, record = tiny_bench(trace=1)
    assert code == 0
    after = _patched_now()
    assert all(after[key] is before[key] for key in before)
    assert record["metrics"]["discrete.solve.calls"]["value"] == 2
    assert record["metrics"]["trace_overhead_share"]["value"] > 0

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracing.SOLVE_PATCHES):
            assert fsreal.discrete.build_uig is not before[(id(fsreal.discrete), "build_uig")]
            raise RuntimeError("body failed")
    assert all(_patched_now()[key] is before[key] for key in before)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
