"""Batched simulation: lane identity, deopt, and error isolation.

The batched driver's contract is the repo's usual one — per-lane
results and memory bit-identical to N independent event-kernel runs —
plus its own machinery: uniform-control vectorization with deopt on
lane-divergent control, the enforced scalar fallback under fault
plans, per-lane failure isolation with batch-aware error documents,
and a numpy fast path that must agree bit-for-bit with the pure-Python
lane loop.
"""

import os
import random

import pytest

from repro.core.lanes import (LaneValues, have_numpy, lane_fingerprint,
                              numpy_note)
from repro.errors import LaneDivergence
from repro.frontend import compile_minic, translate_module
from repro.frontend.interp import Memory
from repro.sim import SimParams, simulate, simulate_batch
from repro.sim.faults import FaultPlan
from repro.sim.stats import SimStats
from repro.workloads import WORKLOADS

FAST_MATRIX = ["saxpy", "stencil", "fib", "dense8", "softm8", "relu_t"]
SLOW_MATRIX = [name for name in WORKLOADS if name not in FAST_MATRIX]
full_matrix = pytest.mark.skipif(
    not os.environ.get("RUN_FULL_MATRIX"),
    reason="set RUN_FULL_MATRIX=1 to run the full workload matrix")


def _perturb_floats(mem, rng) -> None:
    """Type-preserving per-lane input variation.  Floats only: integer
    words may be loop bounds or index-array entries, and corrupting
    those breaks the *workload*, not the batching."""
    for i, v in enumerate(mem.words):
        if type(v) is float and rng.random() < 0.4:
            mem.words[i] = float(rng.randrange(-50, 50))


def _lanes_for(name: str, n: int, seed: int = 7):
    w = WORKLOADS[name]
    rng = random.Random(seed)
    lanes = []
    for _ in range(n):
        mem = w.fresh_memory()
        _perturb_floats(mem, rng)
        lanes.append(mem)
    return lanes


def _check_identity(name: str, n: int, kernel: str = "compiled",
                    expect_mode: str = "vectorized") -> None:
    """Batch of N vs N independent event-kernel runs, bit-for-bit."""
    w = WORKLOADS[name]
    circuit = translate_module(w.module(), name=f"{name}_batch")
    args = list(w.args_for())
    lanes = _lanes_for(name, n)
    refs = []
    for mem in lanes:
        ref_mem = w.fresh_memory()
        ref_mem.words[:] = mem.words
        result = simulate(circuit, ref_mem, args, SimParams())
        refs.append((result.cycles, list(result.results),
                     list(ref_mem.words)))
    batch = simulate_batch(circuit, lanes, [args] * n,
                           SimParams(kernel=kernel))
    assert batch.ok, batch.errors
    assert batch.mode == expect_mode
    for i in range(n):
        assert batch.results[i].cycles == refs[i][0], f"lane {i} cycles"
        assert list(batch.results[i].results) == refs[i][1], \
            f"lane {i} results"
        assert lanes[i].words == refs[i][2], f"lane {i} memory"


class TestLaneIdentity:
    @pytest.mark.parametrize("name", FAST_MATRIX)
    def test_batched_matches_independent_runs(self, name):
        _check_identity(name, 4)

    @pytest.mark.slow
    @full_matrix
    @pytest.mark.parametrize("name", SLOW_MATRIX)
    def test_batched_matches_independent_runs_slow(self, name):
        _check_identity(name, 4)

    def test_event_kernel_also_batches(self):
        _check_identity("saxpy", 4, kernel="event")

    def test_single_lane_goes_sequential(self):
        _check_identity("saxpy", 1, expect_mode="sequential")

    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_numpy_and_pure_python_agree(self, monkeypatch):
        # Above the lane threshold the numpy fast path engages; with
        # the escape hatch set, the same run uses the list loop.  Both
        # must match the independent scalar runs bit-for-bit, which
        # _check_identity asserts.
        _check_identity("gemm", 12)
        monkeypatch.setenv("REPRO_BATCH_NO_NUMPY", "1")
        assert not have_numpy()
        _check_identity("gemm", 12)

    def test_capability_note(self, monkeypatch):
        if have_numpy():
            assert numpy_note() is None
        monkeypatch.setenv("REPRO_BATCH_NO_NUMPY", "1")
        note = numpy_note()
        assert note is not None and "numpy" in note


class TestControlDivergence:
    def test_divergent_control_deopts_and_stays_identical(self):
        # Per-lane trip counts differ -> the loop bound is
        # lane-divergent control -> the vectorized attempt must deopt,
        # and the sequential re-run must still be bit-identical.
        source = """
array out: i32[4];
func main(n: i32) {
  var s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + i;
  }
  out[0] = s;
}
"""
        module = compile_minic(source, filename="diverge.mc")
        circuit = translate_module(module, name="diverge")
        args_lanes = [[3], [5], [9]]
        refs = []
        for a in args_lanes:
            mem = Memory(module)
            result = simulate(circuit, mem, a, SimParams())
            refs.append((result.cycles, list(mem.words)))
        lanes = [Memory(module) for _ in args_lanes]
        batch = simulate_batch(circuit, lanes, args_lanes,
                               SimParams(kernel="compiled"))
        assert batch.mode == "deopt"
        assert batch.deopt["error"] == "LaneDivergence"
        assert batch.ok
        for i, (cycles, words) in enumerate(refs):
            assert batch.results[i].cycles == cycles
            assert lanes[i].words == words

    def test_divergent_payload_stays_vectorized(self):
        # Divergent *data* (not control) must not deopt.
        source = """
array out: i32[4];
func main(a: i32) {
  out[0] = a * a + 1;
}
"""
        module = compile_minic(source, filename="payload.mc")
        circuit = translate_module(module, name="payload")
        lanes = [Memory(module) for _ in range(3)]
        batch = simulate_batch(circuit, lanes, [[2], [5], [11]],
                               SimParams(kernel="compiled"))
        assert batch.mode == "vectorized"
        assert [m.words[0] for m in lanes] == [5, 26, 122]

    def test_lane_values_bool_raises_on_divergence(self):
        with pytest.raises(LaneDivergence):
            bool(LaneValues([True, False, True]))
        assert bool(LaneValues([True, True])) is True
        # True vs 1 is a *class* divergence: repr-identity would break.
        with pytest.raises(LaneDivergence):
            int(LaneValues([True, 1]))


class TestErrorIsolation:
    def test_failed_lane_reports_index_and_fingerprint(self):
        # Lane 1 divides by zero; lanes 0 and 2 must complete and the
        # error document must carry the lane index and its input
        # fingerprint.
        source = """
array out: i32[4];
func main(a: i32, b: i32) {
  out[0] = a / b;
}
"""
        module = compile_minic(source, filename="divz.mc")
        circuit = translate_module(module, name="divz")
        args_lanes = [[8, 2], [8, 0], [9, 3]]
        lanes = [Memory(module) for _ in args_lanes]
        before = list(lanes[1].words)
        batch = simulate_batch(circuit, lanes, args_lanes,
                               SimParams(kernel="compiled"))
        assert not batch.ok
        assert batch.results[0] is not None and lanes[0].words[0] == 4
        assert batch.results[2] is not None and lanes[2].words[0] == 3
        err = batch.errors[1]
        assert batch.results[1] is None
        assert err["lane"] == 1
        assert err["error"] == "SimulationError"
        assert err["input_fingerprint"] == \
            lane_fingerprint(args_lanes[1], before)
        assert batch.errors[0] is None and batch.errors[2] is None

    def test_fault_plan_forces_sequential(self):
        # Satellite policy: an active fault plan runs lanes scalar
        # (per-lane LI identity is the fuzzer's job; the driver's job
        # is to never vectorize under faults).
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_faults")
        lanes = [w.fresh_memory() for _ in range(3)]
        plan = FaultPlan.generate(1)
        batch = simulate_batch(circuit, lanes,
                               [list(w.args_for())] * 3,
                               SimParams(kernel="compiled",
                                         faults=plan))
        assert batch.mode == "sequential"
        assert batch.ok
        w.verify(lanes[0])


class TestBatchStats:
    def test_stats_round_trip_with_batch(self):
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_stats")
        lanes = [w.fresh_memory() for _ in range(3)]
        batch = simulate_batch(circuit, lanes,
                               [list(w.args_for())] * 3,
                               SimParams(kernel="compiled"))
        doc = batch.stats.to_json()
        assert doc["batch"] == {"lanes": 3, "mode": "vectorized",
                                "lane_cycles": batch.stats.lane_cycles}
        back = SimStats.from_json(doc)
        assert back.batch_lanes == 3
        assert back.batch_mode == "vectorized"
        assert back.lane_cycles == batch.stats.lane_cycles

    def test_scalar_stats_document_unchanged(self):
        # The v3 round-trip must not grow a "batch" key on scalar runs.
        w = WORKLOADS["saxpy"]
        circuit = translate_module(w.module(), name="saxpy_scalar")
        mem = w.fresh_memory()
        result = simulate(circuit, mem, list(w.args_for()), SimParams())
        doc = result.stats.to_json()
        assert "batch" not in doc
        assert SimStats.from_json(doc).batch_lanes == 0

    def test_merged_aggregates(self):
        a, b = SimStats(), SimStats()
        a.cycles, b.cycles = 10, 25
        a.memory_reads, b.memory_reads = 3, 4
        a.invocations["main"] = 1
        b.invocations["main"] = 2
        merged = SimStats.merged([a, b])
        assert merged.cycles == 25
        assert merged.memory_reads == 7
        assert merged.invocations["main"] == 3
        assert SimStats.merged([]).cycles == 0


class TestEvaluateMany:
    def test_pipeline_evaluate_many_verifies_lanes(self):
        from repro import Pipeline
        pipe = Pipeline("saxpy")
        batch = pipe.evaluate_many(
            params=SimParams(kernel="compiled", batch=3))
        assert batch.ok
        assert batch.verified == [True, True, True]
        assert batch.mode == "vectorized"

    def test_lane_failing_verification_fails_only_itself(self,
                                                           monkeypatch):
        # Force the reference of the n=64 lane to diverge: that lane
        # carries the verification error, the other one stays ok, and
        # the request as a whole still answers.
        from repro.api import execute
        from repro.api.requests import EvaluationRequest
        from repro.workloads import Workload
        golden = Workload.golden

        def diverging(self, variant="base", args=None):
            mem = golden(self, variant, args)
            if args is not None and args[0] == 64:
                mem.write(mem.base["y"], 1e9)
            return mem

        monkeypatch.setattr(Workload, "golden", diverging)
        resp = execute(EvaluationRequest(
            workload="saxpy", args_list=((128, 3.0), (64, 3.0))))
        assert resp.status == "ok"
        good, bad = resp.lanes
        assert good["verified"] is True
        assert bad["lane"] == 1
        assert bad["error"]["lane"] == 1
        assert "array 'y' mismatch" in bad["error"]["message"]
        assert bad["error"]["input_fingerprint"]

    def test_module_pipeline_per_lane_args(self):
        from repro import Pipeline
        source = """
array out: i32[4];
func main(a: i32, b: i32) {
  out[0] = a * b + 1;
}
"""
        pipe = Pipeline(source, name="mul")
        batch = pipe.evaluate_many([[2, 3], [4, 5], [6, 7]],
                                   SimParams(kernel="compiled"))
        assert batch.ok and batch.verified == [True, True, True]
        assert batch.mode == "vectorized"
