"""Tests for the workload suite: golden results against independent
Python references, and full interp==sim equivalence per workload."""

import math

import pytest

from repro.errors import WorkloadError
from repro.frontend import translate_module
from repro.sim import simulate
from repro.workloads import WORKLOADS, get_workload, workload_names
from repro.workloads import polybench, tensor_apps


class TestRegistry:
    def test_all_nineteen_present(self):
        assert set(WORKLOADS) == {
            "gemm", "covar", "fft", "spmv", "2mm", "3mm",
            "fib", "msort", "saxpy", "stencil", "img_scale",
            "conv", "dense8", "dense16", "softm8", "softm16",
            "relu_t", "2mm_t", "conv_t"}

    def test_categories(self):
        assert len(workload_names("polybench")) == 6
        assert len(workload_names("cilk")) == 5
        assert len(workload_names("tensorflow")) == 5
        assert len(workload_names("inhouse")) == 3

    def test_unknown_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("quicksort3000")

    def test_tensor_variants_exist(self):
        for name in ("relu_t", "2mm_t", "conv_t"):
            assert "tensor" in get_workload(name).variants


class TestGoldenAgainstPython:
    """Cross-check the interpreter goldens with plain-Python math."""

    def test_gemm(self):
        w = get_workload("gemm")
        gold = w.golden()
        n = polybench.GEMM_N
        a, b = gold.get_array("A"), gold.get_array("B")
        c = gold.get_array("C")
        for i in range(n):
            for j in range(n):
                want = sum(a[i * n + k] * b[k * n + j]
                           for k in range(n))
                assert c[i * n + j] == pytest.approx(want)

    def test_fft_matches_dft(self):
        w = get_workload("fft")
        gold = w.golden()
        n = polybench.FFT_N
        # Reconstruct the original (bit-reversed) input.
        fresh = w.fresh_memory()
        re_in = fresh.get_array("re")
        bits = polybench.FFT_STAGES

        def rev(i):
            out = 0
            for b in range(bits):
                out = (out << 1) | ((i >> b) & 1)
            return out

        x = [re_in[rev(i)] for i in range(n)]
        re, im = gold.get_array("re"), gold.get_array("im")
        for k in range(0, n, 7):
            want = sum(x[t] * complex(math.cos(-2 * math.pi * k * t / n),
                                      math.sin(-2 * math.pi * k * t / n))
                       for t in range(n))
            assert re[k] == pytest.approx(want.real, abs=1e-6)
            assert im[k] == pytest.approx(want.imag, abs=1e-6)

    def test_fib(self):
        gold = get_workload("fib").golden()
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)
        assert gold.get_array("res")[0] == fib(12)

    def test_msort_sorts(self):
        w = get_workload("msort")
        gold = w.golden()
        inp = w.fresh_memory().get_array("arr")
        assert gold.get_array("arr") == sorted(inp)

    def test_saxpy(self):
        w = get_workload("saxpy")
        gold = w.golden()
        fresh = w.fresh_memory()
        x, y0 = fresh.get_array("x"), fresh.get_array("y")
        for got, xi, yi in zip(gold.get_array("y"), x, y0):
            assert got == pytest.approx(2.5 * xi + yi)

    def test_softmax_sums_to_one(self):
        for name in ("softm8", "softm16"):
            gold = get_workload(name).golden()
            probs = gold.get_array("probs")
            assert sum(probs) == pytest.approx(1.0, abs=1e-6)
            assert all(p > 0 for p in probs)

    def test_dense_relu_nonnegative(self):
        gold = get_workload("dense8").golden()
        assert all(v >= 0 for v in gold.get_array("outp"))

    def test_conv_t_variants_agree(self):
        # The scalar and tensor sources compute the same values.
        w = get_workload("conv_t")
        scalar = w.golden("base").get_array("ys")
        tensor = w.golden("tensor").get_array("ys")
        flat = [v for tile in tensor for v in tile]
        assert all(a == pytest.approx(b)
                   for a, b in zip(scalar, flat))

    def test_2mm_t_variants_agree(self):
        w = get_workload("2mm_t")
        scalar = w.golden("base").get_array("C")
        tensor = w.golden("tensor")
        flat = [v for tile in tensor.get_array("C") for v in tile]
        assert all(a == pytest.approx(b)
                   for a, b in zip(scalar, flat))

    def test_verify_catches_corruption(self):
        w = get_workload("saxpy")
        mem = w.golden()
        mem.write(mem.base["y"], 1e9)
        with pytest.raises(WorkloadError):
            w.verify(mem)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_equivalence(name):
    """Every workload: baseline uIR simulation matches the interpreter."""
    w = get_workload(name)
    circuit = translate_module(w.module())
    mem = w.fresh_memory()
    simulate(circuit, mem, list(w.args))
    w.verify(mem)


@pytest.mark.parametrize("name", ["relu_t", "2mm_t", "conv_t"])
def test_tensor_variant_equivalence(name):
    w = get_workload(name)
    circuit = translate_module(w.module("tensor"))
    mem = w.fresh_memory("tensor")
    simulate(circuit, mem, list(w.args_for("tensor")))
    w.verify(mem, "tensor")


class TestVerifyReference:
    """``Workload.verify`` checks against a reference run with the
    arguments that produced the memory; the default-argument reference
    is computed once per variant."""

    @staticmethod
    def _count_interpreter_runs(monkeypatch):
        from repro.frontend.interp import Interpreter
        calls = []
        orig = Interpreter.run

        def counted(interp, *args):
            calls.append(args)
            return orig(interp, *args)

        monkeypatch.setattr(Interpreter, "run", counted)
        return calls

    def test_non_default_args_verify(self):
        from repro.api import evaluate
        ev = evaluate("saxpy", args=[256, 3.0])
        assert ev.verified is True

    def test_reference_follows_the_recorded_args(self):
        # The simulator records the run's arguments on the memory; an
        # image without them is checked against the default arguments,
        # which a=3.0 does not match.
        w = get_workload("saxpy")
        circuit = translate_module(w.module())
        mem = w.fresh_memory()
        simulate(circuit, mem, [256, 3.0])
        assert mem.root_args == (256, 3.0)
        w.verify(mem)
        mem.root_args = None
        with pytest.raises(WorkloadError, match="array 'y' mismatch"):
            w.verify(mem)

    def test_second_verify_runs_no_interpreter(self, monkeypatch):
        w = get_workload("fib")
        circuit = translate_module(w.module())
        mem = w.fresh_memory()
        simulate(circuit, mem, list(w.args))
        w.verify(mem)
        calls = self._count_interpreter_runs(monkeypatch)
        w.verify(mem)
        w.verify(w.golden())
        assert len(calls) == 1      # only golden() above

    def test_memo_hit_still_catches_corruption(self):
        w = get_workload("saxpy")
        circuit = translate_module(w.module())
        mem = w.fresh_memory()
        simulate(circuit, mem, list(w.args))
        w.verify(mem)
        mem.write(mem.base["y"] + 17, mem.read(mem.base["y"] + 17) + 1.0)
        with pytest.raises(WorkloadError, match="array 'y' mismatch"):
            w.verify(mem)

    def test_non_default_args_rerun_and_keep_the_memo(self, monkeypatch):
        w = get_workload("saxpy")
        w.verify(w.golden())
        calls = self._count_interpreter_runs(monkeypatch)
        w.verify(w.golden(args=(128, 4.0)))
        assert len(calls) == 2      # golden() above + verify's reference
        del calls[:]
        w.verify(w.golden())
        assert len(calls) == 1      # only golden() above
