"""Figure 11 — execution-time improvement from auto-pipelining and
op fusion (paper section 6.1, 1.2-1.6x on FFT/SPMV/COVAR/SAXPY).

Our reproduction shows the gain on SPMV/COVAR/SAXPY/GEMM; our FFT is
dominated by in-place stage serialization plus memory bandwidth (see
EXPERIMENTS.md for the analysis), so fusion is roughly neutral there.
"""

from repro.api import evaluate
from repro.bench.configs import fusion_stack
from repro.bench.reporting import emit, format_table

NAMES = ["fft", "spmv", "covar", "saxpy", "gemm"]


def _run():
    rows = []
    speedups = {}
    for name in NAMES:
        base = evaluate(name)
        fused = evaluate(name, fusion_stack())
        speedup = base.time_us / fused.time_us
        speedups[name] = speedup
        details = fused.pass_log[0].details
        rows.append([name, base.cycles, fused.cycles,
                     details.get("chains", 0),
                     details.get("edges_debuffered", 0),
                     round(fused.cycles / base.cycles, 2),
                     round(speedup, 2)])
    return rows, speedups


def test_fig11_op_fusion(once):
    rows, speedups = once(_run)
    emit("fig11_op_fusion", format_table(
        ["bench", "base_cyc", "fused_cyc", "chains", "debuffered",
         "normalized_exe", "speedup"], rows,
        title="Figure 11: op-fusion / auto-pipelining "
              "(baseline = 1)"))

    # Paper band: 1.17-1.7x; our fusable workloads land 1.05-1.4x.
    for name in ("spmv", "covar", "saxpy", "gemm"):
        assert speedups[name] >= 1.04, (name, speedups[name])
        assert speedups[name] <= 2.0, (name, speedups[name])
    # FFT deviation is bounded (documented in EXPERIMENTS.md).
    assert speedups["fft"] >= 0.85, speedups["fft"]
