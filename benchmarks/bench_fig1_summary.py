"""Figure 1 (headline plot) — representative per-pass gains.

The paper's teaser quotes Op Fusion 1.4x, Task Tiling 6.0x, Tensor
Intrinsics 8.5x, Locality 1.5x.  This bench reproduces the same four
bars from representative workloads.
"""

from repro.api import evaluate
from repro.bench.configs import (
    fusion_stack,
    localization_stack,
    tiling_stack,
)
from repro.bench.reporting import emit, format_table


def _run():
    bars = {}

    base = evaluate("covar")
    fused = evaluate("covar", fusion_stack())
    bars["op_fusion (covar)"] = base.time_us / fused.time_us

    base = evaluate("fib", localization_stack(4))
    tiled = evaluate("fib", localization_stack(4) + tiling_stack(8))
    bars["task_tiling (fib, 8T)"] = base.time_us / tiled.time_us

    base = evaluate("2mm_t")
    tensor = evaluate("2mm_t", variant="tensor")
    bars["tensor_intrinsics (2mm_t)"] = base.time_us / tensor.time_us

    base = evaluate("spmv")
    local = evaluate("spmv", localization_stack(2))
    bars["locality (spmv)"] = base.time_us / local.time_us

    rows = [[k, round(v, 2)] for k, v in bars.items()]
    return rows, bars


def test_fig1_summary(once):
    rows, bars = once(_run)
    emit("fig1_summary", format_table(
        ["optimization", "speedup"], rows,
        title="Figure 1 plot: headline per-pass improvements "
              "(paper: fusion 1.4x, tiling 6.0x, tensor 8.5x, "
              "locality 1.5x)"))

    assert bars["op_fusion (covar)"] >= 1.1
    assert bars["task_tiling (fib, 8T)"] >= 3.0
    assert bars["tensor_intrinsics (2mm_t)"] >= 4.0
    assert bars["locality (spmv)"] >= 1.2
