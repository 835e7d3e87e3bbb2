"""Table 3 — summary of uopt passes (category, beneficiaries, measured
improvement range), regenerated from live runs of representative
workloads."""

from repro.api import evaluate
from repro.bench.configs import (
    banking_stack,
    fusion_stack,
    localization_stack,
    tensor_stack,
    tiling_stack,
)
from repro.bench.reporting import emit, format_table

PASSES = [
    ("Op fusion", "Timing", ["spmv", "covar", "gemm"],
     lambda name: (evaluate(name), evaluate(name, fusion_stack()))),
    ("Task tiling", "Spatial", ["stencil", "saxpy", "fib"],
     lambda name: (evaluate(name, localization_stack(4)),
                   evaluate(name, localization_stack(4)
                            + tiling_stack(8)))),
    ("Tensor ops", "Higher Ops", ["relu_t"],
     lambda name: (evaluate(name), evaluate(name, tensor_stack()))),
    ("Memory localization", "Timing&Spatial", ["spmv", "saxpy"],
     lambda name: (evaluate(name),
                   evaluate(name, localization_stack()))),
    ("Cache banking", "Timing&Spatial", ["fft", "3mm"],
     lambda name: (evaluate(name), evaluate(name, banking_stack(4)))),
]

PAPER = {
    "Op fusion": "1.4x", "Task tiling": "6x", "Tensor ops": "8x",
    "Memory localization": "1.3x", "Cache banking": "1.5x",
}


def _run():
    rows = []
    measured = {}
    for pass_name, category, names, runner in PASSES:
        speedups = []
        for name in names:
            base, opt = runner(name)
            speedups.append(base.time_us / opt.time_us)
        lo, hi = min(speedups), max(speedups)
        measured[pass_name] = (lo, hi)
        rows.append([pass_name, category, ", ".join(names),
                     PAPER[pass_name],
                     f"{lo:.2f}x - {hi:.2f}x"])
    return rows, measured


def test_table3_pass_summary(once):
    rows, measured = once(_run)
    emit("table3_passes", format_table(
        ["pass", "type", "benchmarks", "paper (peak)",
         "measured range"], rows,
        title="Table 3: uopt pass catalog with live measurements"))
    # Every pass shows a benefit on at least one beneficiary.
    for name, (lo, hi) in measured.items():
        assert hi >= 1.05, (name, lo, hi)
