"""Figure 15 — tensor higher-order ops (paper section 6.3, 4-8x on
RELU[T], 2MM[T], CONV[T]).

RELU[T] is transformed *automatically* by the TensorOps uopt pass from
its scalar form; 2MM[T]/CONV[T] use the tensor-intrinsic source (the
paper's Figure 13 style), compared against scalar implementations of
the same tile math.
"""

from repro.api import evaluate
from repro.bench.configs import tensor_stack
from repro.bench.reporting import emit, format_table


def _run():
    rows = []
    speedups = {}

    # RELU[T]: scalar baseline -> TensorOps pass rewrites the loop.
    base = evaluate("relu_t")
    opt = evaluate("relu_t", tensor_stack(2, 2))
    assert opt.pass_log[0].details["tensorized"], \
        "TensorOps failed to match the scalar ReLU loop"
    speedups["relu_t"] = base.time_us / opt.time_us
    rows.append(["relu_t", "uopt pass", base.cycles, opt.cycles,
                 round(opt.cycles / base.cycles, 2),
                 round(speedups["relu_t"], 2)])

    # 2MM[T], CONV[T]: tensor-intrinsic source vs scalar tile math.
    for name in ("2mm_t", "conv_t"):
        base = evaluate(name)
        opt = evaluate(name, variant="tensor")
        speedups[name] = base.time_us / opt.time_us
        rows.append([name, "tensor intrinsics", base.cycles,
                     opt.cycles, round(opt.cycles / base.cycles, 2),
                     round(speedups[name], 2)])
    return rows, speedups


def test_fig15_tensor_ops(once):
    rows, speedups = once(_run)
    emit("fig15_tensor_ops", format_table(
        ["bench", "mechanism", "scalar_cyc", "tensor_cyc",
         "normalized_exe", "speedup"], rows,
        title="Figure 15: Tensor2D higher-order function units "
              "(scalar pipeline = 1)"))

    # Paper band: 4-8x.  The 2x2 ReLU unit (4 lanes) gives ~3-4x; the
    # matmul-bearing kernels land squarely in band.
    assert 2.5 <= speedups["relu_t"] <= 9.0, speedups["relu_t"]
    for name in ("2mm_t", "conv_t"):
        assert 3.5 <= speedups[name] <= 11.0, (name, speedups[name])
