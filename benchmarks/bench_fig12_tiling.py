"""Figure 12 — concurrency tiling: execution units per task 1/2/4/8
(paper section 6.2, 1.5-6x on the Cilk workloads).

As in the paper, tiling is measured on accelerators whose memory
system can feed the tiles (per-array scratchpads, banked; our
EXPERIMENTS.md documents this substrate).  SAXPY saturates early
(memory bound), STENCIL/IMG-SCALE/FIB scale further.
"""

from repro.api import evaluate
from repro.bench.configs import localization_stack, tiling_stack
from repro.bench.reporting import emit, format_table

NAMES = ["stencil", "saxpy", "img_scale", "fib", "msort"]
TILES = [2, 4, 8]


def _substrate():
    return localization_stack(banks=4)


def _run():
    rows = []
    curves = {}
    for name in NAMES:
        base = evaluate(name, _substrate())
        speeds = {1: 1.0}
        for tiles in TILES:
            r = evaluate(name, _substrate() + tiling_stack(tiles))
            speeds[tiles] = base.time_us / r.time_us
        curves[name] = speeds
        rows.append([name, base.cycles] +
                    [round(speeds[t], 2) for t in TILES])
    return rows, curves


def test_fig12_tiling(once):
    rows, curves = once(_run)
    emit("fig12_tiling", format_table(
        ["bench", "base_cycles", "2T", "4T", "8T"], rows,
        title="Figure 12: execution tiling speedup (1 tile = 1)"))

    for name, speeds in curves.items():
        # Tiling never hurts, and 8T lands in the paper's 1.5-6x band
        # (fib's pure task parallelism may exceed it slightly).
        assert speeds[2] >= 1.15, (name, speeds)
        assert speeds[8] >= speeds[2] * 0.9, (name, speeds)
        assert 1.4 <= speeds[8] <= 9.0, (name, speeds)
    # SAXPY is memory bound: most of its win arrives by 2-4 tiles.
    assert curves["saxpy"][2] >= 1.5, curves["saxpy"]
    # The compute-dense kernels keep scaling to 8 tiles.
    for name in ("stencil", "img_scale", "fib"):
        assert curves[name][8] > curves[name][2], (name, curves[name])
