"""Check that the benchmark's exact counts repeat.

    python3 e2ebench/check_repeat.py [--seed N] [--seconds S]

Runs each workload's traced leg twice with the same seed and requires
the deterministic figures to be identical: the ``sim.*`` counts,
``rtl.alms``, ``workloads.golden_runs`` and ``speedup_geomean`` (on
``eval_suite`` that is the allopts/baseline geomean of simulated
cycles).  Wall-clock metrics are held only to the bounds in
BENCHMARK.json, so they are not compared here.  Exits 1 on any
difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
from run import WORKLOADS

EXACT_LAYERS = ("sim.cycles", "sim.node_fires", "sim.memory_requests",
                "sim.cache_hit_ratio", "sim.dram_requests",
                "sim.bank_conflict_stalls", "rtl.alms",
                "workloads.golden_runs")
EXACT_E2E = ("speedup_geomean",)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__),
                                        "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=common.ROOT, capture_output=True,
                         text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    path = os.path.join(common.OUT,
                        f"result-{workload}-seed{seed}-trace1.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    bad = 0
    for workload in WORKLOADS:
        try:
            a, b = (traced_run(workload, args.seed, args.seconds)
                    for _ in range(2))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: FAILED RUN: {exc}")
            bad += 1
            continue
        pairs = [(k, a["layers"][k], b["layers"][k]) for k in EXACT_LAYERS]
        pairs += [(k, a["e2e"][k], b["e2e"][k]) for k in EXACT_E2E]
        for key, x, y in pairs:
            same = x == y
            bad += not same
            print(f"{workload:12s} {key:26s} {x!r:>22} {y!r:>22} "
                  f"{'ok' if same else 'DIFFERS'}")
    print("exact counts repeat" if not bad else f"{bad} difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
