"""End-to-end evaluation benchmark of the uIR toolflow.

    python3 e2ebench/run.py --workload eval_suite --seed 1 --seconds 25 --trace 0

Workloads: ``eval_suite`` (``repro.api.execute``), ``dse_sweep``
(``repro.dse.explore``) and ``serve_mixed`` (a ``repro serve`` daemon
through ``repro.serve.ServeClient``); see NOTES.md for why each was
chosen and what each metric should move.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` adds a
traced leg and reports the per-layer metrics instead.  End-to-end wall
metrics are reported at a nominal host speed (:class:`common.HostSpeed`,
NOTES.md "Noise and bounds").  Metric names and
units come from ``BENCHMARK.json`` at the checkout root.  Every output
is checked; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
1 when any check failed.  Spans of a traced run and the full result
with its provenance are written under ``.e2ebench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import common

WORKLOADS = ("eval_suite", "dse_sweep", "serve_mixed")
#: Fresh-process set-up measurements per run (median reported).
SETUP_PROBES = 7
#: A run must end well inside the caller's 180 s limit.
WATCHDOG_S = 170


class Result:
    """Counts, checks and metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: Operations that failed exactly as a documented known defect
        #: predicts (see NOTES.md); not counted in ``failed``.
        self.known_errors = 0
        self.problems: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.detail: Dict = {}
        self.recorder: Optional[common.SpanRecorder] = None

    def fail(self, message: str) -> None:
        """An operation failed or was refused unexpectedly."""
        self.failed += 1
        self.problems.append(message)

    def wrong(self, message: str) -> None:
        """An output did not match its oracle."""
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def load_spec() -> Dict:
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise common.SetupError(f"cannot read {path}: {exc}")


def setup_probe() -> float:
    """Set-up time of a fresh process: import until every workload
    module is parsed (the same work a benchmark process does first)."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path.insert(0, {common.SRC!r}); "
            f"sys.path.insert(0, {os.path.dirname(__file__)!r}); "
            "import common, repro.api, repro.dse, repro.serve; "
            "common.parse_all_modules(); "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], cwd=common.ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise common.SetupError(f"set-up probe failed: {out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def _watchdog(_signum, _frame):
    # An exception, not the default kill, so ``finally`` stops the
    # daemon and the pools before the process exits.
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)

    try:
        spec = load_spec()
        common.import_repro()
        common.parse_all_modules()
        os.makedirs(common.OUT, exist_ok=True)
        setup = [setup_probe() for _ in range(SETUP_PROBES)]
    except (common.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"e2ebench: cannot set up: {exc}", file=sys.stderr)
        return 2

    result = Result()
    trace = bool(args.trace)
    prov = common.provenance(args.seed, args.workload, trace,
                             args.seconds)
    module = importlib.import_module(args.workload)
    setup_raw = statistics.median(setup)
    daemon = None
    try:
        if args.workload == "serve_mixed":
            daemon, spawns = module.start_daemon()
            result.detail["daemon_ready_s"] = spawns
            setup_raw += statistics.median(spawns)
        # A workload whose work runs in other processes is scaled by
        # reference samples taken on as many cores at once.
        with common.HostSpeed(module.REF_PARALLEL) as host:
            extra = {"daemon": daemon} if daemon is not None else {}
            module.run(args.seed, args.seconds, trace, result, host,
                       **extra)
        prov["host_speed"] = host.summary()
        # Set-up time is scaled by the whole run's reference samples:
        # samples taken next to each short probe tracked it worse.
        setup_s = setup_raw * host.scale()
    finally:
        if daemon is not None:
            daemon.stop()
    result.e2e["setup_s"] = setup_s
    result.detail["setup_raw_s"] = setup_raw
    result.layers["error_ratio"] = \
        (result.failed + result.known_errors) / max(result.attempted, 1)
    result.detail["setup_probes_s"] = setup

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    not_on_path = []
    for m in wanted:
        value = (result.layers if trace else result.e2e).get(m["name"])
        if value is None:
            not_on_path.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if trace:
        prov["trace_overhead_pct"] = result.layers.get("trace.overhead_pct")
    doc = {"provenance": prov, "detail": result.detail,
           "e2e": result.e2e, "layers": result.layers,
           "not_on_path": not_on_path, "problems": result.problems[:50]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(common.OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if result.recorder is not None:
        result.recorder.write(os.path.join(common.OUT,
                                           f"spans-{stem}.jsonl"))

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(doc, sort_keys=True, default=str))
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
