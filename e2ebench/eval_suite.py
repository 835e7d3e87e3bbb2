"""``eval_suite``: what one evaluation costs a user.

One in-process caller, closed loop: ``repro.api.execute()`` on all 19
workloads x {baseline, allopts}, ``check=True``, default ``SimParams``.
The seed shuffles the order of each pass.  A run is made of whole
passes, so every run measures the same multiset of evaluations.  The
first pass is a warm-up (checked, not timed): it fills the process's
caches, which a designer evaluating many points pays once.  Wall times
are scaled to the nominal host speed (:class:`common.HostSpeed`), with
one reference sample before each ``execute()`` and one scale per pass.

Untraced (``--trace 0``): end-to-end metrics.  Traced (``--trace 1``):
passes alternate between untraced ``execute()`` and the traced
composition of the same requests (:func:`common.traced_evaluate`); the
difference is the tracing overhead.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

import common

#: One process does the work, so one reference sample at a time.
REF_PARALLEL = 1


def requests() -> List[Tuple[Tuple[str, str], object]]:
    from repro.api import request_for
    from repro.workloads import WORKLOADS
    out = []
    for name in WORKLOADS:
        out.append(((name, "baseline"), request_for(name, "")))
        out.append(((name, "allopts"),
                    request_for(name, common.allopts_spec(name))))
    return out


def run(seed: int, seconds: float, trace: bool, result,
        host: common.HostSpeed) -> None:
    from repro.api import execute
    reqs = requests()
    rng = random.Random(seed)
    cycles: Dict[Tuple[str, str], int] = {}
    docs: Dict[Tuple[str, str], bytes] = {}
    lat_ms: List[float] = []
    untraced_ms: Dict[Tuple[str, str], List[float]] = {}
    traced: Dict[int, object] = {}
    traced_key: Dict[int, Tuple[str, str]] = {}
    rec = common.SpanRecorder()
    golden = common.GoldenRunCounter()

    def check(key, cyc: int, doc: bytes, what: str) -> None:
        if cycles.setdefault(key, cyc) != cyc:
            result.wrong(f"{key} {what}: cycles {cyc} != first run "
                         f"{cycles[key]}")
        if docs.setdefault(key, doc) != doc:
            result.wrong(f"{key} {what}: document differs from the "
                         f"first execute()")

    def untraced_pass(order, timed: bool) -> None:
        mark = host.mark()
        walls: List[Tuple[Tuple[str, str], float]] = []
        for key, request in order:
            result.attempted += 1
            host.sample()
            t = time.perf_counter()
            resp = execute(request)
            dt = (time.perf_counter() - t) * 1e3
            if not resp.ok:
                result.fail(f"{key}: {resp.describe()}")
                continue
            if resp.evaluation.get("verified") is not True:
                result.wrong(f"{key}: evaluation not verified")
            check(key, resp.cycles, common.doc_bytes(resp.evaluation),
                  "execute")
            walls.append((key, dt))
        if not timed:
            return
        scale = host.scale(mark)
        scales.append(scale)
        raw_pass_s.append(sum(dt for _k, dt in walls) / 1e3)
        pass_s.append(raw_pass_s[-1] * scale)
        for key, dt in walls:
            lat_ms.append(dt * scale)
            untraced_ms.setdefault(key, []).append(dt)

    def traced_pass(order) -> None:
        with golden:
            for key, request in order:
                req = len(traced)
                ev = common.traced_evaluate(request, rec, req, golden)
                traced[req] = ev
                traced_key[req] = key
                check(key, ev.cycles, common.doc_bytes(ev.doc), "traced")

    pass_s: List[float] = []
    raw_pass_s: List[float] = []
    scales: List[float] = []
    order = list(reqs)
    rng.shuffle(order)
    untraced_pass(order, timed=False)
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        order = list(reqs)
        rng.shuffle(order)
        if trace and passes % 2 == 1:
            traced_pass(order)
        else:
            untraced_pass(order, timed=True)
        passes += 1
    if trace and passes == 1:
        order = list(reqs)
        rng.shuffle(order)
        traced_pass(order)

    speedup = common.geomean(cycles[(n, "baseline")] / cycles[(n, "allopts")]
                             for n, c in cycles if c == "baseline")
    result.detail.update(passes=passes, evaluations=len(lat_ms),
                         tail_percentile=common.tail_percentile(
                             len(lat_ms)),
                         pass_s=pass_s, raw_pass_s=raw_pass_s,
                         pass_scale=scales,
                         allopts_speedup_geomean=speedup)
    result.e2e.update(
        # The median pass damps a pass the host slowed.
        evals_per_s=len(reqs) / statistics.median(pass_s),
        eval_p50_ms=statistics.median(lat_ms),
        eval_p90_ms=common.percentile(lat_ms, 90),
        speedup_geomean=speedup,
    )
    if trace:
        untraced = {req: statistics.median(untraced_ms[key])
                    for req, key in traced_key.items()}
        layers = common.layer_metrics(rec, traced, untraced)
        result.layers.update(layers)
        result.detail["layer_shares_pct"] = common.layer_shares(layers)
        result.recorder = rec
