"""``dse_sweep``: design-space exploration through ``repro.dse.explore``.

A round is two sweeps over a fresh cache directory, each sweep run for
``img_scale`` and ``gemm`` with a process pool of ``nproc`` workers:

* sweep 1 (cold) covers banks x tiles x ``sim.loop_invocation_window``;
  every point is a cache write;
* sweep 2 (resweep) keeps banks x tiles and takes one window value of
  sweep 1 plus one new value, both drawn from the seed, so half of its
  points are cache reads that skip simulation entirely and half are
  fresh writes.

A run is made of whole rounds.  Wall times are scaled to the nominal
host speed (:class:`common.HostSpeed`): ``REF_SAMPLES`` reference
samples on each of ``REF_PARALLEL`` cores before each ``explore()``
call, one scale per round.  Traced runs then replay the fresh points
of sweep 1 through the traced layer calls, for the per-layer split of
what a point costs inside a worker.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Tuple

import common

WORKLOADS = ("img_scale", "gemm")
TEMPLATE = ("localize,banking={banks},fusion,tuning,"
            "pipelining?tiles>1,tiling={tiles}?tiles>1")
BANKS = (1, 2, 4)
TILES = (1, 2)
WINDOWS = (2, 4)
NEW_WINDOWS = (3, 5, 6, 8)
#: Host-speed reference samples before each ``explore()`` call, on as
#: many cores at once as the pool has workers.
REF_SAMPLES = 8
REF_PARALLEL = os.cpu_count() or 1


def point_id(workload: str, params: Dict) -> Tuple:
    return (workload,) + tuple(sorted(params.items()))


def point_doc(point) -> Dict:
    return {"cycles": point.cycles, "stats": point.stats,
            "synth": point.synth, "verified": point.verified}


def run(seed: int, seconds: float, trace: bool, result,
        host: common.HostSpeed) -> None:
    from repro.dse import GridSpace, explore
    rng = random.Random(seed)
    workers = os.cpu_count() or 1
    grid1 = {"banks": list(BANKS), "tiles": list(TILES),
             "sim.loop_invocation_window": list(WINDOWS)}
    seen: Dict[Tuple, bytes] = {}
    fresh_ms: List[float] = []
    raw_fresh_ms: List[float] = []
    walls = {"cold": 0.0, "resweep": 0.0}
    points = {"cold": 0, "resweep": 0}
    busy_s = 0.0
    pool_s = 0.0
    hits = 0
    retries = 0
    fronts = 0
    worked = 0
    first_round: List[Tuple[str, str, Dict]] = []
    speedups: List[float] = []

    def settle(workload: str, report, sweep: str) -> float:
        nonlocal hits, retries, fronts, worked, busy_s
        walls[sweep] += report.wall_s
        points[sweep] += len(report.points)
        pool_s_add = report.wall_s * report.workers
        busy = 0.0
        specs = set()
        for p in report.points:
            result.attempted += 1
            if not p.ok:
                result.fail(f"{workload} {p.params}: {p.error}")
                continue
            if p.verified is not True:
                result.wrong(f"{workload} {p.params}: not verified")
            doc = common.doc_bytes(point_doc(p))
            pid = point_id(workload, p.params)
            if seen.setdefault(pid, doc) != doc:
                result.wrong(f"{workload} {p.params} ({sweep}, "
                             f"{p.source}): result differs from the "
                             f"same point in an earlier sweep")
            busy += p.wall_s
            if p.source == "fresh":
                raw_fresh_ms.append(p.wall_s * 1e3)
            if p.cached:
                hits += 1
            if p.source != "cache-index":
                worked += 1
                specs.add(p.pass_spec)
            retries += p.attempts - 1
        fronts += len(specs)
        busy_s += busy
        return pool_s_add

    rounds = 0
    round_rate: List[float] = []
    raw_round_rate: List[float] = []
    scales: List[float] = []
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        before = (points["cold"] + points["resweep"],
                  walls["cold"] + walls["resweep"], len(raw_fresh_ms))
        mark = host.mark()
        cache = os.path.join(common.OUT, f"dse-cache-{os.getpid()}")
        shutil.rmtree(cache, ignore_errors=True)
        try:
            for workload in WORKLOADS:
                grid2 = dict(grid1)
                grid2["sim.loop_invocation_window"] = [
                    rng.choice(WINDOWS), rng.choice(NEW_WINDOWS)]
                host.sample(REF_SAMPLES)
                cold = explore(workload, GridSpace(grid1),
                               pipeline=TEMPLATE, workers=workers,
                               cache=cache)
                pool_s += settle(workload, cold, "cold")
                host.sample(REF_SAMPLES)
                warm = explore(workload, GridSpace(grid2),
                               pipeline=TEMPLATE, workers=workers,
                               cache=cache)
                pool_s += settle(workload, warm, "resweep")
                if rounds == 0:
                    cycles = {p.index: p.cycles for p in cold.points}
                    speedups.append(cycles[0] / min(cycles.values()))
                    first_round.extend(
                        (workload, p.pass_spec, p.params)
                        for p in cold.points if p.ok)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        scale = host.scale(mark)
        scales.append(scale)
        raw_round_rate.append(
            (points["cold"] + points["resweep"] - before[0])
            / (walls["cold"] + walls["resweep"] - before[1]))
        round_rate.append(raw_round_rate[-1] / scale)
        fresh_ms.extend(ms * scale for ms in raw_fresh_ms[before[2]:])
        rounds += 1

    n_points = points["cold"] + points["resweep"]
    tail = common.tail_percentile(len(fresh_ms))
    result.detail.update(rounds=rounds, points=n_points,
                         round_points_per_s=round_rate,
                         raw_round_points_per_s=raw_round_rate,
                         round_scale=scales,
                         fresh_points=len(fresh_ms), tail_percentile=tail,
                         workers=workers)
    result.e2e.update(
        # The median round damps a round the host slowed.
        evals_per_s=statistics.median(round_rate),
        eval_p50_ms=statistics.median(fresh_ms),
        eval_p90_ms=common.percentile(fresh_ms, 90),
        speedup_geomean=common.geomean(speedups),
    )
    result.layers.update({
        "dse.point_ms": statistics.median(raw_fresh_ms),
        "dse.idle_ratio": 1.0 - busy_s / pool_s,
        "dse.cache_hit_ratio": hits / n_points,
        "dse.points_per_front": worked / max(fronts, 1),
        "dse.retries": float(retries),
        "dse.cold_points_per_s": points["cold"] / walls["cold"],
        "dse.resweep_points_per_s": points["resweep"] / walls["resweep"],
    })
    if trace:
        replay(first_round, result)


def replay(points: List[Tuple[str, str, Dict]], result) -> None:
    """Traced and untraced replays of the first round's cold points."""
    from repro.api import execute, request_for
    from repro.sim import SimParams
    rec = common.SpanRecorder()
    golden = common.GoldenRunCounter()
    traced: Dict[int, object] = {}
    untraced: Dict[int, float] = {}
    with golden:
        for req, (workload, spec, params) in enumerate(points):
            sim = {k[4:]: v for k, v in params.items()
                   if k.startswith("sim.")}
            request = request_for(workload, spec, SimParams(**sim))
            t = time.perf_counter()
            execute(request)
            untraced[req] = (time.perf_counter() - t) * 1e3
            traced[req] = common.traced_evaluate(request, rec, req, golden)
    result.layers.update(common.layer_metrics(rec, traced, untraced))
    result.detail["layer_shares_pct"] = common.layer_shares(result.layers)
    result.recorder = rec
