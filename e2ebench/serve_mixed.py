"""``serve_mixed``: small designs through a ``repro serve`` daemon.

The daemon runs as a subprocess with one worker process.  This process
is the load generator: two client threads, each a closed loop on its
own ``ServeClient``, stepping together (a barrier per step), so one
client's request queues behind the other's on the single worker.

A round is a seeded shuffle of four streams, one request per client
per step:

* hot: both clients send the same request in the same step (dedup);
  six small designs x {baseline, allopts};
* lanes: MiniC source-text requests that differ only in their seeded
  root arguments (coalescible), plus explicit ``args_list`` batches;
* args: ``saxpy`` with seeded non-default arguments under a pass stack
  no other stream sends.  Every one of them fails today (known defect,
  see NOTES.md); the oracle expects that exact error, so the count is
  deterministic and the responses still count against ``error_ratio``;
* unique: a new source-text design per step (cold front end in the
  worker's LRU) beside a recurring named design (warm after its first
  round).

A run is made of whole rounds.  Wall times are scaled to the nominal
host speed (:class:`common.HostSpeed`): ``REF_SAMPLES`` reference
samples on each of ``REF_PARALLEL`` cores between rounds, while the
daemon is idle, and one scale per round from the samples on either
side of it.  Afterwards every distinct request is executed locally with
``repro.api.execute``: an ok response must be byte-identical to it.
"""

from __future__ import annotations

import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common

SMALL = ("spmv", "dense8", "dense16", "softm8", "softm16", "relu_t")
WARM_STACKS = ("fusion", "tuning", "localize,fusion",
               "cache_banking=2,tuning")
#: The args stream's design: used by no other stream (see NOTES.md).
ARGS_WORKLOAD = "saxpy"
ARGS_STACK = "fusion,tuning"
LANES_SRC = """array y: i32[64];
func main(n: i32, a: i32) {
  for (i = 0; i < n; i = i + 1) { y[i] = a * i + 7; }
}
"""
UNIQUE_SRC = """array y: i32[32];
func main(n: i32) {
  for (i = 0; i < n; i = i + 1) { y[i] = i * %d + %d; }
}
"""
#: Root-argument sizes of the source and args streams (one round).
LANE_SIZES = [16, 24, 32, 40]
SPAWNS = 3
#: Host-speed reference samples between two rounds, on as many cores
#: at once as the daemon and this process can keep busy.
REF_SAMPLES = 8
REF_PARALLEL = os.cpu_count() or 1
READY_TIMEOUT_S = 60.0
STEP_TIMEOUT_S = 60.0


class Daemon:
    """A ``repro serve`` subprocess with one worker."""

    def __init__(self, log_path: str):
        env = dict(os.environ)
        env.pop("REPRO_TELEMETRY", None)
        env["PYTHONPATH"] = common.SRC
        self.log = open(log_path, "ab")
        self.address: Optional[str] = None
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=common.OUT, env=env, stdout=subprocess.PIPE,
            stderr=self.log)
        try:
            self.address = self._read_address()
            from repro.serve import ServeClient
            ServeClient(self.address, timeout=READY_TIMEOUT_S).health()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _read_address(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0))
            if not ready:
                raise common.SetupError("serve daemon did not announce "
                                        "its address")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise common.SetupError("serve daemon exited at start")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        # "serving repro.serve/1 on HOST:PORT (...)"
        return line.split(" on ", 1)[1].split(" ", 1)[0]

    def stop(self) -> None:
        """Ask the daemon to shut down; kill it if it does not."""
        from repro.errors import ReproError
        from repro.serve import ServeClient
        if self.proc.poll() is None and self.address is not None:
            try:
                ServeClient(self.address, timeout=10).shutdown()
            except ReproError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()
        self.log.close()


def start_daemon() -> Tuple[Daemon, List[float]]:
    """Spawn the daemon ``SPAWNS`` times (keeping the last) and return
    it with each spawn's time until ``health`` answered."""
    os.makedirs(common.OUT, exist_ok=True)
    log = os.path.join(common.OUT, f"serve-{os.getpid()}.log")
    times = []
    for i in range(SPAWNS):
        daemon = Daemon(log)
        times.append(daemon.ready_s)
        if i < SPAWNS - 1:
            daemon.stop()
    return daemon, times


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

def build_round(seed: int, rnd: int):
    """One round: a list of steps, each (stream, request0, request1).

    The seed picks orders and values that do not change the amount of
    work (argument values, constants, which stack a design gets), so
    every round of every seed costs about the same.
    """
    from repro.api import request_for
    rng = random.Random(f"{seed}/{rnd}")
    fixed = random.Random(seed)   # per-run: same lanes/args every round

    def sizes(values):
        return fixed.sample(values, len(values))

    steps = []
    for name in SMALL:
        for spec in ("", common.allopts_spec(name)):
            req = request_for(name, spec)
            steps.append(("hot", req, req))
    for n0, n1 in zip(sizes(LANE_SIZES), sizes(LANE_SIZES)):
        steps.append(("lanes", *(request_for(
            LANES_SRC, "", args=[n, fixed.randint(1, 9)])
            for n in (n0, n1))))
    for _ in range(2):
        steps.append(("lanes", *(request_for(LANES_SRC, "", args_list=[
            [n, fixed.randint(1, 9)] for n in sizes(LANE_SIZES)])
            for _c in range(2))))
    for n0, n1 in zip(sizes(LANE_SIZES), sizes(LANE_SIZES)):
        steps.append(("args", *(request_for(
            ARGS_WORKLOAD, ARGS_STACK,
            args=[n, fixed.choice((1.5, 3.0, 4.0))]) for n in (n0, n1))))
    for n, name in zip(sizes(LANE_SIZES + LANE_SIZES[:2]),
                       rng.sample(SMALL, len(SMALL))):
        cold = request_for(UNIQUE_SRC % (rng.randint(2, 10**6),
                                         rng.randint(0, 99)), "",
                           args=[n // 2])
        warm = request_for(name, rng.choice(WARM_STACKS))
        steps.append(("unique", cold, warm))
    rng.shuffle(steps)
    return steps


class Sample:
    __slots__ = ("stream", "request", "doc", "latency_ms", "error",
                 "rnd")

    def __init__(self, stream, request, rnd: int):
        self.stream = stream
        self.rnd = rnd
        self.request = request
        self.doc: Optional[Dict] = None
        self.latency_ms = 0.0
        self.error: Optional[str] = None


def drive(address: str, seed: int, seconds: float,
          host: common.HostSpeed):
    """Run whole rounds until ``seconds`` have passed, with host-speed
    samples between rounds.  Returns the samples (each with its round
    number), each round's wall time and each round's host scale."""
    from repro.errors import ReproError
    from repro.serve import ServeClient
    samples: List[List[Sample]] = [[], []]
    round_s: List[float] = []
    marks: List[int] = []
    rounds = 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        marks.append(host.mark())
        host.sample(REF_SAMPLES)
        t_round = time.perf_counter()
        steps = build_round(seed, rounds)
        barrier = threading.Barrier(2)

        def client(i: int) -> None:
            cl = ServeClient(address, timeout=STEP_TIMEOUT_S)
            for stream, *pair in steps:
                s = Sample(stream, pair[i], rounds)
                t = time.perf_counter()
                try:
                    s.doc = cl.evaluate(s.request).to_json()
                except ReproError as exc:
                    s.error = str(exc)
                except Exception as exc:  # keep the peer off the barrier
                    s.error = f"{type(exc).__name__}: {exc}"
                s.latency_ms = (time.perf_counter() - t) * 1e3
                samples[i].append(s)
                barrier.wait(timeout=STEP_TIMEOUT_S)

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=STEP_TIMEOUT_S * len(steps))
            if th.is_alive():
                barrier.abort()
                raise common.SetupError("serve client stuck")
        round_s.append(time.perf_counter() - t_round)
        rounds += 1
    marks.append(host.mark())
    host.sample(REF_SAMPLES)
    scales = [host.scale(marks[r], marks[r + 2] if r + 2 < len(marks)
                         else None) for r in range(rounds)]
    return samples[0] + samples[1], round_s, scales


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, result,
        host: common.HostSpeed, daemon: Daemon) -> None:
    from repro.api import EvaluationResponse, execute
    from repro.serve import ServeClient
    samples, raw_round_s, scales = drive(daemon.address, seed, seconds,
                                         host)
    round_s = [s * k for s, k in zip(raw_round_s, scales)]
    counters = ServeClient(daemon.address).report()["scheduler"][
        "counters"]

    local: Dict[str, object] = {}
    for s in samples:
        key = s.request.canonical_key()
        if key not in local:
            local[key] = execute(s.request)

    cycles: Dict[Tuple[str, bool], int] = {}
    worker_ms, overhead_ms, payload = [], [], []
    for s in samples:
        result.attempted += 1
        if s.error is not None:
            result.fail(f"{s.stream} {s.request.describe()}: {s.error}")
            continue
        resp = EvaluationResponse.from_json(s.doc)
        want = local[s.request.canonical_key()]
        if resp.ok:
            if common.doc_bytes(resp.payload()) != \
                    common.doc_bytes(want.payload()):
                result.wrong(f"{s.stream} {s.request.describe()}: "
                             f"served document differs from execute()")
        elif (s.stream == "args" and not want.ok
              and resp.error.get("error") == want.error.get("error")):
            result.known_errors += 1
        else:
            result.fail(f"{s.stream} {s.request.describe()}: "
                        f"{resp.describe()}")
        if s.stream == "hot" and resp.ok:
            cycles[(s.request.workload, bool(s.request.passes))] = \
                resp.cycles
        wall_s = float(resp.meta.get("wall_s") or 0.0)
        worker_ms.append(wall_s * 1e3)
        overhead_ms.append(s.latency_ms - wall_s * 1e3)
        payload.append(len(common.doc_bytes(s.doc)))

    lat = [s.latency_ms * scales[s.rnd] for s in samples]
    n = len(samples)
    speedup = common.geomean(cycles[(d, False)] / cycles[(d, True)]
                             for d in SMALL)
    requests = counters["requests"]
    executed = requests - counters["dedup_hits"]
    result.detail.update(
        round_s=round_s, raw_round_s=raw_round_s, round_scale=scales,
        requests=n, tail_percentile=
        common.tail_percentile(n), known_defect_errors=result.known_errors,
        scheduler=counters)
    result.e2e.update(
        # Every round sends the same number of requests; the median
        # round damps a round the host slowed.
        evals_per_s=n / len(round_s) / statistics.median(round_s),
        eval_p50_ms=statistics.median(lat),
        eval_p90_ms=common.percentile(lat, 90),
        speedup_geomean=speedup,
    )
    result.layers.update({
        "serve.worker_ms": statistics.median(worker_ms),
        "serve.overhead_ms": statistics.median(overhead_ms),
        "serve.dedup_ratio": counters["dedup_hits"] / requests,
        "serve.coalesced_lanes": counters["coalesced_lanes"] / requests,
        "serve.lru_hit_ratio": counters["lru_hits"] / max(executed, 1),
        "serve.executions_per_request": counters["executions"] / requests,
        "serve.payload_bytes": statistics.median(payload),
    })
    if trace:
        replay(build_round(seed, 0), local, result)


def replay(steps, local, result) -> None:
    """Traced and untraced replays of the first round's distinct scalar
    requests that succeeded."""
    from repro.api import execute
    rec = common.SpanRecorder()
    golden = common.GoldenRunCounter()
    traced: Dict[int, object] = {}
    untraced: Dict[int, float] = {}
    done = set()
    with golden:
        for _stream, *pair in steps:
            for request in pair:
                key = request.canonical_key()
                if key in done or request.is_batch or \
                        not local[key].ok:
                    continue
                done.add(key)
                req = len(traced)
                t = time.perf_counter()
                execute(request)
                untraced[req] = (time.perf_counter() - t) * 1e3
                traced[req] = common.traced_evaluate(request, rec, req,
                                                     golden)
    result.layers.update(common.layer_metrics(rec, traced, untraced))
    result.detail["layer_shares_pct"] = common.layer_shares(result.layers)
    result.recorder = rec
