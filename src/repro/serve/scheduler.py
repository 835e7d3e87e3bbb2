"""The serve scheduler: request queue, dedup, coalescing, supervision.

One :class:`Scheduler` per daemon.  Connections :meth:`submit`
requests and get back a :class:`Job`; the scheduler's asyncio worker
loops drain the queue into a supervised executor pool:

* **Dedup** — a request whose ``canonical_key`` matches a queued or
  running job attaches to that job instead of enqueuing a second
  execution: one computation, N subscribers, all of whom receive the
  *same serialized payload bytes* (the response is serialized exactly
  once, at finalization).
* **Coalescing** — when a worker picks up a coalescible scalar
  request it drains every queued request with the same ``group_key``
  (same design/variant/passes/sim/check, differing only in root
  arguments) into one ``simulate_batch`` lane-group, up to
  ``max_batch`` lanes: one front end and one compiled circuit for
  the whole group.
* **Supervision** — the queue *is* a :class:`repro.supervise.
  Supervisor`, the policy DSE sweeps run under too: transient
  failures retry with backoff, a worker death re-runs every request
  that was in flight isolated (alone in the pool), a request implicated
  in two deaths is quarantined with a ``PoisonPointError`` document,
  and ``--job-timeout`` bounds each attempt at ``timeout x lanes``.
  This module only reports what the pool did.  A pool generation
  number makes one break one respawn and one counted death, however
  many worker loops see the ``BrokenProcessPool``.

Scheduling counters are plain dict state (always on — ``report``
must work without telemetry); when telemetry is enabled they are
mirrored into the metrics registry and every finalized request also
appends one ledger record.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from .. import telemetry
from ..dse.engine import default_workers
from ..errors import ReproError, error_document
from ..supervise import (COUNT_KEYS as SUPERVISION_KEYS, Attempt,
                         Failure, RetryPolicy, Supervisor, drop_pool)
from . import worker as _worker
from .protocol import event_bytes

EXECUTORS = ("process", "thread")

#: Scheduler counters, all always-on.  ``dedup_hits`` counts requests
#: answered by an already in-flight computation; ``coalesced_lanes``
#: counts requests that rode a shared lane-group beyond its first.
COUNTER_KEYS = (
    "requests", "dedup_hits", "executions", "batches",
    "coalesced_lanes", "ok", "errors", "retries", "worker_deaths",
    "timeouts", "quarantined", "lru_hits",
)


class Job:
    """One deduplicated unit of queued/running/finished work."""

    __slots__ = ("request", "doc", "key", "group", "verb",
                 "coalescible", "state", "done", "response_doc",
                 "payload_bytes", "enqueued", "started", "finished",
                 "attempts", "deaths", "subscribers")

    def __init__(self, request, doc: Dict):
        self.request = request
        self.doc = doc                      # request wire document
        self.key = request.canonical_key()
        self.group = request.group_key()
        self.verb = request.kind
        self.coalescible = request.coalescible
        self.state = "queued"               # queued | running | done
        self.done = asyncio.Event()
        self.response_doc: Optional[Dict] = None
        self.payload_bytes: Optional[bytes] = None
        self.enqueued = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.attempts = 0
        self.deaths = 0
        self.subscribers = 1

    @property
    def wait_s(self) -> float:
        return (self.started or time.monotonic()) - self.enqueued


def _lane_group(job: Job) -> Optional[str]:
    """Coalescing key: jobs sharing it may ride one lane-group."""
    return job.group if job.coalescible else None


class Scheduler:
    """Owns the dedup table, the supervised queue, and the pool."""

    def __init__(self, *, workers: Optional[int] = None,
                 executor: str = "process", max_batch: int = 8,
                 retry: Optional[RetryPolicy] = None,
                 job_timeout: Optional[float] = None,
                 ledger_root: Optional[str] = None):
        if executor not in EXECUTORS:
            raise ReproError(
                f"unknown executor {executor!r}; "
                f"known: {', '.join(EXECUTORS)}")
        self.workers = workers or default_workers()
        self.executor_kind = executor
        self.max_batch = max(1, max_batch)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_KEYS, 0)
        self.started_at = time.time()
        self._sup = Supervisor(retry or RetryPolicy(), job_timeout,
                               counts=self.counters)
        self._inflight: Dict[str, Job] = {}
        #: Set whenever work may have become available.  Loops take from
        #: the supervisor without awaiting, so no lock is needed.
        self._wakeup: Optional[asyncio.Event] = None
        self._pool = None
        self._generation = 0    # bumped on every pool respawn
        self._tasks: List[asyncio.Task] = []
        self._closing = False
        self._ledger = None
        if ledger_root is not None:
            from ..telemetry.ledger import RunLedger
            self._ledger = RunLedger(ledger_root)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._wakeup = asyncio.Event()
        self._pool = self._new_pool()
        self._tasks = [
            asyncio.create_task(self._worker_loop(i),
                                name=f"serve-worker-{i}")
            for i in range(self.workers)]

    def _new_pool(self):
        if self.executor_kind == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="serve")

    def _respawn(self) -> None:
        """Replace the pool (its workers are dead or hung); no await,
        so no worker loop can see a half-swapped pool."""
        self._generation += 1
        drop_pool(self._pool, kill=True)
        self._pool = self._new_pool()

    async def close(self) -> None:
        self._closing = True
        if self._wakeup is not None:
            self._wakeup.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        self._pool = drop_pool(self._pool,
                               kill=self.executor_kind == "process")
        # Fail anything still queued so no subscriber hangs.
        shutdown_doc = error_document(
            ReproError("server shut down before this request ran"))
        shutdown_doc["family"] = "transient"
        for job in list(self._inflight.values()):
            if not job.done.is_set():
                self._finalize_error(job, shutdown_doc)

    # -- submission --------------------------------------------------------
    async def submit(self, request, doc: Optional[Dict] = None) -> Job:
        """Enqueue (or attach to) the job for ``request``; the caller
        awaits ``job.done`` and streams ``job.payload_bytes``."""
        if self._closing:
            raise ReproError("server is shutting down")
        self.counters["requests"] += 1
        key = request.canonical_key()
        job = self._inflight.get(key)
        if job is not None:
            job.subscribers += 1
            self.counters["dedup_hits"] += 1
            self._mirror("serve.dedup.hits")
            return job
        job = Job(request, doc if doc is not None
                  else request.to_json())
        self._inflight[key] = job
        self._sup.add([job])
        self._gauge_depth()
        self._wakeup.set()
        return job

    def queue_depth(self) -> int:
        return self._sup.queued()

    def snapshot(self) -> Dict:
        """The ``report`` verb's scheduler section."""
        return {
            "counters": dict(self.counters),
            "queue_depth": self._sup.queued(),
            "inflight": sum(1 for j in self._inflight.values()
                            if j.state != "done"),
            "workers": self.workers,
            "executor": self.executor_kind,
            "max_batch": self.max_batch,
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    # -- the worker loops --------------------------------------------------
    async def _worker_loop(self, slot: int) -> None:
        # ``_closing`` is checked as well as cancellation: a wait_for
        # whose inner await completes as the task is cancelled may
        # swallow the CancelledError (Python < 3.12).
        while not self._closing:
            attempt = self._sup.take(_lane_group, self.max_batch)
            if attempt is None:
                self._wakeup.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wakeup.wait(),
                                           self._sup.wait_s())
                continue
            self._gauge_depth()
            group = list(attempt.tries)
            try:
                await self._run(attempt, group)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - loop must live
                doc = error_document(exc) if isinstance(exc, ReproError) \
                    else {"error": type(exc).__name__,
                          "message": str(exc), "exit_code": 1}
                doc["family"] = "deterministic"
                self._sup.returned(attempt)
                for member in group:
                    if not member.done.is_set():
                        self._finalize_error(member, doc)
            for job in group:
                if not job.done.is_set():
                    job.state = "queued"
            # A finished attempt may unblock an isolated retry.
            self._wakeup.set()

    async def _run(self, attempt: Attempt, group: List[Job]) -> None:
        for job in group:
            job.state = "running"
            job.started = time.monotonic()
            job.attempts = attempt.tries[job]
            job.deaths = self._sup.deaths.get(job, 0)
        loop = asyncio.get_running_loop()
        docs = [job.doc for job in group]
        generation = self._generation
        before = {k: self.counters[k] for k in SUPERVISION_KEYS}
        try:
            if len(group) == 1:
                future = loop.run_in_executor(
                    self._pool, _worker.run_payload, docs[0])
            else:
                future = loop.run_in_executor(
                    self._pool, _worker.run_group_payload, docs)
            outs = await asyncio.wait_for(future,
                                          self._sup.budget(attempt))
        except BrokenProcessPool:
            # Every loop with work in the broken pool lands here; the
            # first one respawns it and charges all of them at once.
            if generation == self._generation:
                self._respawn()
                self._fail(self._sup.broke())
        except asyncio.TimeoutError:
            kill = self.executor_kind == "process" \
                and generation == self._generation
            if kill:    # a hung worker process cannot be cancelled
                self._respawn()
            self._fail(self._sup.expire([attempt], kill=kill))
        else:
            if self._sup.returned(attempt):
                self._returned(attempt, group,
                               [outs] if len(group) == 1 else outs)
        for key, n in before.items():
            self._mirror(f"serve.{key}", self.counters[key] - n)

    def _returned(self, attempt: Attempt, group: List[Job],
                  outs: List[Dict]) -> None:
        self.counters["executions"] += 1
        if len(group) > 1:
            self.counters["batches"] += 1
            self.counters["coalesced_lanes"] += len(group) - 1
            self._mirror("serve.batch.lanes", len(group) - 1)
            if telemetry.enabled():
                telemetry.metrics().histogram(
                    "serve.batch.size",
                    buckets=(1, 2, 4, 8, 16)).observe(len(group))
        for job, out in zip(group, outs):
            if out.get("meta", {}).get("lru") == "hit":
                self.counters["lru_hits"] += 1
                self._mirror("serve.lru.hits")
            error = None if out.get("status") == "ok" \
                else out.get("error") or {}
            if self._sup.settle(attempt, job, error):
                self._finalize(job, out)

    def _fail(self, failures: List[Failure]) -> None:
        for job, _attempt, doc in failures:
            job.deaths = doc.get("deaths", job.deaths)
            self._finalize_error(job, doc)

    # -- finalization ------------------------------------------------------
    def _finalize(self, job: Job, out: Dict) -> None:
        job.response_doc = out
        ok = out.get("status") == "ok"
        self.counters["ok" if ok else "errors"] += 1
        self._mirror("serve.ok" if ok else "serve.errors")
        self._seal(job)

    def _finalize_error(self, job: Job, error_doc: Dict) -> None:
        from ..api.requests import EVAL_SCHEMA
        job.response_doc = {
            "schema": EVAL_SCHEMA, "status": "error",
            "request_key": job.key, "evaluation": None, "lanes": None,
            "error": dict(error_doc),
            "meta": {"wall_s": round(time.monotonic()
                                     - job.enqueued, 4)}}
        self.counters["errors"] += 1
        self._mirror("serve.errors")
        self._seal(job)

    def _seal(self, job: Job) -> None:
        """Serialize ONCE; every subscriber streams the same bytes."""
        job.state = "done"
        job.finished = time.monotonic()
        doc = dict(job.response_doc)
        payload = {k: v for k, v in doc.items() if k != "meta"}
        job.payload_bytes = event_bytes(
            {"event": "result", "response": doc,
             "payload_sha": _sha(payload)})
        self._inflight.pop(job.key, None)
        self._record(job)
        job.done.set()

    # -- telemetry glue ----------------------------------------------------
    def _mirror(self, name: str, n: int = 1) -> None:
        if n and telemetry.enabled():
            telemetry.metrics().counter(name).inc(n)

    def _gauge_depth(self) -> None:
        if telemetry.enabled():
            telemetry.metrics().gauge(
                "serve.queue.depth").set(self._sup.queued())

    def _record(self, job: Job) -> None:
        """One ledger record + one span per finalized request."""
        wall = (job.finished or time.monotonic()) - job.enqueued
        if telemetry.enabled():
            with telemetry.tracer().span(
                    "serve.request", verb=job.verb,
                    key=job.key[:12]) as sp:
                sp.set(attempts=job.attempts,
                       subscribers=job.subscribers,
                       wait_ms=round(job.wait_s * 1e3, 3))
        if self._ledger is None:
            return
        from ..telemetry.ledger import build_record, new_run_id
        out = job.response_doc or {}
        error = out.get("error")
        try:
            self._ledger.append(build_record(
                run_id=new_run_id(), command="serve",
                argv=[job.verb, job.request.describe()],
                status="ok" if out.get("status") == "ok" else "error",
                exit_code=0 if out.get("status") == "ok"
                else int((error or {}).get("exit_code", 1)),
                wall_s=wall, started=time.time() - wall,
                annotations={"request_key": job.key,
                             "attempts": job.attempts,
                             "subscribers": job.subscribers},
                error=error))
        except OSError:
            pass  # ledger I/O must never fail a request


def _sha(doc: Dict) -> str:
    import hashlib
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
