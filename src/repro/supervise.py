"""One supervision policy for sweeps (``repro.dse``) and the daemon
(``repro.serve``).

Work is a set of *members* (sweep point indices, serve jobs) handed
out in *attempts*: the members one worker call evaluates together,
each at its own 1-based attempt number.  :class:`Supervisor` is a
pure state machine over them (no processes, no I/O, an injected
clock); dse and serve each feed it what their executor reports.  The
rules are tabulated in DESIGN.md section 11.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Hashable, Iterable, List,
                    Optional, Tuple)

from .errors import PoisonPointError, error_document, error_family

#: Counters a :class:`Supervisor` maintains in the dict it is given.
COUNT_KEYS = ("retries", "worker_deaths", "timeouts", "quarantined")

#: A member settled as failed: ``(member, attempt, error_document)``.
Failure = Tuple[Hashable, int, Dict]


@dataclass
class RetryPolicy:
    """How the supervisor retries transient failures.

    ``max_attempts`` bounds total tries per member (1 = never retry);
    delays grow exponentially from ``base_delay`` up to ``max_delay``,
    each multiplied by a uniform jitter in ``[1 - jitter, 1 + jitter]``
    so respawned workers don't stampede."""

    max_attempts: int = 3
    base_delay: float = 0.25
    max_delay: float = 5.0
    jitter: float = 0.5

    def delay(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts are
        1-based; called with the attempt that just failed)."""
        base = min(self.max_delay,
                   self.base_delay * (2.0 ** max(0, attempt - 1)))
        # Timing-only jitter: results are unaffected, so the shared
        # deterministic RNG (repro.util.rng) is deliberately not used.
        return base * random.uniform(1.0 - self.jitter,
                                     1.0 + self.jitter)


def timeout_doc(seconds: float) -> Dict:
    return {"error": "SupervisorTimeout",
            "message": f"exceeded the supervisor's {seconds:g}s "
                       f"wall-clock deadline",
            "exit_code": 6, "family": "transient"}


def death_doc(deaths: int) -> Dict:
    return {"error": "WorkerDeath",
            "message": "a worker process died during this evaluation",
            "exit_code": 1, "family": "transient", "deaths": deaths}


def poison_doc(deaths: int) -> Dict:
    doc = error_document(PoisonPointError(
        f"quarantined: evaluating it killed {deaths} worker "
        f"process(es)", deaths=deaths))
    doc.update(family="poison", deaths=deaths)
    return doc


@dataclass(eq=False)
class Attempt:
    """Members evaluated together by one worker call."""

    tries: Dict[Hashable, int]      # member -> 1-based attempt number
    isolated: bool = False
    started: float = 0.0


class Supervisor:
    """The policy's state: ready, isolated and delayed queues, running
    attempts, and per-member death counts (attempt counts ride on the
    queued :class:`Attempt`)."""

    def __init__(self, retry: RetryPolicy,
                 timeout: Optional[float] = None, *,
                 counts: Optional[Dict[str, int]] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.retry = retry
        self.timeout = timeout
        self.clock = clock
        self.counts = counts if counts is not None \
            else dict.fromkeys(COUNT_KEYS, 0)
        self.ready: Deque[Attempt] = deque()
        self.isolated: Deque[Attempt] = deque()
        self.delayed: List[Tuple[float, Attempt]] = []
        self.running: List[Attempt] = []
        self.deaths: Dict[Hashable, int] = {}

    @property
    def idle(self) -> bool:
        return not (self.ready or self.isolated or self.delayed
                    or self.running)

    def queued(self) -> int:
        """Attempts waiting to be handed out."""
        return len(self.ready) + len(self.isolated) + len(self.delayed)

    def add(self, members: Iterable[Hashable]) -> None:
        """Queue fresh members as one attempt (their first)."""
        self.ready.append(Attempt(dict.fromkeys(members, 1)))

    def take(self, group: Optional[Callable] = None,
             limit: int = 1) -> Optional[Attempt]:
        """Hand out the next attempt, or None.  Isolated attempts go
        first, one at a time, once nothing else runs; while one runs
        nothing else is handed out.  With ``group`` (member -> key or
        None), queued attempts whose members share the head member's
        key join it, up to ``limit`` members."""
        now = self.clock()
        due = [a for t, a in self.delayed if t <= now]
        if due:
            self.delayed = [(t, a) for t, a in self.delayed if t > now]
            for attempt in due:
                (self.isolated if attempt.isolated
                 else self.ready).append(attempt)
        if any(a.isolated for a in self.running):
            return None
        if self.isolated:
            if self.running:
                return None
            attempt = self.isolated.popleft()
        elif self.ready:
            attempt = self.ready.popleft()
            key = group(next(iter(attempt.tries))) if group else None
            if key is not None:
                keep: Deque[Attempt] = deque()
                while self.ready and len(attempt.tries) < limit:
                    other = self.ready.popleft()
                    if len(attempt.tries) + len(other.tries) <= limit \
                            and all(group(m) == key
                                    for m in other.tries):
                        attempt.tries.update(other.tries)
                    else:
                        keep.append(other)
                self.ready.extendleft(reversed(keep))
        else:
            return None
        attempt.started = now
        self.running.append(attempt)
        return attempt

    def narrow(self, attempt: Attempt, keep: Iterable[Hashable]) -> None:
        """Forget members of a running attempt that were settled
        elsewhere (journal restores, another process's lease)."""
        keep = set(keep)
        for member in [m for m in attempt.tries if m not in keep]:
            del attempt.tries[member]
            self.deaths.pop(member, None)
        if not attempt.tries:
            self.running.remove(attempt)

    def returned(self, attempt: Attempt) -> bool:
        """The worker call came back.  False when the attempt had
        already been charged (a break or a deadline): its result is
        stale and must be dropped."""
        if attempt not in self.running:
            return False
        self.running.remove(attempt)
        return True

    def settle(self, attempt: Attempt, member: Hashable,
               error: Optional[Dict] = None) -> bool:
        """Record one member's outcome from a returned attempt.  False
        when the error was transient and the member was requeued."""
        tried = attempt.tries[member]
        if error is not None:
            family = error.get("family") \
                or error_family(error.get("error", ""))
            if family == "transient" and \
                    tried < self.retry.max_attempts:
                self._retry(member, tried, attempt.isolated)
                return False
        self.deaths.pop(member, None)
        return True

    def release(self, attempt: Attempt) -> None:
        """Requeue a running attempt at the front of its queue, same
        attempt numbers, no charge (it never ran, or the supervisor
        killed it as a bystander)."""
        self.running.remove(attempt)
        (self.isolated if attempt.isolated
         else self.ready).appendleft(attempt)

    def broke(self) -> List[Failure]:
        """One pool break: charge every running attempt."""
        self.counts["worker_deaths"] += 1
        failures: List[Failure] = []
        for attempt in self.running:
            for member, tried in attempt.tries.items():
                deaths = self.deaths.get(member, 0) + 1
                if deaths >= 2:
                    self.counts["quarantined"] += 1
                    failures.append((member, tried, poison_doc(deaths)))
                elif tried < self.retry.max_attempts:
                    self.deaths[member] = deaths
                    self._retry(member, tried, isolated=True)
                    continue
                else:
                    failures.append((member, tried, death_doc(deaths)))
                self.deaths.pop(member, None)
        self.running.clear()
        return failures

    def budget(self, attempt: Attempt) -> Optional[float]:
        """Seconds an attempt may run: ``timeout x members``."""
        if self.timeout is None:
            return None
        return self.timeout * len(attempt.tries)

    def overdue(self) -> List[Attempt]:
        if self.timeout is None:
            return []
        now = self.clock()
        return [a for a in self.running
                if now - a.started > self.budget(a)]

    def expire(self, overdue: Iterable[Attempt],
               kill: bool) -> List[Failure]:
        """Charge overdue attempts a ``SupervisorTimeout``.  ``kill``:
        the pool was killed for them, so every other running attempt
        is a bystander, requeued uncharged."""
        failures: List[Failure] = []
        for attempt in overdue:
            if not self.returned(attempt):
                continue
            doc = timeout_doc(self.budget(attempt))
            self.counts["timeouts"] += len(attempt.tries)
            for member, tried in attempt.tries.items():
                if self.settle(attempt, member, doc):
                    failures.append((member, tried, dict(doc)))
        if kill:
            for attempt in reversed(list(self.running)):
                self.release(attempt)
        return failures

    def wait_s(self) -> Optional[float]:
        """Seconds until a delayed attempt is due or a running one
        overruns its budget; None when neither can happen."""
        times = [t for t, _ in self.delayed]
        if self.timeout is not None:
            times += [a.started + self.budget(a) for a in self.running]
        if not times:
            return None
        return max(0.0, min(times) - self.clock())

    def _retry(self, member: Hashable, tried: int,
               isolated: bool) -> None:
        self.counts["retries"] += 1
        ready = self.clock() + self.retry.delay(tried)
        self.delayed.append((ready, Attempt({member: tried + 1},
                                            isolated)))


# ---------------------------------------------------------------------------
# Executor helpers shared by dse and serve
# ---------------------------------------------------------------------------

def drop_pool(pool, kill: bool = False) -> None:
    """Shut a (possibly broken) pool down without waiting, first
    terminating its worker processes if ``kill`` (``shutdown`` alone
    would wait for running tasks).  Returns None so callers can write
    ``pool = drop_pool(pool)``."""
    if pool is None:
        return None
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()) if kill else ():
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - already broken
        pass
    return None


def spend_flag(flag: Optional[str]) -> bool:
    """Chaos injection (tests/CI): True if the fault should fire — no
    flag, or the flag file not yet created; creating it marks the
    fault spent for later attempts."""
    if not flag:
        return True
    if os.path.exists(flag):
        return False
    with open(flag, "w"):
        pass
    return True
