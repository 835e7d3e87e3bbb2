"""Property test of the supervision policy (:mod:`repro.supervise`).

The state machine is driven through random interleavings of returns
with ok / transient / deterministic outcomes, pool breaks, deadline
kills, never-ran releases, new work and clock moves over multi-member
attempts (work is handed out before each step), on a fake clock with
``jitter=0``, then drained.  The invariants:

* every member settles exactly once;
* an isolated attempt is never handed out beside another attempt;
* bystanders of a deadline kill keep their attempt and death counts;
* a death retries its members isolated, a second one quarantines;
* each retry's ready time is ``now + RetryPolicy.delay(attempt)``;
* attempt numbers never exceed ``max_attempts``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.supervise import RetryPolicy, Supervisor

TIMEOUT = 10.0

OPS = st.lists(
    st.tuples(
        st.sampled_from(["return", "return", "break", "expire",
                         "release", "tick", "due", "add"]),
        st.integers(0, 7),
        st.lists(st.sampled_from(["ok", "transient", "deterministic"]),
                 min_size=1, max_size=3)),
    max_size=80)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Model:
    """The supervisor under test plus the bookkeeping the invariants
    are checked against."""

    def __init__(self, sizes, max_attempts):
        self.clock = FakeClock()
        self.retry = RetryPolicy(max_attempts=max_attempts,
                                 base_delay=0.5, max_delay=4.0,
                                 jitter=0.0)
        self.sup = Supervisor(self.retry, TIMEOUT, clock=self.clock)
        self.members = set()
        for size in sizes:
            self.add(size)
        self.settled = {}
        self.deaths = Counter()
        self.breaks = 0

    def add(self, size):
        batch = [len(self.members) + i for i in range(size)]
        self.members.update(batch)
        self.sup.add(batch)

    def settle(self, member, outcome):
        assert member not in self.settled, \
            f"member {member} settled twice"
        self.settled[member] = outcome

    def take(self):
        attempt = self.sup.take()
        if attempt is None:
            return None
        if attempt.isolated:
            assert self.sup.running == [attempt], \
                "isolated attempt handed out beside another"
        assert sum(a.isolated for a in self.sup.running) == 0 \
            or len(self.sup.running) == 1
        for tried in attempt.tries.values():
            assert 1 <= tried <= self.retry.max_attempts
        return attempt

    def finish(self, attempt, outcomes):
        assert self.sup.returned(attempt)
        for i, (member, tried) in enumerate(list(attempt.tries.items())):
            outcome = outcomes[i % len(outcomes)]
            error = None if outcome == "ok" else \
                {"error": "Injected", "family": outcome}
            if self.sup.settle(attempt, member, error):
                assert outcome != "transient" \
                    or tried == self.retry.max_attempts
                self.settle(member, outcome)
            else:
                assert outcome == "transient" \
                    and tried < self.retry.max_attempts

    def pool_break(self):
        charged = [(m, t) for a in self.sup.running
                   for m, t in a.tries.items()]
        failures = {m: doc for m, _, doc in self.sup.broke()}
        self.breaks += 1
        for member, tried in charged:
            self.deaths[member] += 1
            if self.deaths[member] >= 2:
                assert failures[member]["error"] == "PoisonPointError"
                assert failures[member]["exit_code"] == 11
            elif tried >= self.retry.max_attempts:
                assert failures[member]["error"] == "WorkerDeath"
            else:   # retried alone, so the next death names its killer
                assert member not in failures
                assert self.sup.deaths[member] == self.deaths[member]
                assert any(member in a.tries and a.isolated
                           for _, a in self.sup.delayed)
        for member, doc in failures.items():
            self.settle(member, doc["error"])
        assert not self.sup.running

    def expire(self, target, kill):
        bystanders = [(a, dict(a.tries),
                       {m: self.sup.deaths.get(m, 0) for m in a.tries})
                      for a in self.sup.running if a is not target]
        failures = self.sup.expire([target], kill=kill)
        for member, tried, doc in failures:
            assert doc["error"] == "SupervisorTimeout"
            assert tried == self.retry.max_attempts
            self.settle(member, "timeout")
        if kill:
            assert not self.sup.running
            queued = list(self.sup.ready) + list(self.sup.isolated)
            for attempt, tries, deaths in bystanders:
                assert any(a is attempt for a in queued)
                assert attempt.tries == tries
                assert {m: self.sup.deaths.get(m, 0)
                        for m in attempt.tries} == deaths

    def check_new_delays(self, before):
        for ready, attempt in self.sup.delayed:
            if id(attempt) in before:
                continue
            (tried,) = attempt.tries.values()
            assert tried <= self.retry.max_attempts
            assert ready == self.clock.now + self.retry.delay(tried - 1)

    def drain(self):
        for attempt in list(self.sup.running):
            self.finish(attempt, ["ok"])
        while not self.sup.idle:
            attempt = self.take()
            if attempt is not None:
                self.finish(attempt, ["ok"])
                continue
            self.clock.now = min(t for t, _ in self.sup.delayed)


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       max_attempts=st.integers(1, 3), ops=OPS)
def test_supervision_invariants(sizes, max_attempts, ops):
    model = Model(sizes, max_attempts)
    sup = model.sup
    for op, pick, outcomes in ops:
        # Hand out work first, up to a window of 1-3 running attempts.
        while len(sup.running) <= pick % 3 and model.take():
            pass
        before = {id(a) for _, a in sup.delayed}
        running = sup.running
        if op == "return" and running:
            model.finish(running[pick % len(running)], outcomes)
        elif op == "break":
            model.pool_break()
        elif op == "expire" and running:
            model.expire(running[pick % len(running)], kill=pick % 2 == 0)
        elif op == "release" and running:
            attempt = running[pick % len(running)]
            tries = dict(attempt.tries)
            sup.release(attempt)
            assert attempt.tries == tries
        elif op == "tick":
            model.clock.now += 0.25 * pick
        elif op == "due" and sup.delayed:
            model.clock.now = min(t for t, _ in sup.delayed)
        elif op == "add":
            model.add(1 + pick % 3)
        model.check_new_delays(before)
    model.drain()
    assert set(model.settled) == model.members
    assert sup.counts["worker_deaths"] == model.breaks
    assert sup.counts["quarantined"] == \
        sum(v == "PoisonPointError" for v in model.settled.values())
    assert not sup.deaths


def test_overdue_is_timeout_times_members():
    clock = FakeClock()
    sup = Supervisor(RetryPolicy(jitter=0.0), TIMEOUT, clock=clock)
    sup.add([0, 1, 2])
    attempt = sup.take()
    clock.now = 3 * TIMEOUT
    assert sup.overdue() == []
    assert sup.wait_s() == 0.0
    clock.now = 3 * TIMEOUT + 0.01
    assert sup.overdue() == [attempt]


def test_lane_group_joins_only_matching_members():
    sup = Supervisor(RetryPolicy())
    for member in ("a1", "b1", "a2", "a3", "a4"):
        sup.add([member])
    attempt = sup.take(group=lambda m: m[0], limit=3)
    assert list(attempt.tries) == ["a1", "a2", "a3"]
    assert [list(a.tries) for a in sup.ready] == [["b1"], ["a4"]]
