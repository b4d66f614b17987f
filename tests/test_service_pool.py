"""Worker pool: inline/parallel execution, crash, timeout, and drain."""

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.service.pool import (
    STATUS_CRASH,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    TaskSpec,
    WorkerPool,
)


# Module-level so worker processes can resolve them by reference.
def _double(payload):
    return payload["value"] * 2


def _boom(payload):
    raise ValueError(f"boom {payload['value']}")


def _crash_or_double(payload):
    if payload.get("crash"):
        os._exit(13)
    return payload["value"] * 2


def _sleep(payload):
    time.sleep(payload["seconds"])
    return "slept"


def _specs(count):
    return [TaskSpec(task_id=f"t{i}", payload={"value": i}) for i in range(count)]


def test_jobs_must_be_positive():
    with pytest.raises(ConfigurationError):
        WorkerPool(_double, jobs=0)


def test_inline_success_and_error():
    pool = WorkerPool(_double, jobs=1)
    outcomes = pool.run(_specs(3))
    assert [o.status for o in outcomes] == [STATUS_DONE] * 3
    assert [o.result for o in outcomes] == [0, 2, 4]

    outcomes = WorkerPool(_boom, jobs=1).run(_specs(2))
    assert all(o.status == STATUS_ERROR for o in outcomes)
    assert "boom 1" in outcomes[1].error
    assert all(o.retryable for o in outcomes)


def test_inline_drain_skips_remaining():
    calls = []

    def stop_after_first():
        return bool(calls)

    def on_outcome(outcome):
        calls.append(outcome.task_id)

    outcomes = WorkerPool(_double, jobs=1).run(
        _specs(3), should_stop=stop_after_first, on_outcome=on_outcome
    )
    assert outcomes[0].status == STATUS_DONE
    assert [o.status for o in outcomes[1:]] == [STATUS_SKIPPED] * 2
    assert not outcomes[1].retryable


def test_parallel_preserves_submission_order():
    pool = WorkerPool(_double, jobs=2)
    outcomes = pool.run(_specs(5))
    assert [o.task_id for o in outcomes] == [f"t{i}" for i in range(5)]
    assert [o.result for o in outcomes] == [0, 2, 4, 6, 8]
    assert all(o.wall_seconds >= 0 for o in outcomes)


def test_parallel_refills_slots_before_outcome_callbacks():
    events = []

    class Observer:
        def task_started(self, task_id):
            events.append(("started", task_id))

        def task_settled(self, outcome):
            pass

        def pool_rebuilt(self, reason):
            pass

    outcomes = WorkerPool(_double, jobs=2, observer=Observer()).run(
        _specs(3), on_outcome=lambda o: events.append(("outcome", o.task_id))
    )
    assert [o.result for o in outcomes] == [0, 2, 4]
    first_outcome = next(
        i for i, event in enumerate(events) if event[0] == "outcome"
    )
    # The freed slot took the third task before any callback ran.
    assert events.index(("started", "t2")) < first_outcome
    assert sorted(e for e in events if e[0] == "outcome") == [
        ("outcome", f"t{i}") for i in range(3)
    ]


def test_parallel_worker_exception_is_contained():
    outcomes = WorkerPool(_boom, jobs=2).run(_specs(3))
    assert all(o.status == STATUS_ERROR for o in outcomes)
    assert all("boom" in o.error for o in outcomes)


def test_worker_crash_reported_and_pool_recovers():
    specs = [
        TaskSpec(task_id="ok-a", payload={"value": 1}),
        TaskSpec(task_id="dead", payload={"value": 2, "crash": True}),
        TaskSpec(task_id="ok-b", payload={"value": 3}),
    ]
    outcomes = WorkerPool(_crash_or_double, jobs=2).run(specs)
    by_id = {o.task_id: o for o in outcomes}
    assert by_id["dead"].status == STATUS_CRASH
    assert by_id["dead"].retryable
    # The pool rebuilt itself; tasks dispatched after the crash completed.
    # (Tasks in flight *with* the crasher may be collateral crashes — the
    # queue's retry budget handles those — but not every task may fail.)
    done = [o for o in outcomes if o.status == STATUS_DONE]
    assert done
    for outcome in done:
        assert outcome.result in (2, 6)


def test_timeout_kills_overdue_task_and_spares_innocents():
    specs = [
        TaskSpec(task_id="slow", payload={"seconds": 30.0}, timeout_seconds=0.3),
        TaskSpec(task_id="fast", payload={"seconds": 0.01}),
    ]
    t0 = time.perf_counter()
    outcomes = WorkerPool(_sleep, jobs=2).run(specs)
    elapsed = time.perf_counter() - t0
    by_id = {o.task_id: o for o in outcomes}
    assert by_id["slow"].status == STATUS_TIMEOUT
    assert "timeout" in by_id["slow"].error
    assert by_id["fast"].status == STATUS_DONE
    assert elapsed < 20.0  # nowhere near the 30s sleep
