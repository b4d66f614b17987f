"""Service scheduler: cache-served reruns, retries, drain, determinism."""

import json
import random
import time

import pytest

from repro.obs.store import CampaignStore, StoredCell
from repro.service.queue import (
    KIND_CELL,
    STATE_DONE,
    STATE_FAILED,
    STATE_RUNNING,
    JobQueue,
)
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "service")


def _submit_micro(scheduler):
    return scheduler.submit_suite(suite="micro")


def test_first_run_executes_second_run_hits_cache(root):
    scheduler = ServiceScheduler(root=root)
    jobs = _submit_micro(scheduler)
    assert len(jobs) == 2
    assert all(job.cell_id for job in jobs)

    first = scheduler.run()
    assert first.executed == 2
    assert first.cache_misses == 2
    assert first.cache_hits == 0
    assert first.cells_appended == 2
    assert first.failed == 0

    # Same cells again: everything is served from cache, and the
    # deterministic campaign gains zero new records.
    _submit_micro(scheduler)
    second = ServiceScheduler(root=root).run()
    assert second.cache_hits == 2
    assert second.cache_misses == 0
    assert second.executed == 0
    assert second.cache_hit_rate == 1.0
    assert second.cells_appended == 0

    store = CampaignStore(scheduler.store.root)
    assert len(store.read(RESULTS_CAMPAIGN).cells) == 2
    # The run reports regret for every completed cell, hit or fresh.
    assert len(first.regrets) == 2
    assert len(second.regrets) == 2
    assert {entry["key"] for entry in second.regrets} == {
        "micro-64mb@8",
        "micro-2k@8",
    }


def test_report_record_shape(root):
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    report = scheduler.run()
    record = report.as_record()
    assert record["record"] == "service_run"
    assert record["cache_hit_rate"] == 0.0
    assert record["cells_appended"] == 2
    assert "executed" in report.render_text()


def test_malformed_job_fails_after_retry_budget(root):
    scheduler = ServiceScheduler(root=root, backoff_seconds=0.0)
    queue = JobQueue(root)
    job = queue.submit(
        KIND_CELL,
        {"family": "no-such-family", "ranks": 8, "iterations": 2},
        max_retries=1,
    )
    report = scheduler.run()
    assert report.failed == 1
    assert report.retried == 1
    assert report.executed == 0
    final = queue.load()[0]
    assert final.job_id == job.job_id
    assert final.state == STATE_FAILED
    assert final.attempts == 2
    assert final.detail["reason"] == "retries exhausted"


def test_expired_deadline_fails_without_running(root):
    scheduler = ServiceScheduler(root=root)
    queue = JobQueue(root)
    queue.submit(
        KIND_CELL,
        {"family": "micro-2k", "ranks": 8, "iterations": 2},
        deadline_epoch=time.time() - 60.0,
    )
    report = scheduler.run()
    assert report.expired == 1
    assert report.failed == 1
    assert report.executed == 0
    assert queue.load()[0].detail == {"reason": "deadline expired"}


def test_drain_releases_jobs_without_consuming_attempts(root):
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    report = scheduler.run(should_stop=lambda: True)
    assert report.drained
    assert report.executed == 0
    assert report.failed == 0
    queue = JobQueue(root)
    # Jobs are still queued with their full retry budget.
    assert len(queue.queued()) == 2
    assert all(job.attempts == 0 for job in queue.queued())


def test_inline_job_is_done_before_the_next_one_starts(root, monkeypatch):
    import repro.service.scheduler as scheduler_module

    seen_states = []
    real_execute = scheduler_module.execute_cell_record

    def spying_execute(payload):
        seen_states.append(
            {job.job_id: job.state for job in JobQueue(root).load()}
        )
        return real_execute(payload)

    monkeypatch.setattr(scheduler_module, "execute_cell_record", spying_execute)
    scheduler = ServiceScheduler(root=root, jobs=1)
    _submit_micro(scheduler)
    report = scheduler.run()
    assert report.executed == 2
    first, second = seen_states
    assert set(first.values()) == {STATE_RUNNING}
    # Job 1 was cached and marked done before job 2 began simulating.
    assert sorted(second.values()) == [STATE_DONE, STATE_RUNNING]


def test_regrets_keep_submission_order_when_outcomes_arrive_reversed(
    root, monkeypatch
):
    import repro.service.scheduler as scheduler_module
    from repro.service.pool import WorkerPool

    class ReversedPool(WorkerPool):
        """Runs inline, then reports outcomes last-finished-first."""

        def run(self, tasks, should_stop=None, on_outcome=None):
            outcomes = WorkerPool(self.task_fn, jobs=1).run(tasks)
            for outcome in reversed(outcomes):
                on_outcome(outcome)
            return outcomes

    in_order = ServiceScheduler(root=root + "-in-order")
    _submit_micro(in_order)
    expected = [entry["key"] for entry in in_order.run().regrets]

    monkeypatch.setattr(scheduler_module, "WorkerPool", ReversedPool)
    reversed_run = ServiceScheduler(root=root)
    _submit_micro(reversed_run)
    report = reversed_run.run()
    assert report.executed == 2
    assert [entry["key"] for entry in report.regrets] == expected
    assert len(expected) == 2


def test_done_cells_missing_from_the_campaign_are_recovered(root):
    """A pass that died after settling jobs is completed by the next one."""
    import os

    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    assert scheduler.run().cells_appended == 2
    path = scheduler.store.path(RESULTS_CAMPAIGN)
    with open(path, "rb") as handle:
        original = handle.read()
    os.remove(path)

    report = ServiceScheduler(root=root).run()
    assert report.executed == 0
    assert report.cells_appended == 2
    recovered = CampaignStore(scheduler.store.root).read(RESULTS_CAMPAIGN)
    assert [c.cell_id for c in recovered.cells] == [
        json.loads(line)["cell_id"] for line in original.splitlines()[1:]
    ]
    assert all(c.host["kind"] == "cached" for c in recovered.cells)
    # Nothing is missing any more: the next pass appends nothing.
    assert ServiceScheduler(root=root).run().cells_appended == 0


def test_persisted_cells_independent_of_completion_order(tmp_path):
    """Shuffled completion order must yield a byte-identical store file."""

    def synthetic_cells():
        return [
            StoredCell(
                cell_id=f"{index:016x}",
                key=f"wf-{index}@8",
                deterministic={"winner": "S-LocR", "index": index},
                host={"kind": "simulated", "wall_seconds": float(index)},
                provenance={},
            )
            for index in range(8)
        ]

    rng = random.Random(42)
    paths = []
    for trial in range(3):
        root = str(tmp_path / f"svc-{trial}")
        scheduler = ServiceScheduler(root=root)
        cells = synthetic_cells()
        rng.shuffle(cells)
        assert scheduler._persist_cells(cells) == 8
        paths.append(scheduler.store.path(RESULTS_CAMPAIGN))
    contents = [open(path, "rb").read() for path in paths]
    assert contents[0] == contents[1] == contents[2]


def test_campaign_jobs_parallel_matches_serial_bytes(tmp_path):
    """run_campaign --jobs 2 stores the same deterministic payload as
    serial, and its JSON worker payload keeps every cell option."""
    import json

    from repro.obs.campaign import run_campaign

    digests = []
    for jobs in (1, 2):
        store = CampaignStore(str(tmp_path / f"jobs{jobs}"))
        run = run_campaign(
            suite="micro",
            name="micro-001",
            store=store,
            jobs=jobs,
            profile=True,
            profile_top=3,
        )
        assert all(0 < len(cell.host.hotspots) <= 3 for cell in run.cells)
        stripped = []
        with open(store.path("micro-001"), "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert len(record.get("host", {}).get("hotspots", [])) <= 3
                record.pop("host", None)
                stripped.append(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                )
        digests.append("\n".join(stripped))
    assert digests[0] == digests[1]
