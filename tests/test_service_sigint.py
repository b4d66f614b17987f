"""SIGINT graceful drain and SIGKILL mid-pass: nothing lost either way."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.store import CampaignStore
from repro.obs.telemetry import validate_snapshot
from repro.service.cache import ResultCache
from repro.service.queue import (
    STATE_DONE,
    STATE_QUEUED,
    STATE_RUNNING,
    JobQueue,
)
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler
from repro.service.telemetry import TELEMETRY_FILENAME

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signal semantics required"
)


def _wait_for_running(root, proc, timeout=30.0):
    """Poll the queue log until some job reaches ``running``."""
    deadline = time.time() + timeout
    queue = JobQueue(root)
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                "service exited before any job started running:\n"
                + proc.stderr.read()
            )
        try:
            jobs = queue.load()
        except Exception:
            jobs = []  # mid-append partial line; retry
        if any(job.state == STATE_RUNNING for job in jobs):
            return
        time.sleep(0.02)
    raise AssertionError("no job reached running before the timeout")


def _service_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_sigint_drains_without_losing_or_duplicating_jobs(tmp_path):
    root = str(tmp_path / "svc")
    # Longer cells widen the drain window: the signal reliably lands
    # while the first cell is still simulating.
    submitted = ServiceScheduler(root=root).submit_suite(
        suite="micro", iterations=6
    )
    assert len(submitted) == 2

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "run",
            "--dir", root, "--backoff", "0",
        ],
        cwd=REPO_ROOT,
        env=_service_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_running(root, proc)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # One Ctrl-C means drain, not crash: the pass still exits cleanly.
    assert proc.returncode == 0, stderr
    assert "drain requested" in stderr

    queue = JobQueue(root)
    jobs = queue.load()
    # No job lost, none duplicated, none stuck in running.
    assert len(jobs) == 2
    assert len({job.job_id for job in jobs}) == 2
    assert {job.job_id for job in jobs} == {
        job.job_id for job in submitted
    }
    states = {job.job_id: job.state for job in jobs}
    assert set(states.values()) <= {STATE_DONE, STATE_QUEUED}
    # Drained jobs went back to queued with their retry budget intact.
    for job in jobs:
        if job.state == STATE_QUEUED:
            assert job.attempts == 0
            assert job.detail == {"reason": "drained"}
    assert "drained early" in stdout

    # The final telemetry snapshot flushed on the way out.
    snapshot_path = os.path.join(root, TELEMETRY_FILENAME)
    assert os.path.exists(snapshot_path)
    with open(snapshot_path, "r", encoding="utf-8") as handle:
        snapshots = [json.loads(line) for line in handle if line.strip()]
    assert snapshots
    final = snapshots[-1]
    assert final["final"] is True
    assert validate_snapshot(final) == []
    assert final["report"]["drained"] is True


def test_sigkill_keeps_every_settled_job(tmp_path):
    """A job is durable the moment it reads ``done``: SIGKILL the service
    while the second cell simulates, and the next pass runs only that one."""
    root = str(tmp_path / "svc")
    # 60 iterations keep the second cell simulating for a few hundred
    # milliseconds, a window the 10 ms poll below cannot miss.
    ServiceScheduler(root=root).submit_suite(suite="micro", iterations=60)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "run",
            "--dir", root, "--jobs", "1",
        ],
        cwd=REPO_ROOT,
        env=_service_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    queue = JobQueue(root)
    states = {}
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    "service exited before one job was done while the "
                    "other still ran:\n" + proc.stderr.read()
                )
            try:
                states = {job.job_id: job.state for job in queue.load()}
            except Exception:
                states = {}  # mid-append partial line; retry
            if sorted(states.values()) == [STATE_DONE, STATE_RUNNING]:
                proc.kill()
                break
            time.sleep(0.01)
        else:
            raise AssertionError(f"no done/running split seen: {states}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()

    jobs = {job.job_id: job for job in queue.load()}
    (first,) = [j for j in jobs.values() if j.state == STATE_DONE]
    (second,) = [j for j in jobs.values() if j.state == STATE_RUNNING]
    cache = ResultCache(root)
    assert cache.peek(first.cell_id)
    assert not cache.peek(second.cell_id)

    report = ServiceScheduler(root=root).run()
    assert report.executed == 1
    assert report.cache_hits == 0
    assert report.cells_appended == 2
    final = {job.job_id: job for job in queue.load()}
    assert {job.state for job in final.values()} == {STATE_DONE}
    assert final[first.job_id].attempts == 1  # never re-executed
    stored = CampaignStore(os.path.join(root, "campaigns")).read(
        RESULTS_CAMPAIGN
    )
    assert sorted(cell.cell_id for cell in stored.cells) == sorted(
        [first.cell_id, second.cell_id]
    )
