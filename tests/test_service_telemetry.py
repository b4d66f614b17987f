"""Service telemetry: lifecycle spans, stitched traces, byte-identity."""

import json
import os

import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.store import CampaignStore
from repro.obs.telemetry import (
    mint_trace_id,
    validate_exposition,
    validate_snapshot,
)
from repro.service.queue import JobQueue
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler
from repro.service.telemetry import (
    LATENCY_METRIC,
    TELEMETRY_FILENAME,
    ServiceTelemetry,
)


def _run_micro(root, enabled=True, jobs=1):
    telemetry = ServiceTelemetry(root, enabled=enabled)
    scheduler = ServiceScheduler(root=root, jobs=jobs, telemetry=telemetry)
    scheduler.submit_suite(suite="micro")
    report = scheduler.run()
    assert report.failed == 0
    return scheduler, telemetry, report


# ----------------------------------------------------------------------
# Lifecycle instrumentation end to end (serial path).
# ----------------------------------------------------------------------
def test_run_produces_metrics_spans_and_snapshots(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, report = _run_micro(root)
    assert report.executed == 2

    submitted = telemetry.registry.counter(
        "repro_service_jobs_submitted_total"
    )
    assert submitted.value == 2
    misses = telemetry.registry.counter("repro_service_cache_misses_total")
    assert misses.value == 2
    latency = telemetry.registry.histogram(LATENCY_METRIC)
    assert latency.count == 2
    assert latency.quantile(0.99) >= latency.quantile(0.5) >= 0.0

    by_trace = telemetry.recorder.by_trace()
    job_ids = [job.job_id for job in scheduler.queue.load()]
    assert set(by_trace) == {mint_trace_id(job_id) for job_id in job_ids}
    for trace_id, spans in by_trace.items():
        names = {span.name for span in spans}
        assert {
            "submit", "schedule", "queue-wait", "worker", "simulate",
            "cache-store", "job",
        } <= names
        root_span = next(span for span in spans if span.name == "job")
        assert root_span.span_id == f"{trace_id}/root"
        worker = next(span for span in spans if span.name == "worker")
        assert worker.parent_id == f"{trace_id}/root"
        simulate = next(span for span in spans if span.name == "simulate")
        # The worker's simulate span parents under the deterministic
        # worker span id — stitched without any cross-process round trip.
        assert simulate.parent_id == worker.span_id
        assert root_span.start <= worker.start <= worker.end <= (
            root_span.end + 1e-6
        )

    # Per-round snapshots plus the final one, all valid, appended JSONL.
    assert os.path.exists(telemetry.snapshot_path)
    with open(telemetry.snapshot_path, "r", encoding="utf-8") as handle:
        snapshots = [json.loads(line) for line in handle if line.strip()]
    assert len(snapshots) >= 2
    for snapshot in snapshots:
        assert validate_snapshot(snapshot) == []
    assert snapshots[-1]["final"] is True
    assert snapshots[-1]["report"]["record"] == "service_run"
    assert not any(snapshot["final"] for snapshot in snapshots[:-1])


def test_exposition_of_live_run_validates(tmp_path):
    root = str(tmp_path / "svc")
    _, telemetry, _ = _run_micro(root)
    text = telemetry.exposition()
    assert validate_exposition(text) == []
    assert "# TYPE repro_service_jobs_submitted_total counter" in text
    assert 'repro_service_transitions_total{state="done"} 2' in text
    assert "repro_service_submit_result_latency_seconds_bucket" in text


def test_trace_document_nests_sim_spans_inside_wall_windows(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, _ = _run_micro(root)
    document = telemetry.trace_document()
    assert validate_chrome_trace(document) == []
    jobs = document["repro"]["service"]["jobs"]
    assert len(jobs) == 2
    assert all(job["sim_spans"] > 0 for job in jobs)
    events = document["traceEvents"]
    for job in jobs:
        pid = job["pid"]
        # One simulate wall span per observed configuration; sim events
        # carry the run_id linking them to their own wall window.
        windows = {
            e["args"]["run_id"]: e for e in events
            if e.get("pid") == pid and e.get("name") == "simulate"
        }
        assert windows
        sim_events = [
            e for e in events
            if e.get("pid") == pid
            and str(e.get("cat", "")).startswith("sim-")
        ]
        assert sim_events
        for event in sim_events:
            # Virtual-time spans are rescaled into the measured simulate
            # wall window: one coherent timeline per job.
            simulate = windows[event["args"]["run_id"]]
            # 1 us slack: rescaling virtual seconds into an epoch-anchored
            # microsecond timeline rounds in the last float digits.
            assert event["ts"] >= simulate["ts"] - 1.0
            assert event["ts"] + event["dur"] <= (
                simulate["ts"] + simulate["dur"] + 1.0
            )
            assert event["args"]["trace_id"] == job["trace_id"]
        # Wall-time service spans sit on the dedicated service track.
        assert all(
            e["tid"] == 0 for e in events
            if e.get("pid") == pid and e.get("cat") == "service"
        )


def test_cache_hits_traced_on_second_pass(tmp_path):
    root = str(tmp_path / "svc")
    _run_micro(root)
    telemetry = ServiceTelemetry(root, enabled=True)
    scheduler = ServiceScheduler(root=root, telemetry=telemetry)
    scheduler.submit_suite(suite="micro")
    report = scheduler.run()
    assert report.cache_hits == 2
    hits = telemetry.registry.counter("repro_service_cache_hits_total")
    assert hits.value == 2
    span_names = {span.name for span in telemetry.recorder.spans}
    assert "cache-hit" in span_names
    assert "simulate" not in span_names
    rate = telemetry.registry.gauge("repro_service_cache_hit_rate")
    assert rate.value == 1.0


def test_parallel_workers_stitch_spans_across_processes(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, report = _run_micro(root, jobs=2)
    assert report.executed == 2
    simulate = [
        span for span in telemetry.recorder.spans if span.name == "simulate"
    ]
    # 2 cells x 4 Table I configurations, each observed in a worker.
    assert len(simulate) == 8
    parent_pid = telemetry.recorder.os_pid
    # The simulate spans were recorded inside the worker processes.
    assert all(span.os_pid != parent_pid for span in simulate)
    document = telemetry.trace_document()
    assert validate_chrome_trace(document) == []
    assert all(
        job["sim_spans"] > 0 for job in document["repro"]["service"]["jobs"]
    )


# ----------------------------------------------------------------------
# The additive guarantee: telemetry on vs. off changes no artifact bytes.
# ----------------------------------------------------------------------
def _stripped_store_lines(scheduler):
    """Store records minus the 'host' block (wall clock lives there)."""
    lines = []
    with open(scheduler.store.path(RESULTS_CAMPAIGN), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("host", None)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
    return lines


def _stripped_queue_lines(root):
    """Queue log minus wall-clock fields (present with telemetry on or off)."""
    lines = []
    with open(JobQueue(root).path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("at", None)
            record.pop("submitted_at", None)
            if isinstance(record.get("detail"), dict):
                record["detail"].pop("wall_seconds", None)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
    return lines


def test_artifacts_byte_identical_with_telemetry_on_and_off(tmp_path):
    results = {}
    for enabled in (True, False):
        root = str(tmp_path / ("on" if enabled else "off"))
        scheduler, telemetry, report = _run_micro(root, enabled=enabled)
        store = CampaignStore(scheduler.store.root)
        results[enabled] = {
            "store": _stripped_store_lines(scheduler),
            "queue": _stripped_queue_lines(root),
            "cell_ids": sorted(
                cell.cell_id for cell in store.read(RESULTS_CAMPAIGN).cells
            ),
            "cache_ids": sorted(scheduler.cache.list_ids()),
        }
        if not enabled:
            # Disabled telemetry writes nothing at all.
            assert not os.path.exists(
                os.path.join(root, TELEMETRY_FILENAME)
            )
            assert telemetry.recorder.spans == []
            assert telemetry.registry.instruments() == []
    # Deterministic artifacts — store payloads, content-addressed cell
    # ids, cache keys, queue transitions — are identical either way:
    # wall-clock values never leak out of the telemetry plane.
    assert results[True]["store"] == results[False]["store"]
    assert results[True]["queue"] == results[False]["queue"]
    assert results[True]["cell_ids"] == results[False]["cell_ids"]
    assert results[True]["cache_ids"] == results[False]["cache_ids"]


def test_disabled_telemetry_hooks_are_inert(tmp_path):
    root = str(tmp_path / "svc")
    telemetry = ServiceTelemetry(root, enabled=False)
    assert telemetry.write_snapshot(final=True) is None
    assert telemetry.exposition() == ""
    scheduler = ServiceScheduler(root=root, telemetry=telemetry)
    job = scheduler.submit_suite(suite="micro")[0]
    assert telemetry.worker_dispatch(job) is None
    # The dispatch payload therefore never grows a _telemetry key, so
    # worker inputs are byte-identical too.
    telemetry.cache_hit(job, "abc")
    telemetry.retry_scheduled(job, "error")
    assert telemetry.recorder.spans == []


def test_default_scheduler_has_disabled_telemetry(tmp_path):
    scheduler = ServiceScheduler(root=str(tmp_path / "svc"))
    assert scheduler.telemetry.enabled is False


# ----------------------------------------------------------------------
# Queue operator views feeding `repro-service status`.
# ----------------------------------------------------------------------
def test_stale_running_and_attempts_histogram(tmp_path):
    root = str(tmp_path / "svc")
    scheduler = ServiceScheduler(root=root)
    scheduler.submit_suite(suite="micro")
    queue = JobQueue(root)
    jobs = queue.queued()
    queue.claim(jobs[0])
    fresh = JobQueue(root)
    stale = fresh.stale_running()
    assert len(stale) == 1
    assert stale[0]["job_id"] == jobs[0].job_id
    assert stale[0]["age_seconds"] is not None
    assert stale[0]["age_seconds"] >= 0.0
    histogram = fresh.attempts_histogram()
    assert histogram == {0: 1, 1: 1}


def test_worker_utilization_and_rate_gauges(tmp_path):
    root = str(tmp_path / "svc")
    _, telemetry, _ = _run_micro(root)
    utilization = telemetry.registry.gauge("repro_service_worker_utilization")
    assert 0.0 < utilization.value <= 1.0
    rate = telemetry.registry.gauge("repro_service_jobs_per_second")
    assert rate.value > 0.0
    with pytest.raises(StopIteration):
        # No unexpected unlabelled gauge families beyond the known set.
        next(
            g for g in telemetry.registry.instruments()
            if g.kind == "gauge" and not g.labels and g.name not in (
                "repro_service_cache_hit_rate",
                "repro_service_jobs_per_second",
                "repro_service_queue_depth",
                "repro_service_worker_utilization",
            )
        )


def test_experiment_retry_round_records_backoff_and_snapshot(tmp_path, monkeypatch):
    """Experiment jobs run through the same retry rounds as cells."""
    import repro.experiments.registry as registry
    from repro.experiments.common import ExperimentResult

    calls = []

    def flaky_lookup(experiment_id):
        calls.append(experiment_id)
        if len(calls) == 1:
            raise RuntimeError("transient worker failure")
        return lambda _out: ExperimentResult(experiment_id, "stub", "stub run")

    # jobs=1 runs the task inline, so the worker sees the patched registry.
    monkeypatch.setattr(registry, "get_experiment", flaky_lookup)
    root = str(tmp_path / "service")
    telemetry = ServiceTelemetry(root, enabled=True)
    scheduler = ServiceScheduler(
        root=root, telemetry=telemetry, backoff_seconds=0.01
    )
    (job,) = scheduler.submit_experiments(["table01"])
    report = scheduler.run()
    assert (report.experiments, report.retried, report.failed) == (1, 1, 0)
    assert calls == ["table01", "table01"]
    backoff = telemetry.registry.counter("repro_service_backoff_seconds_total")
    assert backoff.value == pytest.approx(0.01)
    with open(telemetry.snapshot_path, "r", encoding="utf-8") as handle:
        snapshots = [json.loads(line) for line in handle]
    assert [s.get("round") for s in snapshots if not s["final"]] == [1, 2]
    (done,) = JobQueue(root).load()
    assert done.detail == {
        "experiment": "table01",
        "title": "stub",
        "claims": 0,
        "claims_held": 0,
        "failed_claims": [],
    }
