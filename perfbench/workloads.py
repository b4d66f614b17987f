"""The benchmark's workloads: the paper suite run directly, and the same
suite through the scheduling service, cold and warm.

Each workload runs *passes* of a fixed amount of work.  A pass returns
its wall time, its samples and the outcome of its output checks; the
runner turns passes into the end-to-end metrics.  A traced pass does the
same work with spans recorded around the program's layers and returns
the per-layer metrics as well.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from tracing import SIM_COUNTS, Patches, SimCounters, Tracer

#: Iteration override of every service job (one cold pass ~9 s on 2 cores).
SERVICE_ITERATIONS = 1
#: Worker processes of every service pass (at most the host's 2 cores).
SERVICE_JOBS = 2
#: Service passes per warm round; submission cost grows with queue history,
#: so the round length is fixed rather than set by the time budget.
WARM_PASSES = 20

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Pass:
    """One pass of a workload: what it did and how long it took."""

    wall: float
    #: Operations attempted and failed (runs or jobs).
    attempted: int
    failed: int = 0
    #: Jobs completed (runs for the direct suite).
    jobs: int = 0
    #: Simulated events whose results reached the caller.
    events: int = 0
    run_latencies: List[float] = field(default_factory=list)
    job_latencies: List[float] = field(default_factory=list)
    paper_winner_hits: int = 0
    #: Per-layer metrics (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)


def load_reference() -> Dict[str, Any]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def makespan_digest(makespans: Dict[str, str]) -> str:
    """SHA-256 over the sorted ``(cell, config, repr(makespan))`` triples."""
    rows = sorted(tuple(key.split("|")) + (value,) for key, value in makespans.items())
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def file_bytes(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def trace_simulation(tracer: Tracer, counters: SimCounters) -> None:
    """Spans over the simulator-side layers of one ``run_workflow``."""
    import repro.analysis.validate as validate
    import repro.workflow.runner as runner

    tracer.wrap_function(runner.run_workflow, "workflow.run_workflow")
    tracer.wrap_function(runner.paper_testbed, "platform.paper_testbed")
    tracer.wrap_function(validate.validate_run, "analysis.validate_run")
    counters.install(tracer, tracer)


def simulation_layers(
    tracer: Tracer, start: int, counts: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of the simulator-side spans from *start* on."""
    totals = tracer.totals(start)
    engine_s = _total(totals, "sim.engine_run")
    lookups = counts["memo_hits"] + counts["memo_misses"]
    layers = {f"sim.{name}": float(counts[name]) for name in SIM_COUNTS[:6]}
    layers["sim.memo_lookups"] = float(lookups)
    layers["sim.memo_hit_rate"] = counts["memo_hits"] / lookups if lookups else 0.0
    layers["sim.engine_run_s"] = engine_s
    layers["sim.host_us_per_event"] = (
        engine_s / counts["events"] * 1e6 if counts["events"] else 0.0
    )
    layers["workflow.run_workflow_self_s"] = _self(totals, "workflow.run_workflow")
    layers["platform.paper_testbed_s"] = _total(totals, "platform.paper_testbed")
    layers["analysis.validate_run_s"] = _total(totals, "analysis.validate_run")
    layers["apps.build_workflow_s"] = _total(totals, "apps.build_workflow")
    return layers


def _total(totals: Dict[str, Dict[str, float]], name: str) -> float:
    return totals.get(name, {}).get("total", 0.0)


def _self(totals: Dict[str, Dict[str, float]], name: str) -> float:
    return totals.get(name, {}).get("self", 0.0)


def _count(totals: Dict[str, Dict[str, float]], name: str) -> float:
    return float(totals.get(name, {}).get("count", 0))


# ----------------------------------------------------------------------
# suite-direct
# ----------------------------------------------------------------------
class SuiteDirect:
    """The 72 paper cells through ``run_workflow``, in a seeded order."""

    name = "suite-direct"

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.apps.suite import workflow_suite
        from repro.core.configs import ALL_CONFIGS

        self.reference = load_reference()["suite_direct"]
        self.entries = workflow_suite()
        self.runs = [(entry, config) for entry in self.entries for config in ALL_CONFIGS]
        self.rng = random.Random(seed)
        self.counters = SimCounters()
        self.patches = Patches()
        self.counters.install(self.patches)

    def info(self) -> str:
        return "72 runs per pass, order permuted by the seed"

    def close(self) -> None:
        self.patches.close()

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        import repro.apps.suite as suite
        import repro.workflow.runner as runner
        from repro.metrics.analysis import best_config

        order = list(self.runs)
        self.rng.shuffle(order)
        results: Dict[str, Dict[str, Any]] = {}
        makespans: Dict[str, str] = {}
        durations: List[float] = []
        failed = 0
        layers: Dict[str, float] = {}
        if tracer is not None:
            # The tracer's counting replaces the untraced one for this pass.
            self.patches.close()
            start = tracer.mark()
            trace_simulation(tracer, self.counters)
            tracer.wrap_function(suite.build_workflow, "apps.build_workflow")
            suite.workflow_suite()
            pass_start = tracer.mark()
        self.counters.take()
        t0 = time.perf_counter()
        for entry, config in order:
            began = time.perf_counter()
            try:
                result = runner.run_workflow(entry.spec, config)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            durations.append(time.perf_counter() - began)
            key = f"{entry.family}@{entry.ranks}"
            results.setdefault(key, {})[config.label] = result
            makespans[f"{key}|{config.label}"] = repr(result.makespan)
        wall = time.perf_counter() - t0
        counts = self.counters.take()
        if tracer is not None:
            tracer.close()
            self.counters.install(self.patches)
            layers = simulation_layers(tracer, start, counts)
            layers["trace.unattributed_frac"] = (
                1.0 - tracer.top_level_seconds(pass_start) / wall
            )
        # Output checks: every makespan and the winners against the reference.
        expected = self.reference["makespans"]
        failed += sum(1 for key, value in makespans.items() if expected.get(key) != value)
        configs_per_cell = len(self.runs) // len(self.entries)
        hits = 0
        for entry in self.entries:
            per_config = results.get(f"{entry.family}@{entry.ranks}", {})
            if len(per_config) == configs_per_cell:
                hits += best_config(per_config) == entry.paper_best
        if makespan_digest(makespans) != self.reference["digest"] or (
            hits != self.reference["paper_winner_hits"]
        ):
            failed = max(failed, 1)
        return Pass(
            wall=wall,
            attempted=len(order),
            failed=failed,
            jobs=len(durations),
            events=counts["events"],
            run_latencies=durations,
            job_latencies=durations,
            paper_winner_hits=hits,
            layers=layers,
        )


# ----------------------------------------------------------------------
# service-cold and service-warm
# ----------------------------------------------------------------------
@dataclass
class ServiceTrace:
    """What the service-side wrappers saw besides their spans."""

    #: Tasks handed to the worker pool, to replay the workers' side here.
    tasks: List[Any] = field(default_factory=list)
    #: Task outcomes the pool returned.
    outcomes: List[Any] = field(default_factory=list)
    #: Queue file size at each replay of the queue log.
    queue_loads: List[int] = field(default_factory=list)
    cache_hits: int = 0


def trace_service(tracer: Tracer) -> ServiceTrace:
    """Spans over the service-side layers of a service pass."""
    import repro.apps.suite as suite
    import repro.core.recommend as recommend
    import repro.service.cache as cache
    import repro.service.pool as pool
    import repro.service.queue as queue
    import repro.service.scheduler as scheduler
    import repro.service.telemetry as telemetry
    from repro.obs.store import CampaignStore

    tracer.wrap_function(suite.build_workflow, "apps.build_workflow")
    sched = scheduler.ServiceScheduler
    tracer.wrap_method(sched, "__init__", "service.scheduler.init")
    tracer.wrap_method(sched, "submit_suite", "service.scheduler.submit_suite")
    tracer.wrap_method(sched, "run", "service.scheduler.run")
    tracer.wrap_method(
        recommend.RecommendationEngine, "recommend", "core.recommend"
    )
    tracer.wrap_method(
        recommend.RecommendationEngine, "estimate_makespan", "core.recommend"
    )
    tracer.wrap_function(cache.cell_id_for_spec, "service.cache.cell_id")
    seen = ServiceTrace()

    def cache_read(result: Any, _args: tuple) -> None:
        seen.cache_hits += result is not None

    tracer.wrap_method(cache.ResultCache, "get", "service.cache.get", cache_read)
    tracer.wrap_method(cache.ResultCache, "put", "service.cache.put")
    tracer.wrap_method(CampaignStore, "append_cell", "obs.store.append_cell")
    tracer.wrap_method(queue.JobQueue, "submit", "service.queue.submit")
    tracer.wrap_method(
        queue.JobQueue,
        "load",
        "service.queue.load",
        lambda _result, args: seen.queue_loads.append(file_bytes(args[0].path)),
    )
    for method in ("claim", "mark_done", "mark_failed", "retry", "release"):
        tracer.wrap_method(queue.JobQueue, method, "service.queue.transition")

    def pool_ran(result: Any, args: tuple) -> None:
        seen.tasks.extend(args[1])
        seen.outcomes.extend(result)

    tracer.wrap_method(pool.WorkerPool, "run", "service.pool.run", pool_ran)
    for method in vars(telemetry.ServiceTelemetry):
        if method.startswith("_") or method in (
            "snapshot_path",
            "snapshot",
            "exposition",
            "trace_document",
            "write_trace",
        ):
            continue
        tracer.wrap_method(
            telemetry.ServiceTelemetry, method, f"service.telemetry.{method}"
        )
    return seen


def service_layers(
    tracer: Tracer, start: int, seen: ServiceTrace, root: str
) -> Dict[str, float]:
    """Per-layer metrics of the service-side spans from *start* on."""
    totals = tracer.totals(start)
    layers: Dict[str, float] = {}
    layers["service.scheduler.run_self_s"] = _self(totals, "service.scheduler.run")
    layers["core.recommend_s"] = _total(totals, "core.recommend")
    layers["service.cache.cell_id_s"] = _total(totals, "service.cache.cell_id")
    layers["service.cache.get_s"] = _total(totals, "service.cache.get")
    lookups = _count(totals, "service.cache.get")
    layers["service.cache.lookups"] = lookups
    layers["service.cache.hit_rate"] = seen.cache_hits / lookups if lookups else 0.0
    layers["service.cache.put_s"] = _total(totals, "service.cache.put")
    layers["service.cache.bytes"] = float(dir_bytes(os.path.join(root, "cache")))
    layers["obs.store.append_cell_s"] = _total(totals, "obs.store.append_cell")
    layers["obs.store.appends"] = _count(totals, "obs.store.append_cell")
    layers["service.queue.submit_s"] = _total(totals, "service.queue.submit")
    layers["service.queue.load_s"] = _total(totals, "service.queue.load")
    layers["service.queue.loads"] = _count(totals, "service.queue.load")
    queue_path = os.path.join(root, "queue.jsonl")
    with open(queue_path, "rb") as handle:
        log = handle.read()
    layers["service.queue.records_replayed"] = float(
        sum(log.count(b"\n", 0, size) for size in seen.queue_loads)
    )
    layers["service.queue.transition_s"] = _total(totals, "service.queue.transition")
    layers["service.queue.bytes"] = float(len(log))
    hooks = [name for name in totals if name.startswith("service.telemetry.")]
    layers["service.telemetry.hook_calls"] = sum(_count(totals, n) for n in hooks)
    layers["service.telemetry.hook_s"] = sum(_self(totals, n) for n in hooks)
    layers["service.telemetry.snapshot_bytes"] = float(
        file_bytes(os.path.join(root, "telemetry.jsonl"))
    )
    run_s = _total(totals, "service.pool.run")
    outcomes = seen.outcomes
    task_s = sum(outcome.wall_seconds for outcome in outcomes)
    layers["service.pool.run_s"] = run_s
    layers["service.pool.task_s"] = task_s
    layers["service.pool.busy_frac"] = task_s / (run_s * SERVICE_JOBS) if run_s else 0.0
    layers["service.pool.failed"] = float(sum(1 for o in outcomes if not o.ok))
    layers["service.pool.rebuilds"] = _count(totals, "service.telemetry.pool_rebuilt")
    return layers


class ServiceWorkload:
    """Shared parts of the two service workloads."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.root = os.path.join(workdir, "service")
        self.reference = load_reference()["service"]

    def info(self) -> str:
        return (
            f"seed {self.seed} recorded; the 'full' preset fixes the job order "
            f"({SERVICE_ITERATIONS} iteration per job, jobs={SERVICE_JOBS})"
        )

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def service_pass(self) -> Any:
        """One fresh scheduler: submit the full suite, run it."""
        from repro.service.scheduler import ServiceScheduler
        from repro.service.telemetry import ServiceTelemetry

        telemetry = ServiceTelemetry(self.root, enabled=True)
        scheduler = ServiceScheduler(self.root, jobs=SERVICE_JOBS, telemetry=telemetry)
        submitted = scheduler.submit_suite("full", iterations=SERVICE_ITERATIONS)
        report = scheduler.run()
        return scheduler, telemetry, submitted, report

    def queue_jobs(self) -> Dict[str, Any]:
        """Every job's final state, replayed from the queue log."""
        from repro.service.queue import JobQueue

        return {job.job_id: job for job in JobQueue(self.root).load()}


def job_latencies(final: Dict[str, Any], submitted: List[Any]) -> List[float]:
    """``submitted_at`` to the ``done`` time of each submitted job."""
    return [
        final[job.job_id].state_at - final[job.job_id].submitted_at
        for job in submitted
        if job.job_id in final and final[job.job_id].state == "done"
    ]


class ServiceCold(ServiceWorkload):
    """Submit and run the full suite from an empty service directory."""

    name = "service-cold"

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        from repro.errors import StorageError
        from repro.service.scheduler import RESULTS_CAMPAIGN

        shutil.rmtree(self.root, ignore_errors=True)
        if tracer is not None:
            start = tracer.mark()
            seen = trace_service(tracer)
        t0 = time.perf_counter()
        try:
            scheduler, telemetry, submitted, report = self.service_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            jobs = len(self.reference["cell_ids"])
            return Pass(wall=time.perf_counter() - t0, attempted=jobs, failed=jobs)
        finally:
            if tracer is not None:
                tracer.close()
        wall = time.perf_counter() - t0
        # Output checks: 18 jobs done first time, ids as predicted and recorded.
        try:
            stored = {
                cell.cell_id: cell
                for cell in scheduler.store.read(RESULTS_CAMPAIGN).cells
            }
        except (StorageError, OSError):
            stored = {}
        expected = self.reference["cell_ids"]
        final = self.queue_jobs()
        failed = 0
        for job in submitted:
            now = final.get(job.job_id)
            key = f"{job.payload['family']}@{job.payload['ranks']}"
            ok = (
                now is not None
                and now.state == "done"
                and now.attempts == 1
                and isinstance(now.detail, dict)
                and now.detail.get("cell_id") == job.cell_id
                and job.cell_id == expected.get(key)
                and job.cell_id in stored
            )
            failed += not ok
        if report.retried or report.failed or len(submitted) != len(expected):
            failed = max(failed, 1)
        hits = sum(bool(cell.deterministic.get("paper_hit")) for cell in stored.values())
        if hits != self.reference["paper_winner_hits"]:
            failed = max(failed, 1)
        layers: Dict[str, float] = {}
        if tracer is not None:
            layers = service_layers(tracer, start, seen, self.root)
            layers["trace.unattributed_frac"] = (
                1.0 - tracer.top_level_seconds(start) / wall
            )
            pool_s = layers["service.pool.run_s"]
            layers.update(replay_workers(tracer, seen.tasks, pool_s))
            build = tracer.totals(start).get("apps.build_workflow", {})
            layers["apps.build_workflow_s"] = build.get("total", 0.0)
        return Pass(
            wall=wall,
            attempted=len(submitted),
            failed=failed,
            jobs=len(submitted),
            events=sum(int(c.host.get("events_executed", 0)) for c in stored.values()),
            run_latencies=[
                s.duration for s in telemetry.recorder.spans if s.name == "simulate"
            ],
            job_latencies=job_latencies(final, submitted),
            paper_winner_hits=hits,
            layers=layers,
        )


def replay_workers(
    tracer: Tracer, tasks: List[Any], pool_seconds: float
) -> Dict[str, float]:
    """Time the pool workers' layers by calling their entry point here.

    Runs ``execute_cell_record`` on the very payloads the pool was given;
    the pool's own share is its wall time minus this work spread over its
    workers.
    """
    import repro.apps.suite as suite
    import repro.obs.campaign as campaign
    import repro.obs.explain as explain
    import repro.service.tasks as tasks_module

    start = tracer.mark()
    counters = SimCounters()
    execute = tasks_module.execute_cell_record
    tracer.wrap_function(execute, "service.tasks.execute_cell_record")
    tracer.wrap_function(campaign.run_cell, "obs.run_cell")
    tracer.wrap_function(campaign.observe_workflow, "obs.observe_workflow")
    tracer.wrap_function(explain.explain_observation, "obs.explain_observation")
    tracer.wrap_function(suite.build_workflow, "apps.build_workflow")
    trace_simulation(tracer, counters)
    try:
        for task in tasks:
            tasks_module.execute_cell_record(task.payload)
    finally:
        tracer.close()
    totals = tracer.totals(start)
    layers = simulation_layers(tracer, start, counters.take())
    layers["obs.run_cell_self_s"] = _self(totals, "obs.run_cell")
    layers["obs.observe_workflow_self_s"] = _self(totals, "obs.observe_workflow")
    layers["obs.explain_observation_s"] = _total(totals, "obs.explain_observation")
    layers["service.tasks.execute_cell_record_self_s"] = _self(
        totals, "service.tasks.execute_cell_record"
    )
    worker_s = _total(totals, "service.tasks.execute_cell_record")
    layers["service.pool.overhead_s"] = pool_seconds - worker_s / SERVICE_JOBS
    return layers


class ServiceWarm(ServiceWorkload):
    """Rounds of fresh schedulers resubmitting a fully cached suite."""

    name = "service-warm"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.seeded: Dict[str, str] = {}
        self.cell_events: Dict[str, int] = {}
        self.paper_hits = 0

    def info(self) -> str:
        return super().info() + f"; {WARM_PASSES} passes per round, one client"

    def fill(self) -> float:
        """Set-up: one cold pass fills the cache; returns its wall time."""
        from repro.obs.store import canonical_json
        from repro.service.scheduler import RESULTS_CAMPAIGN

        shutil.rmtree(self.root, ignore_errors=True)
        t0 = time.perf_counter()
        scheduler, _telemetry, submitted, report = self.service_pass()
        wall = time.perf_counter() - t0
        cells = scheduler.store.read(RESULTS_CAMPAIGN).cells
        if report.executed != len(submitted) or {
            cell.key: cell.cell_id for cell in cells
        } != self.reference["cell_ids"]:
            raise RuntimeError("the cache fill did not store the reference cells")
        for cell in cells:
            self.seeded[cell.cell_id] = canonical_json(cell.deterministic)
            self.cell_events[cell.cell_id] = int(cell.host.get("events_executed", 0))
        self.paper_hits = sum(bool(cell.deterministic.get("paper_hit")) for cell in cells)
        return wall

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        from repro.obs.store import canonical_json
        from repro.service.cache import ResultCache

        # A round starts with an empty queue log and keeps cache and store.
        for name in ("queue.jsonl", "telemetry.jsonl"):
            path = os.path.join(self.root, name)
            if os.path.exists(path):
                os.remove(path)
        if tracer is not None:
            start = tracer.mark()
            seen = trace_service(tracer)
        submitted: List[Any] = []
        reports: List[Any] = []
        t0 = time.perf_counter()
        try:
            for _ in range(WARM_PASSES):
                _scheduler, _telemetry, jobs, report = self.service_pass()
                submitted.extend(jobs)
                reports.append(report)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            jobs = len(self.seeded) * WARM_PASSES
            return Pass(wall=time.perf_counter() - t0, attempted=jobs, failed=jobs)
        finally:
            if tracer is not None:
                tracer.close()
        wall = time.perf_counter() - t0
        layers: Dict[str, float] = {}
        if tracer is not None:
            layers = service_layers(tracer, start, seen, self.root)
            layers["trace.unattributed_frac"] = (
                1.0 - tracer.top_level_seconds(start) / wall
            )
        # Output checks: every job a hit on a seeded cell whose cached
        # payload is byte-equal to what the cold pass stored.
        cache = ResultCache(self.root)
        cached = {cell_id: cache.get(cell_id) for cell_id in self.seeded}
        intact = {
            cell_id
            for cell_id, payload in self.seeded.items()
            if cached[cell_id] is not None
            and canonical_json(cached[cell_id].deterministic) == payload
        }
        final = self.queue_jobs()
        failed = 0
        for job in submitted:
            now = final.get(job.job_id)
            ok = (
                now is not None
                and now.state == "done"
                and isinstance(now.detail, dict)
                and now.detail.get("cache") == "hit"
                and now.detail.get("cell_id") == job.cell_id
                and job.cell_id in intact
            )
            failed += not ok
        if any(r.executed or r.failed or r.cache_misses for r in reports):
            failed = max(failed, 1)
        latencies = job_latencies(final, submitted)
        served = sum(self.cell_events.get(job.cell_id, 0) for job in submitted)
        return Pass(
            wall=wall,
            attempted=len(submitted),
            failed=failed,
            jobs=len(submitted),
            events=served,
            run_latencies=latencies,
            job_latencies=latencies,
            paper_winner_hits=self.paper_hits,
            layers=layers,
        )


WORKLOADS = {cls.name: cls for cls in (SuiteDirect, ServiceCold, ServiceWarm)}
