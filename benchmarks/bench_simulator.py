"""Benchmarks: raw simulator throughput (not a paper artifact).

Tracks the cost of the discrete-event substrate itself so regressions in
the flow solver or engine are visible: one medium workflow end to end, and
one solver-heavy small-object workflow.

Each simulator benchmark attaches its work counters (events, recomputes,
solver iterations, memo hit rate, makespan) as ``extra_info`` so the JSON
artifact carries the *why* behind a wall-time move — a regression with an
unchanged iteration count is allocator churn; one with a collapsed memo
hit rate is a solver-strategy bug.  ``tools/bench_guard.py`` turns the
pytest-benchmark JSON into the committed ``BENCH_simcore.json`` baseline
and enforces the +/-20 % guard in CI.
"""

from repro.apps.gtc import gtc_workflow
from repro.apps.microbench import micro_workflow
from repro.core.configs import P_LOCR, S_LOCW
from repro.metrics.timeline import render_timeline
from repro.obs.capture import observe_workflow
from repro.units import KiB
from repro.workflow.runner import run_workflow


def _attach_work_counters(benchmark, spec, config):
    """One observed (untimed) run: latch the simulator's cost signals."""
    observation = observe_workflow(spec, config)
    probes = observation.probes
    stats = observation.solver_stats
    hits = stats.get("solver_memo_hits", 0)
    misses = stats.get("solver_memo_misses", 0)
    attempts = hits + misses
    benchmark.extra_info.update(
        {
            "makespan": observation.result.makespan,
            "events_executed": probes.counter_total("engine.events_executed"),
            "flow_recomputes": probes.counter_total("flow.recomputes"),
            "solver_iterations": probes.counter_total("flow.solver_iterations"),
            "solver_classes": stats.get("solver_classes", 0),
            "memo_hit_rate": (hits / attempts) if attempts else 0.0,
            "recomputes_coalesced": stats.get("recomputes_coalesced", 0),
        }
    )


def test_simulate_gtc_workflow(benchmark):
    spec = gtc_workflow(ranks=16, iterations=5)
    result = benchmark.pedantic(
        run_workflow, args=(spec, P_LOCR), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.makespan > 0
    _attach_work_counters(benchmark, spec, P_LOCR)


def test_simulate_small_object_workflow(benchmark):
    spec = micro_workflow(2 * KiB, ranks=16, iterations=5)
    result = benchmark.pedantic(
        run_workflow, args=(spec, S_LOCW), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.makespan > 0
    _attach_work_counters(benchmark, spec, S_LOCW)


def test_render_timeline_wide(benchmark):
    """Guard for the chronological-sweep renderer: a record-heavy trace at
    a wide terminal width used to cost O(width x records) per rank."""
    spec = gtc_workflow(ranks=24, iterations=10)
    result = run_workflow(spec, P_LOCR, trace=True)
    rendered = benchmark.pedantic(
        render_timeline,
        args=(result.tracer,),
        kwargs={"width": 400},
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert rendered.count("\n") >= 2 * spec.ranks
