"""Benchmark of the paper-suite simulator and the scheduling service.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload suite-direct --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``suite-direct``, ``service-cold``,
``service-warm`` or ``all``.  With ``--trace 0`` the run prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced passes and prints every per-layer metric, and writes
its spans to ``.perfbench/traces/``.  Output checks run in both modes;
each mismatch is a failed operation.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("suite-direct", "service-cold", "service-warm")
#: Solver switches that select another program than the default one.
OVERRIDE_VARIABLES = ("REPRO_SOLVER", "REPRO_NO_NUMPY", "REPRO_COALESCE")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT = 60


def fingerprint() -> Dict[str, Any]:
    overrides = {
        name: os.environ[name] for name in OVERRIDE_VARIABLES if name in os.environ
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "overrides": overrides,
        "baseline": not overrides,
    }


def setup_probe(workload: str) -> float:
    """Import the layers *workload* drives and build its inputs (the 18
    suite workflows); the time a fresh process pays before its first run."""
    began = time.perf_counter()
    from repro.apps.suite import workflow_suite
    from repro.core.configs import ALL_CONFIGS  # noqa: F401
    from repro.workflow.runner import run_workflow  # noqa: F401

    if workload != "suite-direct":
        from repro.service.scheduler import ServiceScheduler  # noqa: F401
        from repro.service.telemetry import ServiceTelemetry  # noqa: F401
    workflow_suite()
    return time.perf_counter() - began


def timed_setup(workload: str) -> float:
    """Median over fresh interpreters of :func:`setup_probe`."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload: Any, seconds: float, traced: bool) -> Tuple[list, list, Any]:
    """Run passes until the next one would overrun *seconds*.

    Traced runs alternate an untraced and a traced pass, so the tracing
    overhead is measured within the run.
    """
    from tracing import Tracer

    tracer = Tracer() if traced else None
    passes: list = []
    untraced: list = []
    began = time.perf_counter()
    while True:
        step = time.perf_counter()
        if traced:
            untraced.append(workload.run_pass())
        passes.append(workload.run_pass(tracer))
        now = time.perf_counter()
        if now - began + (now - step) > seconds:
            return passes, untraced, tracer


def end_to_end(passes: list, setup_s: float) -> Dict[str, float]:
    """Each metric per pass, then the median over passes, so a pass slowed
    by other load on the host moves no figure on its own."""

    def median(per_pass) -> float:
        return statistics.median(per_pass(p) for p in passes)

    return {
        "setup_s": setup_s,
        "wall_s": median(lambda p: p.wall),
        "peak_rss_mb": peak_rss_mb(),
        "sim_events_per_s": median(lambda p: p.events / p.wall),
        "run_latency_p50_s": median(lambda p: percentile(p.run_latencies, 50)),
        "run_latency_p85_s": median(lambda p: percentile(p.run_latencies, 85)),
        "jobs_per_s": median(lambda p: p.jobs / p.wall),
        "job_latency_p50_s": median(lambda p: percentile(p.job_latencies, 50)),
        "job_latency_p95_s": median(lambda p: percentile(p.job_latencies, 95)),
        "paper_winner_hits": float(passes[-1].paper_winner_hits),
    }


def per_layer(
    passes: list, untraced: list, units: Dict[str, str]
) -> Tuple[Dict[str, float], int]:
    """Median of each layer metric over the traced passes, the tracing
    overhead, and how many traced passes disagree on a simulator count."""
    layers = {
        name: statistics.median(p.layers.get(name, 0.0) for p in passes) for name in units
    }
    traced_wall = statistics.median(p.wall for p in passes)
    untraced_wall = statistics.median(p.wall for p in untraced)
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    counts = [
        {
            name: p.layers.get(name)
            for name, unit in units.items()
            if name.startswith("sim.") and unit == "count"
        }
        for p in passes
    ]
    return layers, sum(c != counts[0] for c in counts)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    section = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    from workloads import WORKLOADS

    env = fingerprint()
    print(f"env {json.dumps(env, sort_keys=True)}")
    if not env["baseline"]:
        print(
            f"perfbench: solver override {env['overrides']} selects another "
            "program; these figures are not the baseline",
            file=sys.stderr,
        )
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload {args.workload}: {workload.info()}")
    try:
        setup_s = timed_setup(args.workload)
        if hasattr(workload, "fill"):
            setup_s += workload.fill()
        passes, untraced, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        # Pools shut down without waiting; wait for their workers here.
        for child in multiprocessing.active_children():
            child.join()
    attempted = sum(p.attempted for p in passes + untraced)
    failed = sum(p.failed for p in passes + untraced)
    if args.trace:
        values, disagreeing = per_layer(passes, untraced, units)
        failed += disagreeing
        tracer.write(
            os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "env": env},
        )
    else:
        values = end_to_end(passes, setup_s)
    kind = f"{len(passes)} traced + {len(untraced)} untraced" if args.trace else ""
    print(
        f"{kind or len(passes)} passes, {attempted} operations, {failed} failed "
        f"(failed_frac {failed / attempted:.4f})"
    )
    targets = {}
    if args.trace:
        with open(os.path.join(HERE, "targets.json"), encoding="utf-8") as handle:
            targets = json.load(handle)["per_layer"]
    for name, unit in units.items():
        target = targets.get(name, {})
        moves = "/".join(target.get("moves", []))
        note = f"  -> {moves} on {', '.join(target['workloads'])}" if moves else ""
        print(f"  {name:<44} {values[name]:>16.6g} {unit}{note}")
    metrics = {name: {"value": values[name], "unit": u} for name, u in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
