"""Record the outputs the benchmark checks against (``reference.json``).

Run from the repository root when the model's outputs change on purpose:

    python3 perfbench/record_reference.py

It simulates the 72 paper cells directly and runs the full suite once
through a fresh scheduling service, and writes their makespans, cell ids
and paper-winner hits.  A benchmark run counts any difference from these
as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.apps.suite import workflow_suite  # noqa: E402
from repro.core.configs import ALL_CONFIGS  # noqa: E402
from repro.metrics.analysis import best_config  # noqa: E402
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler  # noqa: E402
from repro.workflow.runner import run_workflow  # noqa: E402

from workloads import SERVICE_ITERATIONS, SERVICE_JOBS, makespan_digest  # noqa: E402


def main() -> None:
    makespans = {}
    hits = 0
    for entry in workflow_suite():
        results = {c.label: run_workflow(entry.spec, c) for c in ALL_CONFIGS}
        key = f"{entry.family}@{entry.ranks}"
        for label, result in results.items():
            makespans[f"{key}|{label}"] = repr(result.makespan)
        hits += best_config(results) == entry.paper_best
    root = tempfile.mkdtemp(prefix="perfbench-reference-", dir=HERE)
    try:
        scheduler = ServiceScheduler(root, jobs=SERVICE_JOBS)
        scheduler.submit_suite("full", iterations=SERVICE_ITERATIONS)
        scheduler.run()
        cells = scheduler.store.read(RESULTS_CAMPAIGN).cells
    finally:
        shutil.rmtree(root)
    reference = {
        "suite_direct": {
            "makespans": makespans,
            "digest": makespan_digest(makespans),
            "paper_winner_hits": hits,
        },
        "service": {
            "iterations": SERVICE_ITERATIONS,
            "cell_ids": {cell.key: cell.cell_id for cell in cells},
            "paper_winner_hits": sum(
                bool(cell.deterministic.get("paper_hit")) for cell in cells
            ),
        },
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"suite digest {reference['suite_direct']['digest']}, {hits} paper winners")


if __name__ == "__main__":
    main()
