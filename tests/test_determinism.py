"""Determinism regression: identical inputs must yield identical traces.

The simulator's whole value rests on reproducibility — the same spec and
configuration must produce the same event sequence down to the last float,
or results in the paper tables cannot be trusted across reruns.  This test
serializes the full trace (every record, every field, full float precision)
from two independent runs and requires the bytes to match exactly.  This is
also the invariant the SIM1xx lint rules exist to protect: any wall-clock
read, unseeded RNG, or iteration-order leak in the hot path shows up here
as a byte diff.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.configs import ALL_CONFIGS
from repro.storage.objects import SnapshotSpec
from repro.units import KiB, MiB
from repro.workflow.kernels import FixedWorkKernel
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec


def serialize_run(result):
    """Byte-exact serialization of everything observable about a run."""
    payload = {
        "workflow": result.workflow_name,
        "config": result.config_label,
        "makespan": result.makespan.hex(),
        "writer_span": [t.hex() for t in result.writer_span],
        "reader_span": [t.hex() for t in result.reader_span],
        "bytes_written": result.bytes_written.hex(),
        "bytes_read": result.bytes_read.hex(),
        "trace": [
            {
                "component": r.component,
                "rank": r.rank,
                "phase": r.phase,
                "start": r.start.hex(),
                "end": r.end.hex(),
                "iteration": r.iteration,
                "detail": sorted(r.detail.items()),
            }
            for r in result.tracer.records
        ],
    }
    return json.dumps(payload, sort_keys=True).encode()


def small_spec():
    return WorkflowSpec(
        name="determinism@4",
        ranks=4,
        iterations=3,
        snapshot=SnapshotSpec(object_bytes=64 * KiB, objects_per_snapshot=16),
        sim_compute=FixedWorkKernel(seconds=0.05),
        analytics_compute=FixedWorkKernel(seconds=0.02),
    )


class TestDeterminism:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_trace_is_byte_identical_across_runs(self, config):
        first = serialize_run(run_workflow(small_spec(), config, trace=True))
        second = serialize_run(run_workflow(small_spec(), config, trace=True))
        assert first == second

    def test_trace_is_nonempty(self):
        result = run_workflow(small_spec(), ALL_CONFIGS[0], trace=True)
        # Guard against the comparison passing vacuously on empty traces.
        assert len(result.tracer.records) >= small_spec().ranks * 3

    def test_distinct_configs_actually_differ(self):
        # Sanity: the serialization captures enough to tell runs apart.
        big = WorkflowSpec(
            name="determinism-big@4",
            ranks=4,
            iterations=3,
            snapshot=SnapshotSpec(object_bytes=MiB, objects_per_snapshot=64),
        )
        parallel, serial = ALL_CONFIGS[0], ALL_CONFIGS[2]
        assert serialize_run(
            run_workflow(big, parallel, trace=True)
        ) != serialize_run(run_workflow(big, serial, trace=True))


#: Runs two paper cells under every Table I config and prints the
#: makespans' reprs, one per line.
_HASH_SEED_PROBE = """
from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.workflow.runner import run_workflow

for family, ranks in (("micro-64mb", 16), ("gtc+readonly", 24)):
    spec = build_workflow(family, ranks)
    for config in ALL_CONFIGS:
        makespan = run_workflow(spec, config).makespan
        print(spec.name, config.label, repr(makespan))
"""


class TestCrossProcessDeterminism:
    def test_makespans_independent_of_hash_seed(self):
        """Interned signatures, memo keys and dict/set iteration must not
        let string-hash randomization reach a simulated result."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = {}
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
            )
            completed = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs[seed] = completed.stdout
        lines = outputs["0"].splitlines()
        assert len(lines) == 2 * len(ALL_CONFIGS)
        assert outputs["1"] == outputs["0"]
        assert outputs["12345"] == outputs["0"]
