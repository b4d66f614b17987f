"""Threaded executor for real writer/reader callables.

Runs one thread per rank per component, coupled through an
:class:`~repro.runtime.channel.InMemoryChannel`, honouring the scheduling
configuration's execution mode: in serial mode reader threads start only
after every writer thread finishes; in parallel mode everyone starts
together and readers block on versions.

With ``emulate_device=True`` the executor wraps each publish/consume in a
sleep derived from the Optane model (the standalone analytic rate for the
chosen placement), scaled by ``time_scale`` — so a laptop demo shows the
*shape* of the device behaviour (local vs remote, write vs read asymmetry)
in real wall-clock time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core.configs import SchedulerConfig
from repro.errors import ConfigurationError
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.runtime.channel import InMemoryChannel
from repro.workflow.iteration import component_iteration_profile
from repro.workflow.spec import WorkflowSpec

#: Produce the snapshot payload for (rank, iteration).
WriterFn = Callable[[int, int], Any]
#: Consume the snapshot payload for (rank, iteration).
ReaderFn = Callable[[int, int, Any], Any]


@dataclass
class RealRunResult:
    """Wall-clock outcome of a threaded run."""

    config_label: str
    makespan_seconds: float
    writer_seconds: float
    reader_seconds: float
    iterations_completed: int
    reader_outputs: Dict[Tuple[int, int], Any] = field(default_factory=dict)
    errors: List[BaseException] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class ThreadedWorkflow:
    """Execute real callables under a Table I scheduling configuration.

    Parameters
    ----------
    spec:
        The workflow shape (ranks, iterations; the snapshot spec is used
        for device-delay emulation only).
    writer_fn / reader_fn:
        The actual per-iteration application callables.
    emulate_device:
        Inject model-derived transfer delays around publishes/consumes.
    time_scale:
        Multiplier on emulated delays (e.g. 0.01 replays the modelled
        timing 100x faster).
    """

    def __init__(
        self,
        spec: WorkflowSpec,
        writer_fn: WriterFn,
        reader_fn: ReaderFn,
        emulate_device: bool = False,
        time_scale: float = 1.0,
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        retained_versions: int = 2,
    ) -> None:
        if time_scale < 0:
            raise ConfigurationError(f"time_scale must be >= 0, got {time_scale}")
        self.spec = spec
        self.writer_fn = writer_fn
        self.reader_fn = reader_fn
        self.emulate_device = emulate_device
        self.time_scale = time_scale
        self.cal = cal
        self.retained_versions = retained_versions

    # ------------------------------------------------------------------
    def _emulated_delay(self, kind: str, remote: bool) -> float:
        """Per-iteration transfer delay from the analytic standalone model."""
        if not self.emulate_device:
            return 0.0
        component = self.spec.writer if kind == "write" else self.spec.reader
        profile = component_iteration_profile(
            component, self.cal, self.spec.stack_name, remote=remote
        )
        return profile.io_seconds * self.time_scale

    def run(self, config: SchedulerConfig) -> RealRunResult:
        """Execute the workflow under *config*; returns wall-clock results."""
        spec = self.spec
        # Serial execution must retain every version: no reader consumes
        # anything until all writers finish, so the ring cannot recycle.
        # (This is the real PMEM-capacity cost of serial scheduling.)
        retained = (
            spec.iterations if not config.parallel else self.retained_versions
        )
        channel = InMemoryChannel(n_streams=spec.ranks, retained_versions=retained)
        errors: List[BaseException] = []
        errors_lock = threading.Lock()
        outputs: Dict[Tuple[int, int], Any] = {}
        outputs_lock = threading.Lock()
        writers_done = threading.Barrier(spec.ranks + 1)  # ranks + coordinator
        readers_may_start = threading.Event()
        write_delay = self._emulated_delay("write", remote=not config.writer_local)
        read_delay = self._emulated_delay("read", remote=not config.reader_local)

        def writer(rank: int) -> None:
            try:
                for iteration in range(spec.iterations):
                    payload = self.writer_fn(rank, iteration)
                    if write_delay:
                        time.sleep(write_delay)
                    channel.publish(rank, iteration, payload)
            except BaseException as exc:  # noqa: BLE001 - collected for caller
                with errors_lock:
                    errors.append(exc)
                channel.close()
            finally:
                try:
                    writers_done.wait(timeout=60)
                except threading.BrokenBarrierError:
                    pass

        def reader(rank: int) -> None:
            try:
                readers_may_start.wait()
                for iteration in range(spec.iterations):
                    payload = channel.consume(rank, iteration, timeout=60)
                    if read_delay:
                        time.sleep(read_delay)
                    output = self.reader_fn(rank, iteration, payload)
                    if output is not None:
                        with outputs_lock:
                            outputs[(rank, iteration)] = output
            except BaseException as exc:  # noqa: BLE001
                with errors_lock:
                    errors.append(exc)
                channel.close()

        writer_threads = [
            threading.Thread(target=writer, args=(rank,), name=f"writer-{rank}")
            for rank in range(spec.ranks)
        ]
        reader_threads = [
            threading.Thread(target=reader, args=(rank,), name=f"reader-{rank}")
            for rank in range(spec.ranks)
        ]

        start = time.perf_counter()
        for thread in writer_threads + reader_threads:
            thread.start()
        if config.parallel:
            readers_may_start.set()
        writers_done.wait(timeout=600)
        writer_end = time.perf_counter()
        if not config.parallel:
            readers_may_start.set()
        for thread in writer_threads:
            thread.join()
        for thread in reader_threads:
            thread.join()
        end = time.perf_counter()

        completed = (
            spec.iterations
            if not errors
            else min(channel.published_version(r) + 1 for r in range(spec.ranks))
        )
        return RealRunResult(
            config_label=config.label,
            makespan_seconds=end - start,
            writer_seconds=writer_end - start,
            reader_seconds=end - (writer_end if not config.parallel else start),
            iterations_completed=completed,
            reader_outputs=outputs,
            errors=errors,
        )
