"""Tests for the real (threaded) runtime."""

import threading
import time

import numpy as np
import pytest

from repro.core.configs import P_LOCR, S_LOCW
from repro.errors import StorageError
from repro.runtime.channel import InMemoryChannel
from repro.runtime.threaded import ThreadedWorkflow
from repro.storage.objects import SnapshotSpec
from repro.units import KiB
from repro.workflow.spec import WorkflowSpec


class TestInMemoryChannel:
    def test_publish_consume_roundtrip(self):
        channel = InMemoryChannel(n_streams=1)
        channel.publish(0, 0, "payload")
        assert channel.consume(0, 0) == "payload"

    def test_out_of_order_publish_rejected(self):
        channel = InMemoryChannel(n_streams=1)
        with pytest.raises(StorageError, match="out of order"):
            channel.publish(0, 3, "x")

    def test_consume_blocks_until_published(self):
        channel = InMemoryChannel(n_streams=1)
        received = []

        def consumer():
            received.append(channel.consume(0, 0, timeout=5))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        assert received == []
        channel.publish(0, 0, 42)
        thread.join(timeout=5)
        assert received == [42]

    def test_consume_timeout(self):
        channel = InMemoryChannel(n_streams=1)
        with pytest.raises(StorageError, match="timed out"):
            channel.consume(0, 0, timeout=0.01)

    def test_ring_back_pressure(self):
        """A writer more than `retained_versions` ahead blocks."""
        channel = InMemoryChannel(n_streams=1, retained_versions=2)
        channel.publish(0, 0, "a")
        channel.publish(0, 1, "b")
        blocked = threading.Event()

        def overrun():
            channel.publish(0, 2, "c")  # version 2 - consumed(-1) = 3 > 2
            blocked.set()

        thread = threading.Thread(target=overrun)
        thread.start()
        time.sleep(0.02)
        assert not blocked.is_set()
        channel.consume(0, 0)  # frees a slot
        thread.join(timeout=5)
        assert blocked.is_set()

    def test_eviction_keeps_ring_bounded(self):
        channel = InMemoryChannel(n_streams=1, retained_versions=2)
        for version in range(5):
            channel.publish(0, version, version)
            channel.consume(0, version)
        assert len(channel._data[0]) <= 2

    def test_close_wakes_waiters(self):
        channel = InMemoryChannel(n_streams=1)
        failures = []

        def consumer():
            try:
                channel.consume(0, 0, timeout=10)
            except StorageError as exc:
                failures.append(exc)

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.02)
        channel.close()
        thread.join(timeout=5)
        assert failures

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            InMemoryChannel(n_streams=0)
        with pytest.raises(StorageError):
            InMemoryChannel(n_streams=1, retained_versions=0)


def small_spec(ranks=2, iterations=3):
    return WorkflowSpec(
        name="threaded@2",
        ranks=ranks,
        iterations=iterations,
        snapshot=SnapshotSpec(object_bytes=2 * KiB, objects_per_snapshot=8),
    )


class TestThreadedWorkflow:
    def make(self, **kw):
        def writer_fn(rank, iteration):
            return np.full(256, rank * 100 + iteration, dtype=np.float64)

        def reader_fn(rank, iteration, payload):
            return float(payload.sum())

        return ThreadedWorkflow(small_spec(), writer_fn, reader_fn, **kw)

    def test_parallel_run_moves_real_data(self):
        result = self.make().run(P_LOCR)
        assert result.ok
        assert result.iterations_completed == 3
        # rank 1, iteration 2: 256 elements of value 102.
        assert result.reader_outputs[(1, 2)] == pytest.approx(256 * 102.0)

    def test_serial_run_orders_components(self):
        result = self.make().run(S_LOCW)
        assert result.ok
        # In serial mode the reader phase happens after the writer phase.
        assert result.reader_seconds >= 0
        assert len(result.reader_outputs) == 2 * 3

    def test_writer_exception_surfaces(self):
        def bad_writer(rank, iteration):
            raise RuntimeError("writer failed")

        workflow = ThreadedWorkflow(small_spec(), bad_writer, lambda r, i, p: None)
        result = workflow.run(P_LOCR)
        assert not result.ok
        assert any("writer failed" in str(e) for e in result.errors)

    def test_emulated_device_slows_run(self):
        # Comparing the wall-clock makespans of two runs is flaky: the
        # payloads are tiny, so both runs are dominated by scheduler noise.
        # Instead check the mechanism: emulation injects a model-derived
        # sleep per publish/consume, and time.sleep guarantees *at least*
        # the requested duration — so the makespan has a deterministic
        # floor of iterations * delay, regardless of machine load.
        fast = self.make()
        assert fast._emulated_delay("write", remote=not P_LOCR.writer_local) == 0.0

        slow = self.make(emulate_device=True, time_scale=0.02)
        write_delay = slow._emulated_delay("write", remote=not P_LOCR.writer_local)
        read_delay = slow._emulated_delay("read", remote=not P_LOCR.reader_local)
        assert write_delay > 0
        assert read_delay > 0

        result = slow.run(P_LOCR)
        assert result.ok
        iterations = slow.spec.iterations
        # Each writer thread sleeps write_delay per iteration sequentially;
        # readers add read_delay per consumed version on the critical path.
        assert result.makespan_seconds >= iterations * write_delay

    def test_negative_time_scale_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            self.make(time_scale=-1)
