"""Unit tests for the Optane device resource and space accounting."""

import pytest

from repro.errors import StorageError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDevice, OptaneDeviceResource
from repro.sim.flow import Flow, ResourceLoad
from repro.units import GB, GiB, MiB

CAL = DEFAULT_CALIBRATION


def device_resource():
    return OptaneDeviceResource("pmem[test]", CAL)


def flow(kind="write", remote=False, op_bytes=64 * MiB, self_cap=1e18):
    return Flow(
        nbytes=1.0,
        kind=kind,
        remote=remote,
        resources=(),
        self_cap=self_cap,
        op_bytes=op_bytes,
    )


def load(**kw):
    defaults = dict(read_op_bytes=64 * MiB, write_op_bytes=64 * MiB)
    defaults.update(kw)
    return ResourceLoad(**defaults)


class TestShares:
    def test_solo_local_writer_gets_single_thread_rate(self):
        share = device_resource().share(
            load(n_write_local=1.0, raw_write_local=1), flow("write")
        )
        assert share == pytest.approx(CAL.single_thread_write(), rel=0.01)

    def test_solo_local_reader_gets_single_thread_rate(self):
        share = device_resource().share(
            load(n_read_local=1.0, raw_read_local=1), flow("read")
        )
        assert share == pytest.approx(CAL.single_thread_read(), rel=0.01)

    def test_writers_share_capacity(self):
        device_load = load(n_write_local=8.0, raw_write_local=8)
        share = device_resource().share(device_load, flow("write"))
        assert share * 8 <= CAL.local_write_peak

    def test_reads_crushed_by_many_writers(self):
        quiet = device_resource().share(
            load(n_read_local=8.0, raw_read_local=8), flow("read")
        )
        mixed = device_resource().share(
            load(
                n_read_local=8.0,
                raw_read_local=8,
                n_write_local=24.0,
                raw_write_local=24,
            ),
            flow("read"),
        )
        assert mixed < 0.4 * quiet

    def test_remote_write_pays_thread_cap(self):
        share = device_resource().share(
            load(n_write_remote=1.0, raw_write_remote=1), flow("write", remote=True)
        )
        assert share <= CAL.remote_write_thread_cap

    def test_remote_write_knee_at_24_raw_streams(self):
        local = device_resource().share(
            load(n_write_local=24.0, raw_write_local=24), flow("write")
        )
        remote = device_resource().share(
            load(n_write_remote=24.0, raw_write_remote=24), flow("write", remote=True)
        )
        assert remote < 0.85 * local

    def test_sparse_remote_writers_escape_knee(self):
        """24 raw writers at low duty (software-bound) keep most bandwidth."""
        dense = device_resource().share(
            load(n_write_remote=24.0, raw_write_remote=24), flow("write", remote=True)
        )
        sparse = device_resource().share(
            load(n_write_remote=2.0, raw_write_remote=24), flow("write", remote=True)
        )
        # Sparse load: per-thread share is computed at low effective
        # concurrency, so it is *larger*.
        assert sparse > dense


class TestPollers:
    def test_poller_bookkeeping(self):
        resource = device_resource()
        resource.add_poller(remote=True)
        resource.add_poller(remote=False)
        assert resource.poller_count == 2
        resource.remove_poller(remote=True)
        resource.remove_poller(remote=False)
        assert resource.poller_count == 0

    def test_remove_unregistered_poller_raises(self):
        with pytest.raises(StorageError):
            device_resource().remove_poller(remote=False)

    def test_pollers_slow_writes(self):
        resource = device_resource()
        device_load = load(n_write_local=8.0, raw_write_local=8)
        before = resource.share(device_load, flow("write"))
        for _ in range(16):
            resource.add_poller(remote=True)
        after = resource.share(device_load, flow("write"))
        assert after < before


class TestCongestionEwma:
    def test_ewma_rises_under_sustained_remote_writes(self):
        resource = device_resource()
        device_load = load(n_write_remote=16.0, raw_write_remote=16)
        device_load.congestion_write_remote = 16.0
        resource.observe(0.0, device_load)
        resource.observe(5.0, device_load)
        assert resource.remote_write_ewma > 10.0

    def test_ewma_decays_when_idle(self):
        resource = device_resource()
        device_load = load(n_write_remote=16.0, raw_write_remote=16)
        device_load.congestion_write_remote = 16.0
        resource.observe(0.0, device_load)
        resource.observe(5.0, device_load)  # hot
        resource.observe(5.0 + 1e-9, ResourceLoad())  # writes stop
        resource.observe(20.0, ResourceLoad())  # long idle gap
        assert resource.remote_write_ewma < 1.0

    def test_idle_gap_cools_before_new_burst(self):
        """The EWMA integrates the *held* load, not the incoming one."""
        resource = device_resource()
        hot = load(n_write_remote=24.0, raw_write_remote=24)
        hot.congestion_write_remote = 24.0
        resource.observe(0.0, ResourceLoad())  # idle interval [0, 10)
        resource.observe(10.0, hot)  # burst arrives at t=10
        # The arrival observation itself must not have warmed the EWMA.
        assert resource.remote_write_ewma == pytest.approx(0.0, abs=1e-9)


class TestOptaneDevice:
    def test_capacity_accounting(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=10 * GiB)
        device.allocate(4 * GiB)
        assert device.allocated_bytes == 4 * GiB
        assert device.free_bytes == 6 * GiB
        device.free(4 * GiB)
        assert device.allocated_bytes == 0

    def test_over_allocation_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError, match="exhausted"):
            device.allocate(2 * GiB)

    def test_invalid_free_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError):
            device.free(1)

    def test_negative_allocation_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError):
            device.allocate(-1)

    def test_default_capacity_is_paper_testbed(self):
        """§V: 6 x 512 GB Optane DIMMs per socket."""
        assert OptaneDevice(socket_id=0).capacity_bytes == 6 * 512 * GiB

    def test_interleave_matches_calibration(self):
        device = OptaneDevice(socket_id=0)
        assert device.interleave.chunk_bytes == CAL.interleave_chunk
        assert device.interleave.ndimms == CAL.dimms_per_socket
