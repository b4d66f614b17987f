"""Unit tests for the probe API (counters, gauges, histograms, registry)
and the network hooks that feed it."""

import math

import pytest

from repro.errors import SimulationError
from repro.obs.hooks import NetworkHooks
from repro.obs.probes import (
    Counter,
    Gauge,
    Histogram,
    ProbeRegistry,
    UNDERFLOW_BUCKET,
)
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDeviceResource
from repro.sim.flow import CapacityResource, Flow, SolverMemo, solve_flow_set


class TestCounter:
    def test_accumulates_and_samples(self):
        counter = Counter("bytes")
        counter.add(1.0, 10.0)
        counter.add(2.0, 5.0)
        assert counter.total == 15.0
        assert counter.samples == [(1.0, 10.0), (2.0, 15.0)]

    def test_negative_increment_rejected(self):
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, -1.0)

    def test_non_finite_increment_rejected(self):
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, math.nan)
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, math.inf)


class TestGauge:
    def test_tracks_value_and_peak(self):
        gauge = Gauge("depth")
        gauge.set(0.0, 3.0)
        gauge.set(1.0, 7.0)
        gauge.set(2.0, 2.0)
        assert gauge.value == 2.0
        assert gauge.peak == 7.0

    def test_dedups_unchanged_values(self):
        gauge = Gauge("depth")
        gauge.set(0.0, 3.0)
        gauge.set(1.0, 3.0)
        gauge.set(2.0, 4.0)
        assert gauge.samples == [(0.0, 3.0), (2.0, 4.0)]

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            Gauge("depth").set(0.0, math.inf)


class TestHistogram:
    def test_summary_stats(self):
        histogram = Histogram("rate")
        for value in (1.0, 2.0, 4.0, 4.0):
            histogram.observe(0.0, value)
        assert histogram.count == 4
        assert histogram.sum == 11.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(2.75)

    def test_log2_buckets(self):
        histogram = Histogram("rate")
        histogram.observe(0.0, 1.5)  # bucket 0
        histogram.observe(0.0, 9.0)  # bucket 3
        histogram.observe(0.0, 0.0)  # underflow
        assert histogram.buckets == {0: 1, 3: 1, UNDERFLOW_BUCKET: 1}

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("rate").observe(0.0, math.nan)


class TestProbeRegistry:
    def test_get_or_create_returns_same_instrument(self):
        probes = ProbeRegistry()
        a = probes.counter("bytes", socket=0)
        b = probes.counter("bytes", socket=0)
        assert a is b

    def test_distinct_attrs_distinct_instruments(self):
        probes = ProbeRegistry()
        assert probes.counter("bytes", socket=0) is not probes.counter(
            "bytes", socket=1
        )

    def test_attr_order_does_not_matter(self):
        probes = ProbeRegistry()
        a = probes.counter("bytes", socket=0, direction="write")
        b = probes.counter("bytes", direction="write", socket=0)
        assert a is b
        assert a.label == "bytes{direction=write,socket=0}"

    def test_non_scalar_attr_rejected(self):
        with pytest.raises(SimulationError):
            ProbeRegistry().counter("bytes", socket=[0])

    def test_instruments_sorted(self):
        probes = ProbeRegistry()
        probes.gauge("zeta")
        probes.counter("beta")
        probes.counter("alpha", socket=1)
        probes.counter("alpha", socket=0)
        labels = [i.label for i in probes.instruments()]
        assert labels == ["alpha{socket=0}", "alpha{socket=1}", "beta", "zeta"]

    def test_counter_total_attrs_filter(self):
        probes = ProbeRegistry()
        probes.counter("bytes", socket=0, direction="write").add(0.0, 10.0)
        probes.counter("bytes", socket=1, direction="write").add(0.0, 5.0)
        probes.counter("bytes", socket=0, direction="read").add(0.0, 3.0)
        assert probes.counter_total("bytes") == 18.0
        assert probes.counter_total("bytes", direction="write") == 15.0
        assert probes.counter_total("bytes", socket=0) == 13.0
        assert probes.counter_total("bytes", socket=0, direction="read") == 3.0
        assert probes.counter_total("missing") == 0.0

    def test_find(self):
        probes = ProbeRegistry()
        wanted = probes.counter("bytes", socket=1)
        probes.counter("bytes", socket=0)
        assert probes.find("bytes", socket=1) is wanted
        assert probes.find("nope") is None

    def test_as_records_roundtrip_shape(self):
        probes = ProbeRegistry()
        probes.counter("bytes").add(1.0, 2.0)
        probes.gauge("depth").set(1.0, 3.0)
        probes.histogram("rate").observe(1.0, 4.0)
        records = list(probes.as_records())
        assert [r["kind"] for r in records] == ["counter", "gauge", "histogram"]
        assert records[0]["total"] == 2.0
        assert records[1]["peak"] == 3.0
        assert records[2]["count"] == 1


class _SizeSensitive(CapacityResource):
    """Overrides share() without declaring its fields: every signature
    field counts toward its projection."""

    def share(self, load, flow):
        return 1e9 / max(1.0, load.n_total) + flow.op_bytes + flow.self_cap * 1e-3


class TestNetworkHooksRateModel:
    def test_rate_model_matches_per_flow_evaluation(self):
        device = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)
        link = CapacityResource(
            "upi", capacity_fn=lambda load: 12e9, per_thread_cap_fn=lambda load: 5e9
        )
        sized = _SizeSensitive("sized")
        flows = []
        for index in range(16):
            kind = "read" if index % 3 else "write"
            remote = index % 2 == 1
            path = (device, link) if remote else (device,)
            if index % 4 == 0:
                path += (sized,)
            flows.append(
                Flow(
                    nbytes=1e9,
                    kind=kind,
                    remote=remote,
                    resources=path,
                    self_cap=(2e9, 3e9)[index % 2],
                    op_bytes=(4096.0, 65536.0, 2 * 1024.0**2)[index % 3],
                    issue_weight=0.5,
                )
            )
        # Half the flows are interned (sig >= 0), half never are (sig == -1).
        memo = SolverMemo()
        for flow in flows[::2]:
            memo.intern(flow)
        assert {flow.sig for flow in flows[1::2]} == {-1}
        result = solve_flow_set(flows)
        for flow in flows:
            flow.rate = result.rates[flow]

        probes = ProbeRegistry()
        NetworkHooks(probes).on_recompute(0.0, flows, result.loads)
        for resource, load in result.loads.items():
            expected = 0.0
            for flow in flows:
                if resource in flow.resources:
                    expected += resource.share(load, flow)
            gauge = probes.find("resource.rate_model", resource=resource.name)
            assert gauge.value == expected, resource.name
