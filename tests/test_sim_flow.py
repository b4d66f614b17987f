"""Unit and property tests for the fluid-flow network."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDeviceResource
from repro.sim.engine import Engine
from repro.sim.flow import (
    CapacityResource,
    Flow,
    FlowNetwork,
    SolverMemo,
    solve_flow_set,
    solve_rates,
    solve_rates_counted,
)
from repro.units import KiB


def fixed_resource(capacity, name="r"):
    return CapacityResource(name, lambda load: capacity)


def make_flow(nbytes=100.0, kind="write", remote=False, resources=(), **kw):
    return Flow(
        nbytes=nbytes, kind=kind, remote=remote, resources=tuple(resources), **kw
    )


class TestFlowValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(SimulationError):
            make_flow(kind="copy")

    def test_negative_bytes_rejected(self):
        with pytest.raises(SimulationError):
            make_flow(nbytes=-1)

    def test_non_positive_self_cap_rejected(self):
        with pytest.raises(SimulationError):
            make_flow(self_cap=0)

    def test_op_bytes_defaults_to_payload(self):
        flow = make_flow(nbytes=500.0)
        assert flow.op_bytes == 500.0


class TestSolveRates:
    def test_no_flows(self):
        assert solve_rates([]) == {}

    def test_single_device_bound_flow_gets_capacity(self):
        r = fixed_resource(10.0)
        flow = make_flow(resources=[r])
        rates = solve_rates([flow])
        assert rates[flow] == pytest.approx(10.0)
        assert flow.duty == pytest.approx(1.0)

    def test_equal_sharing(self):
        r = fixed_resource(12.0)
        flows = [make_flow(resources=[r]) for _ in range(4)]
        rates = solve_rates(flows)
        for flow in flows:
            assert rates[flow] == pytest.approx(3.0)

    def test_counted_variant_matches_and_reports_iterations(self):
        r = fixed_resource(12.0)
        flows = [make_flow(resources=[r]) for _ in range(4)]
        rates, iterations = solve_rates_counted(flows)
        assert rates == solve_rates(flows)
        assert iterations >= 1

    def test_counted_variant_zero_iterations_for_no_flows(self):
        assert solve_rates_counted([]) == ({}, 0)

    def test_harmonic_combination_solo(self):
        # self cap == device capacity => achieved rate is half of either.
        r = fixed_resource(10.0)
        flow = make_flow(resources=[r], self_cap=10.0)
        rates = solve_rates([flow])
        assert rates[flow] == pytest.approx(5.0, rel=1e-3)

    def test_capacity_conservation_at_saturation(self):
        """n identical self-capped flows saturate to exactly sum(A) == C."""
        r = fixed_resource(10.0)
        flows = [make_flow(resources=[r], self_cap=10.0) for _ in range(4)]
        rates = solve_rates(flows)
        assert sum(rates.values()) == pytest.approx(10.0, rel=1e-3)

    def test_software_bound_flows_do_not_saturate(self):
        """Low self caps leave the device under-used (paper §VIII)."""
        r = fixed_resource(10.0)
        flows = [make_flow(resources=[r], self_cap=1.0) for _ in range(4)]
        rates = solve_rates(flows)
        assert sum(rates.values()) < 4.0
        # Each flow achieves nearly its software-capped rate.
        for rate in rates.values():
            assert rate == pytest.approx(1.0 / (1.0 / 1.0 + 1.0 / 10.0), rel=0.05)
        # And the converged duty cycle is low.
        assert all(f.duty < 0.2 for f in flows)

    def test_flow_without_constraints_raises(self):
        flow = make_flow()  # no resources, infinite self cap
        with pytest.raises(SimulationError, match="unbounded"):
            solve_rates([flow])

    def test_flow_with_only_self_cap(self):
        flow = make_flow(self_cap=3.0)
        rates = solve_rates([flow])
        assert rates[flow] == pytest.approx(3.0)

    def test_min_over_path_resources(self):
        narrow = fixed_resource(2.0, "narrow")
        wide = fixed_resource(100.0, "wide")
        flow = make_flow(resources=[narrow, wide])
        assert solve_rates([flow])[flow] == pytest.approx(2.0)

    def test_per_thread_cap_respected(self):
        r = CapacityResource("r", lambda load: 100.0, per_thread_cap_fn=lambda load: 5.0)
        flow = make_flow(resources=[r])
        assert solve_rates([flow])[flow] == pytest.approx(5.0)

    @given(
        n=st.integers(min_value=1, max_value=12),
        capacity=st.floats(min_value=1.0, max_value=1e9),
        self_cap=st.floats(min_value=0.1, max_value=1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_rates_positive_and_conservative(self, n, capacity, self_cap):
        """Rates are positive and never exceed capacity or the self cap."""
        r = fixed_resource(capacity)
        flows = [make_flow(resources=[r], self_cap=self_cap) for _ in range(n)]
        rates = solve_rates(flows)
        assert all(rate > 0 for rate in rates.values())
        assert all(rate <= self_cap * (1 + 1e-6) for rate in rates.values())
        assert sum(rates.values()) <= capacity * (1 + 1e-3)

    @given(n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_property_more_flows_less_each(self, n):
        """Per-flow rate is non-increasing in the number of sharers."""
        r = fixed_resource(10.0)

        def rate_with(k):
            flows = [make_flow(resources=[r]) for _ in range(k)]
            return solve_rates(flows)[flows[0]]

        assert rate_with(n + 1) <= rate_with(n) * (1 + 1e-9)


class TestFlowNetwork:
    def test_transfer_completes_at_expected_time(self):
        engine = Engine()
        net = FlowNetwork(engine)
        r = fixed_resource(10.0)

        def body():
            yield net.transfer(make_flow(nbytes=50.0, resources=[r]))

        engine.spawn(body(), name="p")
        engine.run()
        assert engine.now == pytest.approx(5.0)

    def test_zero_byte_transfer_completes_immediately(self):
        engine = Engine()
        net = FlowNetwork(engine)
        flow = make_flow(nbytes=0.0, resources=[fixed_resource(1.0)])
        event = net.transfer(flow)
        assert event.triggered

    def test_flow_reuse_rejected(self):
        engine = Engine()
        net = FlowNetwork(engine)
        flow = make_flow(nbytes=0.0, resources=[fixed_resource(1.0)])
        net.transfer(flow)
        with pytest.raises(SimulationError, match="reused"):
            net.transfer(flow)

    def test_rates_rebalance_when_flow_joins(self):
        """A second flow halves the first one's remaining progress rate."""
        engine = Engine()
        net = FlowNetwork(engine)
        r = fixed_resource(10.0)
        finish_times = {}

        def body(name, start, nbytes):
            yield start
            yield net.transfer(make_flow(nbytes=nbytes, resources=[r], label=name))
            finish_times[name] = engine.now

        # First flow alone for 1s (10 bytes done), then shares for the rest.
        engine.spawn(body("a", 0.0, 50.0), name="a")
        engine.spawn(body("b", 1.0, 50.0), name="b")
        engine.run()
        # a: 10 bytes alone + 40 at 5/s => 1 + 8 = 9s.
        assert finish_times["a"] == pytest.approx(9.0)
        # b: 40 bytes at 5/s (while a is active) + 10 at 10/s => 1+8+1 = 10s.
        assert finish_times["b"] == pytest.approx(10.0)

    def test_work_counters_accumulate(self):
        engine = Engine()
        net = FlowNetwork(engine)
        r = fixed_resource(10.0)

        def body(nbytes):
            yield net.transfer(make_flow(nbytes=nbytes, resources=[r]))

        engine.spawn(body(50.0), name="a")
        engine.spawn(body(30.0), name="b")
        engine.run()
        assert net.flows_completed == 2
        assert net.solver_iterations >= 2

    def test_active_flows_tracked(self):
        engine = Engine()
        net = FlowNetwork(engine)
        flow = make_flow(nbytes=10.0, resources=[fixed_resource(1.0)])

        def body():
            yield net.transfer(flow)

        engine.spawn(body(), name="p")
        engine.step()  # start the process; the flow becomes active
        assert flow in net.active_flows
        engine.run()
        assert net.active_flows == ()

    def test_poke_recomputes_after_state_change(self):
        """Changing a stateful resource and poking adjusts in-flight rates."""
        engine = Engine()
        net = FlowNetwork(engine)
        state = {"capacity": 10.0}
        r = CapacityResource("mutable", lambda load: state["capacity"])

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[r]))

        def throttle():
            state["capacity"] = 5.0
            net.poke()

        engine.spawn(body(), name="p")
        engine.schedule(2.0, throttle)
        engine.run()
        # 20 bytes in the first 2s, remaining 80 at 5/s => 2 + 16 = 18s.
        assert engine.now == pytest.approx(18.0)

    def test_observe_called_with_idle_load_on_drain(self):
        observed = []

        class Recording(CapacityResource):
            def observe(self, now, load):
                observed.append((now, load.raw_total))

        engine = Engine()
        net = FlowNetwork(engine)
        r = Recording("rec", lambda load: 10.0)

        def body():
            yield net.transfer(make_flow(nbytes=10.0, resources=[r]))

        engine.spawn(body(), name="p")
        engine.run()
        # Final observation shows the resource idle.
        assert observed[-1][1] == 0


class TestDisjointResources:
    """Flows on unrelated resources share one solve and stay independent."""

    def test_completion_on_one_resource_keeps_other_rates(self):
        engine = Engine()
        net = FlowNetwork(engine)
        ra = CapacityResource("a", lambda load: 10.0)
        rb = CapacityResource("b", lambda load: 10.0)
        done = {}

        def body(name, resource, nbytes):
            yield net.transfer(
                make_flow(nbytes=nbytes, resources=[resource], label=name)
            )
            done[name] = engine.now

        engine.spawn(body("a", ra, 50.0), name="a")
        engine.spawn(body("b1", rb, 30.0), name="b1")
        engine.spawn(body("b2", rb, 80.0), name="b2")
        engine.run()
        assert done["a"] == pytest.approx(5.0)
        assert done["b1"] == pytest.approx(6.0)  # 30 B at 5 B/s
        assert done["b2"] == pytest.approx(11.0)  # 30 B at 5 + 50 B at 10

    def test_targeted_poke_applies_new_capacity(self):
        """poke(resource) on a token-less resource re-solves with its new
        capacity and leaves flows elsewhere at their rates."""
        engine = Engine()
        net = FlowNetwork(engine)
        state = {"capacity": 10.0}
        ra = CapacityResource("steady", lambda load: 10.0)
        rb = CapacityResource("mutable", lambda load: state["capacity"])
        done = {}

        def body(name, resource, nbytes):
            yield net.transfer(
                make_flow(nbytes=nbytes, resources=[resource], label=name)
            )
            done[name] = engine.now

        def throttle():
            state["capacity"] = 5.0
            net.poke(rb)

        engine.spawn(body("steady", ra, 100.0), name="steady")
        engine.spawn(body("victim", rb, 100.0), name="victim")
        engine.schedule(2.0, throttle)
        engine.run()
        assert done["steady"] == pytest.approx(10.0)
        assert done["victim"] == pytest.approx(18.0)  # 20 B at 10 + 80 at 5


class TestPokeDeferral:
    def test_poke_defers_solve_to_flush(self):
        """Same-instant poke bursts cost one solve, not one per poke."""
        engine = Engine()
        net = FlowNetwork(engine)
        state = {"capacity": 10.0}
        r = CapacityResource("mutable", lambda load: state["capacity"])

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[r]))

        recorded = {}

        def burst():
            state["capacity"] = 5.0
            before = net.recompute_count
            coalesced = net.recomputes_coalesced
            for _ in range(3):
                net.poke()
            recorded["solved_inline"] = net.recompute_count - before
            recorded["absorbed"] = net.recomputes_coalesced - coalesced

        engine.spawn(body(), name="p")
        engine.schedule(2.0, burst)
        engine.run()
        assert recorded["solved_inline"] == 0  # deferred to the flush
        assert recorded["absorbed"] == 2  # pokes 2 and 3 fold into 1
        assert engine.now == pytest.approx(18.0)


class TestGtcReuse:
    def test_gtc_workflow_reuses_solver_work(self):
        """The historical GTC pathology — memo hit rate pinned at 0.0 —
        stays fixed: read-only phases memo-hit across the congestion EWMA's
        drift under the default solver."""
        from repro.apps.gtc import gtc_workflow
        from repro.core.configs import P_LOCR
        from repro.obs.capture import observe_workflow

        observation = observe_workflow(
            gtc_workflow(ranks=4, iterations=2), P_LOCR
        )
        stats = observation.solver_stats
        hits = stats.get("solver_memo_hits", 0)
        attempts = hits + stats.get("solver_memo_misses", 0)
        assert attempts > 0 and hits / attempts > 0


def _memo_flow_set():
    """Interacting classes over the device model and a shared link, with
    some flows resuming mid-transfer at their own duties."""
    device = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)
    link = CapacityResource("link", lambda load: 8e9 / (1.0 + 0.1 * load.n_total))
    flows = [
        make_flow(
            kind="write",
            remote=True,
            resources=[device, link],
            self_cap=2e9,
            op_bytes=256 * KiB,
            issue_weight=0.5,
        )
        for _ in range(6)
    ] + [
        make_flow(kind="read", resources=[device], self_cap=4e9, op_bytes=64 * KiB)
        for _ in range(4)
    ]
    flows[2].duty = 0.4
    flows[7].duty = 0.7
    return flows


def _twin(flow):
    twin = make_flow(
        nbytes=flow.nbytes,
        kind=flow.kind,
        remote=flow.remote,
        resources=flow.resources,
        self_cap=flow.self_cap,
        op_bytes=flow.op_bytes,
        issue_weight=flow.issue_weight,
    )
    twin.duty = flow.duty
    return twin


class TestMemoKey:
    def test_replayed_solve_matches_cold_solve_bit_for_bit(self):
        template = _memo_flow_set()
        memo = SolverMemo()
        first = solve_flow_set([_twin(f) for f in template], memo=memo)
        replayed_flows = [_twin(f) for f in template]
        replayed = solve_flow_set(replayed_flows, memo=memo)
        cold_flows = [_twin(f) for f in template]
        cold = solve_flow_set(cold_flows)
        assert not first.memo_hit and replayed.memo_hit
        assert replayed.iterations == cold.iterations > 0
        assert replayed.classes == cold.classes > 1
        for rf, cf in zip(replayed_flows, cold_flows):
            assert replayed.rates[rf] == cold.rates[cf]  # exact
            assert rf.duty == cf.duty

    def test_one_ulp_duty_difference_misses(self):
        template = _memo_flow_set()
        memo = SolverMemo()
        solve_flow_set([_twin(f) for f in template], memo=memo)
        nudged = [_twin(f) for f in template]
        nudged[7].duty = math.nextafter(nudged[7].duty, 0.0)
        again = solve_flow_set(nudged, memo=memo)
        assert again.memo_attempted and not again.memo_hit
        assert len(memo) == 2

    def test_equal_signatures_share_one_interned_id(self):
        memo = SolverMemo()
        a, b, c = _memo_flow_set()[4:7]
        assert memo.intern(a) == memo.intern(b) != memo.intern(c)

    def test_equal_field_flows_are_distinct_keys(self):
        r = fixed_resource(10.0)
        a = make_flow(resources=[r], label="same")
        b = make_flow(resources=[r], label="same")
        assert a != b and a == a
        assert len({a: 1, b: 2}) == 2
        rates = solve_rates([a, b])
        assert len(rates) == 2
        assert rates[a] == rates[b] == pytest.approx(5.0)
