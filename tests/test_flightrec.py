"""The black-box flight recorder: ring semantics and layer hooks.

The recorder is always-on-capable but strictly passive: plain-tuple
appends into a bounded deque, zero simulated yields.  The tests pin the
three contracts that make it safe to leave armed in production runs:

* bounded memory (ring wrap + dropped count, capped trigger list);
* every instrumented layer emits its events when armed (that none of
  them perturb the simulation is checked in ``test_observe.py``);
* disabled runs allocate nothing (``sim.flightrec`` stays ``None``).
"""

from __future__ import annotations

import pytest

from repro.common.units import MS
from repro.obs import FlightRecorder
from repro.system import KvSystem, tiny_config
from repro.telemetry import TelemetryConfig


class TestRecorderRing:
    def test_records_plain_tuples_in_order(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(10, "ckpt", "begin", 1, {"strategy": "x"})
        recorder.record(20, "ckpt", "end", 1)
        assert list(recorder.events) == [
            (10, "ckpt", "begin", 1, {"strategy": "x"}),
            (20, "ckpt", "end", 1, None)]
        assert len(recorder) == 2

    def test_ring_wraps_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for step in range(10):
            recorder.record(step, "layer", "kind")
        assert len(recorder) == 4
        assert recorder.dropped == 6
        assert [event[0] for event in recorder.events] == [6, 7, 8, 9]

    def test_tail_returns_most_recent(self):
        recorder = FlightRecorder(capacity=16)
        for step in range(6):
            recorder.record(step, "layer", "kind")
        assert [event[0] for event in recorder.tail(3)] == [3, 4, 5]

    def test_span_ids_sorted_distinct_non_none(self):
        recorder = FlightRecorder(capacity=16)
        recorder.record(1, "a", "x", 7)
        recorder.record(2, "b", "y", None)
        recorder.record(3, "c", "z", 3)
        recorder.record(4, "d", "w", 7)
        assert recorder.span_ids() == [3, 7]

    def test_trip_lands_in_ring_and_trigger_list(self):
        recorder = FlightRecorder(capacity=16)
        recorder.trip(42, "crash", {"kind": "power_cut"})
        assert recorder.first_trigger == (42, "crash",
                                          {"kind": "power_cut"})
        assert recorder.events[-1][:3] == (42, "incident", "trigger")

    def test_trigger_list_is_capped(self):
        from repro.obs.flightrec import MAX_TRIGGERS
        recorder = FlightRecorder(capacity=4)
        for step in range(200):
            recorder.trip(step, "crash")
        assert len(recorder.triggers) == MAX_TRIGGERS
        assert recorder.first_trigger[0] == 0


class TestWiring:
    def test_disabled_run_allocates_no_recorder(self):
        system = KvSystem(tiny_config())
        assert system.flightrec is None
        assert system.sim.flightrec is None

    def test_config_flag_arms_recorder(self):
        system = KvSystem(tiny_config(flightrec=True))
        assert system.flightrec is not None
        assert system.sim.flightrec is system.flightrec


class TestLayerHooks:
    @pytest.fixture(scope="class")
    def recorded_run(self):
        # The burst-prone gated scenario: checkpoints freeze queries.
        system = KvSystem(tiny_config(
            flightrec=True, trace=True, lock_queries_during_checkpoint=True,
            telemetry=TelemetryConfig(interval_ns=1 * MS)))
        system.run()
        return system

    def kinds(self, recorder):
        return {(event[1], event[2]) for event in recorder.events}

    def test_checkpoint_lifecycle_recorded(self, recorded_run):
        kinds = self.kinds(recorded_run.flightrec)
        assert ("ckpt", "begin") in kinds
        assert ("ckpt", "end") in kinds
        assert ("ckpt", "phase_begin") in kinds
        assert ("ckpt", "phase_end") in kinds

    def test_checkpoint_events_carry_trace_span_ids(self, recorded_run):
        recorder = recorded_run.flightrec
        span_ids = recorder.span_ids()
        assert span_ids, "traced gated run must link spans"
        exported = {span.span_id
                    for span in recorded_run.sim.tracer.spans()}
        assert set(span_ids) <= exported

    def test_watchdog_edges_recorded(self, recorded_run):
        kinds = self.kinds(recorded_run.flightrec)
        assert ("telemetry", "watchdog_fired") in kinds

    def test_degraded_entry_trips_recorder(self, make_system):
        system = make_system(flightrec=True)
        system.ssd.ftl.enter_degraded("spare blocks exhausted")
        recorder = system.flightrec
        assert ("ftl", "degraded") in self.kinds(recorder)
        assert recorder.first_trigger[1] == "degraded_entry"

    def test_block_retirement_recorded(self, make_system):
        system = make_system(flightrec=True)
        ftl = system.ssd.ftl
        units = 0
        while not ftl.allocator.full_blocks and units < 8_192:
            ftl.preload(units, 256,
                        tags=[f"t{units + s}" for s in range(256)])
            units += 256
        victim = sorted(ftl.allocator.full_blocks)[0]
        ftl.retire_block(victim, cause="program_fail")
        events = [event for event in system.flightrec.events
                  if event[1:3] == ("ftl", "block_retired")]
        assert events and events[0][4]["cause"] == "program_fail"
        assert events[0][4]["block"] == victim

    def test_power_cut_trips_crash_trigger(self, make_system):
        from repro.common.rng import SeededRng
        from repro.fault.crash import power_cut
        system = make_system(flightrec=True)
        system.load()
        power_cut(system, SeededRng(3).fork("flightrec-test"))
        assert system.flightrec.first_trigger[1] == "crash"

