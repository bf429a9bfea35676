"""Tests for ``repro.trace``: span invariants, export schema, overhead.

Covers the tracer's structural guarantees (nesting/ordering, ring bound,
exact aggregates under eviction) and the Chrome ``trace_event`` export
(valid JSON, monotone timestamps, one track per component).  That tracing
costs nothing is checked with the other planes in ``test_observe.py``.
"""

import json

import pytest

from repro.sim.core import Simulator
from repro.system.config import tiny_config
from repro.system.system import KvSystem
from repro.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TraceConfig,
    Tracer,
    summarize,
    trace_document,
    validate_trace,
)
from repro.trace.metrics import (
    component_table,
    histogram_rows,
    phase_table,
    queue_split_table,
)


class FakeSim:
    """A bare clock: the only part of Simulator the tracer reads."""

    def __init__(self):
        self.now = 0


class TestTracerCore:
    def test_begin_end_records_duration(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        span = tracer.begin("ftl", "write", lba=8, bytes=4096)
        sim.now = 500
        tracer.end(span, flash_pages=1)
        assert span.finished
        assert span.duration_ns == 500
        assert span.attrs == {"lba": 8, "bytes": 4096, "flash_pages": 1}
        assert tracer.stage_stats[("ftl", "write")].count == 1
        assert tracer.stage_stats[("ftl", "write")].bytes == 4096

    def test_end_twice_raises(self):
        tracer = Tracer(FakeSim())
        span = tracer.begin("ssd", "read")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_explicit_parent_nesting_validates(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        parent = tracer.begin("engine", "put")
        sim.now = 10
        child = tracer.begin("ssd", "write", parent=parent)
        sim.now = 20
        tracer.end(child)
        sim.now = 30
        tracer.end(parent)
        assert child.parent is parent
        assert child.parent_id == parent.span_id
        assert tracer.validate() == []

    def test_validate_flags_child_outliving_parent(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        parent = tracer.begin("engine", "put")
        child = tracer.begin("ssd", "write", parent=parent)
        sim.now = 10
        tracer.end(parent)
        sim.now = 20
        tracer.end(child)  # closes after its parent: invalid
        problems = tracer.validate()
        assert len(problems) == 1
        assert "outlives parent" in problems[0]

    def test_ring_bound_with_exact_aggregates(self):
        sim = FakeSim()
        tracer = Tracer(sim, TraceConfig(max_spans_per_component=4))
        for index in range(10):
            span = tracer.begin("flash", "read_page")
            sim.now += 100
            tracer.end(span)
        assert len(tracer.spans("flash")) == 4  # ring keeps the tail
        assert tracer.dropped == 6
        # ...but the aggregates saw every span.
        stat = tracer.stage_stats[("flash", "read_page")]
        assert stat.count == 10
        assert stat.total_ns == 1000
        assert stat.mean_ns == 100.0

    def test_open_span_accounting(self):
        tracer = Tracer(FakeSim())
        tracer.begin("client", "read")
        done = tracer.begin("client", "update")
        tracer.end(done)
        assert tracer.open_spans == 1

    def test_instants_suppressed_when_configured(self):
        tracer = Tracer(FakeSim(), TraceConfig(keep_instants=False))
        assert tracer.instant("aligner", "layout") is None
        assert tracer.spans() == []

    def test_checkpoint_phase_folding(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        root = tracer.begin("ckpt", "checkpoint", strategy="checkin")
        for name, duration in (("journal_scan", 10), ("cow_remap", 30),
                               ("cow_remap", 5), ("dealloc", 7)):
            phase = tracer.begin("ckpt", name, parent=root)
            sim.now += duration
            tracer.end(phase)
        tracer.end(root)
        assert root.phases == {"journal_scan": 10, "cow_remap": 35,
                               "dealloc": 7}
        assert len(tracer.checkpoint_summaries) == 1
        summary = tracer.checkpoint_summaries[0]
        assert summary["strategy"] == "checkin"
        assert summary["duration_ns"] == 52
        assert summary["phases"]["cow_remap"] == 35
        # Phase spans are not themselves checkpoint roots.
        derived = summarize(tracer)
        assert derived.checkpoint_count == 1
        assert derived.phase_fraction("cow_remap") == pytest.approx(35 / 52)

    def test_wallclock_tracer_advances(self):
        tracer = Tracer.wallclock()
        span = tracer.begin("recovery", "spor_scan")
        sum(range(1000))  # any work at all
        tracer.end(span)
        assert span.duration_ns > 0

    def test_histogram_rows_cover_all_observations(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        for duration in (1, 2, 3, 1000):
            span = tracer.begin("ftl", "write")
            sim.now += duration
            tracer.end(span)
        rows = histogram_rows(tracer, "ftl", "write")
        assert sum(count for _label, count in rows) == 4
        assert histogram_rows(tracer, "ftl", "nothing") == []


class TestNullTracer:
    def test_null_span_is_a_shared_singleton(self):
        assert NULL_TRACER.begin("ftl", "write", lba=1) is NULL_SPAN
        assert NULL_TRACER.end(NULL_SPAN) is NULL_SPAN
        assert NULL_TRACER.instant("aligner", "layout") is None
        assert not NULL_TRACER.enabled

    def test_every_simulator_starts_disabled(self):
        assert Simulator().tracer is NULL_TRACER
        assert Simulator().tracer is Simulator().tracer  # shared, not per-sim


class TestExport:
    def _tracer(self):
        sim = FakeSim()
        tracer = Tracer(sim)
        outer = tracer.begin("engine", "put", key=3)
        sim.now = 100
        inner = tracer.begin("ssd", "write", parent=outer, track=1)
        sim.now = 250
        tracer.end(inner)
        tracer.end(outer)
        tracer.instant("aligner", "layout", logs=2)
        return tracer

    def test_document_roundtrips_and_validates(self):
        document = trace_document([("run", self._tracer())])
        decoded = json.loads(json.dumps(document))
        assert validate_trace(decoded) == []
        events = decoded["traceEvents"]
        names = {event["args"]["name"] for event in events
                 if event["ph"] == "M" and event["name"] == "process_name"}
        assert names == {"run/engine", "run/ssd", "run/aligner"}
        slices = [event for event in events if event["ph"] == "X"]
        timestamps = [event["ts"] for event in slices]
        assert timestamps == sorted(timestamps)
        assert any(event["ph"] == "i" for event in events)

    def test_two_runs_get_disjoint_pids(self):
        document = trace_document([("a", self._tracer()),
                                   ("b", self._tracer())])
        pids = {event["pid"]: event["args"]["name"]
                for event in document["traceEvents"]
                if event["ph"] == "M" and event["name"] == "process_name"}
        assert len(pids) == 6  # 3 components x 2 runs, no collisions
        assert {name.split("/")[0] for name in pids.values()} == {"a", "b"}

    def test_validate_catches_broken_documents(self):
        assert validate_trace([]) != []
        assert validate_trace({}) == ["missing traceEvents list"]
        bad_ts = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 5.0, "dur": 1},
            {"ph": "X", "name": "b", "pid": 1, "tid": 0, "ts": 2.0, "dur": 1},
        ]}
        assert any("monotone" in problem
                   for problem in validate_trace(bad_ts))
        bad_dur = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 1.0}]}
        assert any("dur" in problem for problem in validate_trace(bad_dur))


@pytest.fixture(scope="module")
def traced_run():
    """One small traced end-to-end run, shared by the assertions below."""
    config = tiny_config(mode="checkin", total_queries=800, trace=True)
    system = KvSystem(config)
    return system, system.run()


class TestTracedSystem:
    def test_spans_cover_the_stack(self, traced_run):
        system, _result = traced_run
        components = set(system.sim.tracer.components())
        # The acceptance floor: at least six distinct component tracks,
        # spanning host side and device side.
        assert {"client", "engine", "journal", "ssd", "ftl",
                "flash"} <= components

    def test_no_leaked_or_invalid_spans(self, traced_run):
        system, _result = traced_run
        tracer = system.sim.tracer
        assert tracer.validate() == []
        assert tracer.open_spans == 0

    def test_checkpoints_have_named_phases(self, traced_run):
        _system, result = traced_run
        summary = result.trace_summary
        assert summary is not None
        assert summary.checkpoint_count >= 1
        assert summary.phase_totals  # at least one named phase folded in
        assert set(summary.phase_totals) <= {
            "journal_scan", "journal_readback", "cow_remap", "data_write",
            "dealloc", "metadata_persist", "load_program"}

    def test_export_is_valid(self, traced_run):
        system, _result = traced_run
        document = trace_document([("checkin", system.sim.tracer)])
        assert validate_trace(json.loads(json.dumps(document))) == []

    def test_tables_render(self, traced_run):
        _system, result = traced_run
        summary = result.trace_summary
        assert "time in stage" in component_table(summary)
        assert "phase breakdown" in phase_table(summary)
        assert "queue-wait" in queue_split_table(summary)
