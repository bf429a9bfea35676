"""Telemetry pipeline: registry, sampler, watchdogs, export, overhead.

The tentpole invariants:

* a sampled run covers every instrumented layer with per-tenant and
  aggregate series;
* SLO watchdogs are edge-triggered with debounce;
* the JSONL dump round-trips through the validator.

That sampling costs nothing is checked with the other planes in
``test_observe.py``.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.common.scope import active_scope
from repro.common.units import MS
from repro.sim.core import Simulator
from repro.system import observe
from repro.system.config import tiny_config
from repro.system.system import run_config
from repro.telemetry import (
    DegradedEntryWatchdog,
    MetricRegistry,
    Series,
    TelemetryConfig,
    ThresholdWatchdog,
    WatchdogBank,
    validate_telemetry_file,
    write_telemetry_jsonl,
)
from repro.telemetry.names import phase_totals, queue_split, safe_ratio
from repro.telemetry.sampler import TelemetrySampler


def sampled_config(**overrides):
    overrides.setdefault(
        "telemetry", TelemetryConfig(interval_ns=100_000))
    return tiny_config(**overrides)


class TestNamesHelpers:
    def test_safe_ratio(self):
        assert safe_ratio(6, 3) == 2.0
        assert safe_ratio(1, 0) == 0.0
        assert safe_ratio(1, 0, default=float("inf")) == float("inf")

    def test_safe_ratio_is_reexported_from_system_metrics(self):
        from repro.system.metrics import safe_ratio as canonical
        assert canonical is safe_ratio

    def test_phase_totals_sums_across_checkpoints(self):
        ckpts = [{"phases": {"cow_remap": 5, "data_write": 2}},
                 {"phases": {"cow_remap": 3}}]
        assert phase_totals(ckpts) == {"cow_remap": 8, "data_write": 2}

    def test_queue_split_groups_by_component(self):
        class Stat:
            def __init__(self, q, s):
                self.queue_ns, self.service_ns = q, s
        stats = {("ftl", "read"): Stat(5, 10),
                 ("ftl", "write"): Stat(1, 2),
                 ("flash", "program"): Stat(0, 7)}
        split = queue_split(stats)
        assert split["ftl"] == {"queue_ns": 6, "service_ns": 12}
        assert split["flash"] == {"queue_ns": 0, "service_ns": 7}


class TestRegistry:
    def test_duplicate_probe_rejected(self):
        registry = MetricRegistry()
        registry.counter("x", "engine", lambda: 0)
        with pytest.raises(ConfigError):
            registry.counter("x", "engine", lambda: 1)

    def test_tenant_scopes_are_distinct(self):
        registry = MetricRegistry()
        registry.counter("x", "engine", lambda: 1)
        registry.counter("x", "engine", lambda: 2, tenant="t0")
        values = registry.sample()
        assert values[("", "x")] == 1
        assert values[("t0", "x")] == 2

    def test_series_ring_is_bounded(self):
        series = Series(name="x", layer="engine", kind="gauge",
                        tenant="", maxlen=4)
        for i in range(10):
            series.append(i, float(i))
        assert len(series) == 4
        assert series.values() == [6.0, 7.0, 8.0, 9.0]


class TestWatchdogs:
    def test_threshold_fires_and_clears_once(self):
        dog = ThresholdWatchdog("wd", "m", threshold=10.0)
        bank = WatchdogBank()
        bank.add(dog)
        edges = []
        for t, value in enumerate([5, 11, 12, 12, 5, 5, 11]):
            edges += bank.evaluate(t, {("", "m"): float(value)})
        kinds = [(e.kind, e.t_ns) for e in edges]
        assert kinds == [("fired", 1), ("cleared", 4), ("fired", 6)]

    def test_consecutive_debounce(self):
        dog = ThresholdWatchdog("wd", "m", threshold=10.0, consecutive=3)
        bank = WatchdogBank()
        bank.add(dog)
        edges = []
        for t, value in enumerate([11, 11, 5, 11, 11, 11]):
            edges += bank.evaluate(t, {("", "m"): float(value)})
        assert [(e.kind, e.t_ns) for e in edges] == [("fired", 5)]

    def test_degraded_entry_is_terminal(self):
        bank = WatchdogBank()
        bank.add(DegradedEntryWatchdog())
        edges = []
        for t, value in enumerate([0.0, 1.0, 1.0, 0.0]):
            edges += bank.evaluate(t, {("", "ftl.degraded"): value})
        assert [(e.kind, e.severity) for e in edges] == \
            [("fired", "error")]


class TestSampledRun:
    @pytest.fixture(scope="class")
    def run(self):
        return run_config(sampled_config())

    def test_layers_covered(self, run):
        layers = set(run.telemetry.layers_covered())
        assert {"engine", "journal", "checkpoint", "ftl", "gc",
                "flash", "host"} <= layers

    def test_at_least_eight_distinct_metrics(self, run):
        names = {series.name for series in run.telemetry.all_series()}
        assert len(names) >= 8

    def test_counters_are_monotonic(self, run):
        ops = run.telemetry.get("engine.ops").values()
        assert ops == sorted(ops)
        assert ops[-1] == run.metrics.operations

    def test_health_frames_recorded(self, run):
        assert len(run.telemetry.health.frames) > 0
        report = run.telemetry.health_report()
        assert report["spare_remaining"] >= 0
        assert report["degraded"] is False

    def test_sampler_daemon_stopped_at_teardown(self, run):
        # the run() drain completed, so the daemon cannot still be alive
        assert run.telemetry._process is None


class TestJsonlExport:
    def test_roundtrip_validates(self, tmp_path):
        run = run_config(sampled_config())
        path = tmp_path / "telemetry.jsonl"
        count = write_telemetry_jsonl(str(path), run.telemetry)
        assert count == len(path.read_text().splitlines())
        assert validate_telemetry_file(str(path)) == []

    def test_validator_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert validate_telemetry_file(str(bad))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert validate_telemetry_file(str(empty)) == \
            ["empty telemetry file"]

    def test_validator_catches_footer_mismatch(self, tmp_path):
        run = run_config(sampled_config())
        path = tmp_path / "telemetry.jsonl"
        write_telemetry_jsonl(str(path), run.telemetry)
        lines = path.read_text().splitlines()
        footer = json.loads(lines[-1])
        footer["series"] += 1
        lines[-1] = json.dumps(footer)
        path.write_text("\n".join(lines) + "\n")
        assert any("footer" in p
                   for p in validate_telemetry_file(str(path)))


class TestGlobalSwitch:
    """An ``observe(telemetry=...)`` scope samples systems it did not build."""

    def test_switch_wires_sampler_into_plain_config(self):
        with observe(telemetry=TelemetryConfig(interval_ns=1 * MS)) as scope:
            assert active_scope() is scope
            run = run_config(tiny_config())
            assert run.telemetry is not None
            assert run.telemetry.samples > 0
        assert active_scope() is None
        labels = [system.label for system in scope.systems]
        assert labels == [run.config.mode]
        assert run.telemetry.label == run.config.mode

    def test_labels_are_uniquified(self):
        with observe(telemetry=TelemetryConfig(interval_ns=1 * MS)) as scope:
            first = run_config(tiny_config())
            second = run_config(tiny_config())
        labels = [system.label for system in scope.systems]
        assert first.telemetry.label != second.telemetry.label
        assert labels == [first.telemetry.label, second.telemetry.label]
        assert len(set(labels)) == len(labels)


class TestManualSampler:
    def test_sample_once_without_process(self):
        registry = MetricRegistry()
        state = {"v": 0.0}
        registry.gauge("g", "engine", lambda: state["v"])
        sim = Simulator()
        sampler = TelemetrySampler(sim, registry)
        sampler.sample_once()
        state["v"] = 3.0
        sampler.sample_once()
        assert sampler.get("g").values() == [0.0, 3.0]
        assert sampler.samples == 2
