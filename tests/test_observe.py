"""Observability planes: zero overhead, the ``observe()`` scope, no leaks.

Trace, telemetry, blame and the flight recorder share three contracts:

* **zero overhead** — switching a plane on never moves the simulation:
  the counter snapshot, the byte snapshot, the simulated end time and
  the metric summary are byte-identical to the plane-off run;
* **one switch** — :func:`repro.system.observe` arms planes for systems
  built inside it and collects them under one uniquified label each;
* **no leaks** — a system built outside any scope is registered nowhere,
  so its planes die with it.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.common.scope import active_scope
from repro.common.units import MS
from repro.obs import clear_blame
from repro.system import KvSystem, observe, tiny_config
from repro.telemetry import TelemetryConfig, clear_samplers
from repro.trace import NULL_TRACER, clear_runs

SMALL_ISC_B = dict(mode="isc_b", total_queries=600)
GATED_TRACED = dict(trace=True, lock_queries_during_checkpoint=True,
                    telemetry=TelemetryConfig(interval_ns=1 * MS))


def fingerprint(config) -> str:
    """Counters, bytes, simulated end time and metric summary of a run."""
    system = KvSystem(config)
    result = system.run()
    return json.dumps([system.ssd.stats.snapshot(),
                       system.ssd.stats.snapshot_bytes(),
                       system.sim.now,
                       result.metrics.summary()], sort_keys=True)


class TestZeroOverhead:
    @pytest.mark.parametrize("base, plane", [
        pytest.param(SMALL_ISC_B, dict(trace=True), id="trace"),
        pytest.param({}, dict(telemetry=TelemetryConfig(interval_ns=100_000)),
                     id="telemetry"),
        pytest.param(SMALL_ISC_B, dict(blame=True), id="blame"),
        pytest.param({}, dict(flightrec=True), id="flightrec"),
        pytest.param(GATED_TRACED, dict(flightrec=True),
                     id="flightrec-gated-traced"),
    ])
    def test_plane_on_is_free(self, base, plane):
        assert fingerprint(tiny_config(**base)) == \
            fingerprint(tiny_config(**base, **plane))

    def test_plain_run_builds_no_plane(self):
        system = KvSystem(tiny_config())
        result = system.run()
        assert system.sim.tracer is NULL_TRACER
        assert system.sim.flightrec is None
        assert result.trace_summary is None
        assert result.telemetry is None
        assert result.blame is None
        assert result.flightrec is None


class TestNoLeaks:
    def test_unscoped_run_dies_with_its_owner(self):
        system = KvSystem(tiny_config(
            trace=True, blame=True, flightrec=True,
            telemetry=TelemetryConfig(interval_ns=100_000)))
        result = system.run()
        refs = [weakref.ref(system), weakref.ref(system.sim.tracer),
                weakref.ref(system.telemetry),
                weakref.ref(system.blame_report)]
        del system, result
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


class TestObserveScope:
    def test_scope_arms_planes_on_plain_configs(self):
        telemetry = TelemetryConfig(interval_ns=1 * MS)
        with observe(trace=True, telemetry=telemetry, blame=True) as scope:
            first = KvSystem(tiny_config())
            second = KvSystem(tiny_config())
        assert scope.systems == [first, second]
        mode = first.config.mode
        assert [first.label, second.label] == [mode, f"{mode}#2"]
        for system in scope.systems:
            assert system.telemetry.label == system.label
            assert system.blame_report.label == system.label
        result = first.run()
        assert result.config.trace is True
        assert result.config.telemetry is telemetry
        assert result.config.blame is True
        assert result.trace_summary is not None
        assert result.telemetry.samples > 0
        assert result.blame.requests > 0

    def test_scope_arms_flightrec_on_plain_config(self):
        with observe(flightrec=True):
            result = KvSystem(tiny_config()).run()
        assert result.config.flightrec is True
        assert len(result.flightrec) > 0

    def test_config_telemetry_wins_over_scope(self):
        own = TelemetryConfig(interval_ns=100_000)
        with observe(telemetry=TelemetryConfig(interval_ns=1 * MS)):
            system = KvSystem(tiny_config(telemetry=own))
        assert system.config.telemetry is own
        assert system.telemetry.config is own

    def test_scope_closes_even_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with observe(trace=True):
                assert active_scope() is not None
                raise RuntimeError("boom")
        assert active_scope() is None
        assert KvSystem(tiny_config()).sim.tracer is NULL_TRACER

    def test_nested_scope_restores_the_outer_one(self):
        with observe(trace=True) as outer:
            with observe(blame=True) as inner:
                assert active_scope() is inner
            assert active_scope() is outer
        assert active_scope() is None

    def test_unscoped_system_is_labelled_by_mode(self):
        system = KvSystem(tiny_config(trace=True))
        assert system.label == system.config.mode
        assert system.sim.tracer.enabled

    def test_clear_empties_the_active_scope(self):
        assert clear_runs is clear_samplers is clear_blame
        clear_runs()  # a no-op outside any scope
        with observe(trace=True) as scope:
            KvSystem(tiny_config())
            clear_runs()
            assert scope.systems == []
            system = KvSystem(tiny_config())
        assert scope.systems == [system]
        assert system.label == system.config.mode
