"""``repro.telemetry`` — continuous time-series observability.

Where :mod:`repro.trace` answers "where did this one operation's time
go", telemetry answers "what did the whole stack look like over the
run": a :class:`TelemetrySampler` sim process periodically snapshots a
declarative :class:`MetricRegistry` of counters and gauges — engine,
journal, checkpointer, coalescer, ISCE, FTL, GC, flash, host interface
and media, per tenant and aggregate — into ring-buffered
:class:`Series`, records SMART-style :class:`DeviceHealthLog` frames and
evaluates SLO watchdogs (journal saturation, checkpoint overdue, GC
starvation, queue stall, degraded entry).

Like tracing, telemetry is **zero overhead when disabled**: no sampler
exists, and a sampled run only reads state, so counter snapshots of a
sampled and an unsampled run are byte-identical (CI-asserted).

A run is sampled when its config sets ``telemetry``, or when it is built
inside ``repro.system.observe(telemetry=...)``: experiments build their
own systems internally, so ``repro run <exp> --telemetry`` opens that
scope and exports the sampler of every system it collected.

Submodules are loaded lazily (PEP 562): :mod:`repro.telemetry.names` is
a leaf imported from low layers (``trace.tracer``, ``system.metrics``),
and an eager package init would close an import cycle through
``sampler`` → ``sim.process`` → ``sim.core`` → ``trace.tracer``.
"""

from __future__ import annotations

from typing import Any

from repro.common.scope import clear_scope

__all__ = [
    "ADDITIVE_METRICS", "AGGREGATE", "COUNTER", "GAUGE",
    "MetricRegistry", "Probe", "Series",
    "TelemetryConfig", "TelemetrySampler", "DeviceHealthLog",
    "SloThresholds", "TelemetryEvent", "Watchdog", "WatchdogBank",
    "ThresholdWatchdog", "CheckpointOverdueWatchdog",
    "DegradedEntryWatchdog",
    "telemetry_records", "write_telemetry_jsonl",
    "validate_telemetry_file",
    "summary_table", "events_table", "health_table",
    "build_sampler", "clear_samplers",
]

_LAZY = {
    "ADDITIVE_METRICS": "probes", "build_sampler": "probes",
    "AGGREGATE": "registry", "COUNTER": "registry", "GAUGE": "registry",
    "MetricRegistry": "registry", "Probe": "registry", "Series": "registry",
    "TelemetryConfig": "sampler", "TelemetrySampler": "sampler",
    "DeviceHealthLog": "health",
    "SloThresholds": "watchdog", "TelemetryEvent": "watchdog",
    "Watchdog": "watchdog", "WatchdogBank": "watchdog",
    "ThresholdWatchdog": "watchdog",
    "CheckpointOverdueWatchdog": "watchdog",
    "DegradedEntryWatchdog": "watchdog",
    "telemetry_records": "export", "write_telemetry_jsonl": "export",
    "validate_telemetry_file": "export", "summary_table": "export",
    "events_table": "export", "health_table": "export",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.telemetry' has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"repro.telemetry.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


# Kept by name: benchmark drivers import it to drop finished runs.
clear_samplers = clear_scope
