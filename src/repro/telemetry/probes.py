"""Probe wiring: turn one live ``KvSystem`` into a telemetry pipeline.

:func:`build_sampler` registers the declarative probe set every layer of
the stack exposes — engine, journal, checkpointer, coalescer, ISCE, FTL,
GC, flash, host interface and media — as per-tenant *and* aggregate
series, builds the stock SLO watchdog bank and the SMART health log, and
returns a ready (not yet started) sampler.

The system object is duck-typed (``system.ssd``, ``system.tenants`` …)
so this module depends only on the telemetry package — no import cycle
with :mod:`repro.system.system`.

Aggregation contract: for additive counters (listed in
:data:`ADDITIVE_METRICS`) the aggregate probe is defined as the *sum of
the per-tenant probes*, read at the same sample instant — so per-tenant
series sum exactly to the aggregate series, which the tenant-isolation
tests assert pointwise.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry import names
from repro.telemetry.health import DeviceHealthLog
from repro.telemetry.registry import AGGREGATE, MetricRegistry
from repro.telemetry.sampler import (
    MAX_POINTS,
    TelemetryConfig,
    TelemetrySampler,
)
from repro.telemetry.watchdog import (
    CheckpointOverdueWatchdog,
    DegradedEntryWatchdog,
    ThresholdWatchdog,
    WatchdogBank,
)

ADDITIVE_METRICS = ("engine.ops", "checkpoint.count",
                    "journal.pressure_bytes")
"""Per-tenant series of these metrics sum to the aggregate series."""

SLO_JOURNAL_OCCUPANCY = 0.90
"""Active-half occupancy fraction that counts as saturated."""

SLO_CHECKPOINT_OVERDUE_FACTOR = 2.0
"""Multiple of the checkpoint interval after which a tenant with
journal content is overdue."""

SLO_GC_FREE_BLOCKS = 2.0
"""Free-block level at/below which GC is starving (raised to the
urgent watermark when that is higher)."""

SLO_GC_CONSECUTIVE = 3
"""Consecutive starving samples before the GC watchdog fires."""

SLO_QUEUE_DEPTH = 64.0
"""Admission-queue level that counts as a stall (capped at the
device's queue depth)."""

SLO_QUEUE_CONSECUTIVE = 3
"""Consecutive pinned samples before the stall watchdog fires."""


def _tenant_probes(registry: MetricRegistry, system: Any,
                   tenant: Any, scope: str) -> None:
    """Register one tenant's engine/journal/checkpoint probes."""
    engine = tenant.engine
    journal = engine.journal
    metrics = tenant.metrics
    registry.counter("engine.ops", "engine",
                     lambda m=metrics: m.operations, tenant=scope)
    registry.gauge("engine.degraded", "engine",
                   lambda e=engine: 1.0 if e.degraded else 0.0,
                   tenant=scope)
    registry.gauge("journal.occupancy", "journal",
                   lambda j=journal: names.safe_ratio(
                       j.active_head_sectors, j.config.half_sectors),
                   tenant=scope)
    registry.gauge("journal.pressure_bytes", "journal",
                   lambda j=journal: j.active_bytes_logged, tenant=scope)
    registry.counter("checkpoint.count", "checkpoint",
                     lambda e=engine: len(e.checkpoint_reports),
                     tenant=scope)
    registry.gauge("checkpoint.running", "checkpoint",
                   lambda e=engine: 1.0 if e.checkpoint_running else 0.0,
                   tenant=scope)
    if system.config.tenants is not None:
        controller = system.ssd.controller
        registry.gauge("host.queue_depth", "host",
                       lambda c=controller, n=tenant.index:
                       c.namespace_queue_depth(n).level,
                       tenant=scope)
    admission = getattr(tenant, "admission", None)
    if admission is not None:
        registry.gauge("admission.inflight", "admission",
                       lambda a=admission: float(a.inflight), tenant=scope)
        registry.gauge("admission.waiting", "admission",
                       lambda a=admission: float(a.waiting), tenant=scope)
        registry.counter("admission.submitted", "admission",
                         lambda a=admission: a.submitted, tenant=scope)
        registry.counter("admission.shed_ops", "admission",
                         lambda a=admission: sum(a.shed.values()),
                         tenant=scope)


def build_registry(system: Any) -> MetricRegistry:
    """The full probe set of one system: aggregate + per-tenant."""
    registry = MetricRegistry()
    ssd = system.ssd
    stats = ssd.stats
    tenants = system.tenants

    # -- aggregate host/engine-side metrics (sums over tenants) ---------
    registry.counter("engine.ops", "engine",
                     lambda: sum(t.metrics.operations for t in tenants))
    registry.gauge("engine.degraded", "engine",
                   lambda: max((1.0 if t.engine.degraded else 0.0)
                               for t in tenants))
    registry.gauge("journal.occupancy", "journal",
                   lambda: max(names.safe_ratio(
                       t.engine.journal.active_head_sectors,
                       t.engine.journal.config.half_sectors)
                       for t in tenants))
    registry.gauge("journal.pressure_bytes", "journal",
                   lambda: sum(t.engine.journal.active_bytes_logged
                               for t in tenants))
    registry.counter("checkpoint.count", "checkpoint",
                     lambda: sum(len(t.engine.checkpoint_reports)
                                 for t in tenants))
    registry.gauge("checkpoint.running", "checkpoint",
                   lambda: max((1.0 if t.engine.checkpoint_running else 0.0)
                               for t in tenants))
    registry.stat_counter(stats, names.JOURNAL_TRANSACTIONS, "journal")
    registry.stat_counter(stats, names.JOURNAL_FULL_STALLS, "journal")

    # -- device-side metrics ---------------------------------------------
    controller = ssd.controller
    registry.gauge("host.queue_depth", "host",
                   lambda: controller.queue_depth.level)
    registry.gauge("host.interface_queued", "host",
                   lambda: float(ssd.interface.queued))
    registry.stat_counter(stats, names.HOST_READ_CMDS, "host")
    registry.stat_counter(stats, names.HOST_WRITE_CMDS, "host")
    registry.gauge("coalescer.buffered_units", "coalescer",
                   lambda: float(len(controller.write_buffer)))
    if ssd.isce is not None:
        registry.stat_counter(stats, names.ISCE_REMAPPED_UNITS, "isce")
        registry.stat_counter(stats, names.ISCE_COPIED_UNITS, "isce")
    ftl = ssd.ftl
    registry.gauge("ftl.free_blocks", "ftl",
                   lambda: float(ftl.allocator.free_block_count))
    registry.gauge("ftl.bad_blocks", "ftl",
                   lambda: float(len(ftl.grown_bad)))
    registry.gauge("ftl.degraded", "ftl",
                   lambda: 1.0 if ftl.read_only else 0.0)
    registry.stat_counter(stats, names.FTL_MAP_MISS, "ftl")
    registry.stat_counter(stats, names.FTL_UNITS_WRITE_CKPT, "ftl")
    registry.stat_counter(stats, names.GC_INVOCATIONS, "gc")
    registry.stat_counter(stats, names.GC_MIGRATED_UNITS, "gc")
    registry.stat_counter(stats, names.FLASH_READ, "flash")
    registry.stat_counter(stats, names.FLASH_PROGRAM, "flash")
    registry.stat_counter(stats, names.FLASH_ERASE, "flash")
    registry.gauge("flash.wear_mean", "flash",
                   lambda: ssd.array.wear_stats()["mean"])
    registry.stat_counter(stats, names.MEDIA_READ_RETRY, "media")
    registry.stat_counter(stats, names.MEDIA_PROGRAM_FAIL, "media")

    # -- front-door admission (only when some tenant has a controller) ---
    admitted = [t for t in tenants
                if getattr(t, "admission", None) is not None]
    if admitted:
        registry.gauge("admission.inflight", "admission",
                       lambda ts=admitted: float(
                           sum(t.admission.inflight for t in ts)))
        registry.gauge("admission.waiting", "admission",
                       lambda ts=admitted: float(
                           sum(t.admission.waiting for t in ts)))
        registry.counter("admission.submitted", "admission",
                         lambda ts=admitted:
                         sum(t.admission.submitted for t in ts))
        registry.counter("admission.shed_ops", "admission",
                         lambda ts=admitted:
                         sum(sum(t.admission.shed.values()) for t in ts))

    # -- per-tenant scopes -------------------------------------------------
    for tenant in tenants:
        _tenant_probes(registry, system, tenant, tenant.name)
    return registry


def build_watchdogs(system: Any) -> WatchdogBank:
    """The stock SLO watchdog bank for one system."""
    bank = WatchdogBank()
    bank.add(ThresholdWatchdog(
        "gc_starvation", "ftl.free_blocks",
        threshold=float(max(SLO_GC_FREE_BLOCKS,
                            system.config.gc_low_watermark)),
        above=False, consecutive=SLO_GC_CONSECUTIVE))
    bank.add(ThresholdWatchdog(
        "queue_stall", "host.queue_depth",
        threshold=min(SLO_QUEUE_DEPTH, float(system.config.queue_depth)),
        consecutive=SLO_QUEUE_CONSECUTIVE))
    bank.add(DegradedEntryWatchdog())
    for tenant in system.tenants:
        view = tenant.view
        bank.add(ThresholdWatchdog(
            "journal_saturation", "journal.occupancy",
            threshold=SLO_JOURNAL_OCCUPANCY, tenant=tenant.name))
        bank.add(CheckpointOverdueWatchdog(
            tenant=tenant.name,
            overdue_ns=int(SLO_CHECKPOINT_OVERDUE_FACTOR
                           * view.checkpoint_interval_ns)))
        admission = getattr(tenant, "admission", None)
        if admission is not None:
            # Sustained full waiting room = the front door is the only
            # thing standing between this tenant and unbounded queueing.
            bank.add(ThresholdWatchdog(
                "admission_overload", "admission.waiting",
                threshold=float(max(1, admission.config.max_waiting)),
                tenant=tenant.name, consecutive=2))
    return bank


def register_replication_probes(sampler: TelemetrySampler, shipper: Any,
                                applier: Any,
                                max_lag_ops: int = 256) -> None:
    """Attach replication gauges + the ``replication_lag`` SLO watchdog.

    Called after the pair is wired (the sampler is built during
    ``KvSystem.__init__``, before any shipper exists) — the sampler's
    ``registry`` and ``watchdogs`` are public mutable attrs for exactly
    this kind of post-hoc subsystem registration.  ``max_lag_ops`` is
    the SLO: sustained committed-but-unacked backlog beyond it trips
    the watchdog, naming the replication link as the system's current
    durability exposure.
    """
    from repro.telemetry.registry import Series
    registry = sampler.registry
    probes = [
        registry.gauge(names.REPL_SHIP_LAG_BYTES, "replication",
                       lambda s=shipper: float(s.ship_lag_bytes)),
        registry.gauge(names.REPL_SHIP_LAG_OPS, "replication",
                       lambda s=shipper: float(s.ship_lag_ops)),
        registry.counter(names.REPL_REPLAY_APPLIED, "replication",
                         lambda a=applier: a.replay_applied),
    ]
    # The sampler snapshots the registry into its series dict at build
    # time; probes registered afterwards need their series added too or
    # the next sample tick would KeyError.
    for probe in probes:
        if probe.key not in sampler.series:
            sampler.series[probe.key] = Series(
                name=probe.name, layer=probe.layer, kind=probe.kind,
                tenant=probe.tenant, maxlen=MAX_POINTS)
    sampler.watchdogs.add(ThresholdWatchdog(
        "replication_lag", names.REPL_SHIP_LAG_OPS,
        threshold=float(max_lag_ops), consecutive=2))


def build_sampler(system: Any, config: TelemetryConfig,
                  label: str = "run") -> TelemetrySampler:
    """Registry + watchdogs + health log, assembled into one sampler."""
    registry = build_registry(system)
    health = DeviceHealthLog(system.ssd,
                             max_pe_cycles=system.config.max_pe_cycles,
                             spare_block_budget=system.config
                             .spare_block_budget)
    watchdogs = build_watchdogs(system)
    return TelemetrySampler(system.sim, registry, config,
                            health=health, watchdogs=watchdogs, label=label)
