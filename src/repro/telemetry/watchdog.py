"""SLO watchdogs evaluated at telemetry sample time.

A watchdog watches one metric (per tenant scope or aggregate) and emits
structured :class:`TelemetryEvent` records on *edges*: one ``fired``
event when the condition starts holding (optionally after N consecutive
violating samples, to debounce), and one ``cleared`` event when it stops.
Events carry the simulation timestamp and the offending value, land in
the owning :class:`WatchdogBank`, and are queryable from tests, the CLI
and the fault harness.

The five stock conditions (wired by :mod:`repro.telemetry.probes`):

* **journal saturation** — a tenant's active journal half is nearly
  full; the next checkpoint is at risk of stalling the committer.
* **checkpoint overdue** — a tenant has journal content but its
  checkpoint counter has not advanced for longer than
  ``overdue_factor x checkpoint_interval``.
* **GC starvation** — the free-block pool has sat at/below the urgent
  watermark for several consecutive samples.
* **queue-depth stall** — the device admission queue has been pinned at
  capacity for several consecutive samples.
* **degraded-mode entry** — the FTL dropped to read-only (fires once,
  never clears: degradation is terminal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.registry import AGGREGATE

FIRED = "fired"
CLEARED = "cleared"


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured watchdog edge."""

    t_ns: int
    watchdog: str
    kind: str
    """``fired`` or ``cleared``."""

    tenant: str = AGGREGATE
    severity: str = "warn"
    value: float = 0.0
    message: str = ""
    blame: str = ""
    """Dominant blame category when the run carries attribution ledgers
    (see ``repro.obs``); empty on unblamed runs."""

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (JSONL export)."""
        return {"type": "event", "t_ns": self.t_ns,
                "watchdog": self.watchdog, "kind": self.kind,
                "tenant": self.tenant, "severity": self.severity,
                "value": self.value, "message": self.message,
                "blame": self.blame}


class Watchdog:
    """Base class: holds identity and the fired/cleared edge state."""

    def __init__(self, name: str, tenant: str = AGGREGATE,
                 severity: str = "warn") -> None:
        self.name = name
        self.tenant = tenant
        self.severity = severity
        self.active = False
        """True while the condition currently holds (post-debounce)."""

    # subclasses implement: returns (violating?, observed value, message)
    def check(self, t_ns: int,
              values: Dict[Tuple[str, str], float]
              ) -> Tuple[bool, float, str]:
        raise NotImplementedError

    def evaluate(self, t_ns: int,
                 values: Dict[Tuple[str, str], float]
                 ) -> List[TelemetryEvent]:
        """Evaluate at one sample instant; returns any edge events."""
        violating, value, message = self.check(t_ns, values)
        if violating and not self.active:
            self.active = True
            return [TelemetryEvent(t_ns=t_ns, watchdog=self.name,
                                   kind=FIRED, tenant=self.tenant,
                                   severity=self.severity, value=value,
                                   message=message)]
        if not violating and self.active:
            self.active = False
            return [TelemetryEvent(t_ns=t_ns, watchdog=self.name,
                                   kind=CLEARED, tenant=self.tenant,
                                   severity=self.severity, value=value,
                                   message=f"{self.name} recovered")]
        return []


class ThresholdWatchdog(Watchdog):
    """Fires when a metric crosses a bound for N consecutive samples."""

    def __init__(self, name: str, metric: str, threshold: float,
                 tenant: str = AGGREGATE, metric_tenant: Optional[str] = None,
                 above: bool = True, consecutive: int = 1,
                 severity: str = "warn") -> None:
        super().__init__(name, tenant, severity)
        self.metric = metric
        self.metric_tenant = metric_tenant if metric_tenant is not None \
            else tenant
        self.threshold = threshold
        self.above = above
        self.consecutive = max(1, consecutive)
        self._streak = 0

    def check(self, t_ns, values):
        value = values.get((self.metric_tenant, self.metric), 0.0)
        breach = value >= self.threshold if self.above \
            else value <= self.threshold
        self._streak = self._streak + 1 if breach else 0
        sense = ">=" if self.above else "<="
        return (self._streak >= self.consecutive, value,
                f"{self.metric} {sense} {self.threshold} "
                f"for {self._streak} sample(s)")


class CheckpointOverdueWatchdog(Watchdog):
    """A tenant with journal content whose checkpoint count went stale."""

    def __init__(self, tenant: str, overdue_ns: int,
                 count_metric: str = "checkpoint.count",
                 pressure_metric: str = "journal.pressure_bytes") -> None:
        super().__init__("checkpoint_overdue", tenant)
        self.overdue_ns = overdue_ns
        self.count_metric = count_metric
        self.pressure_metric = pressure_metric
        self._last_count: Optional[float] = None
        self._last_advance_ns = 0

    def check(self, t_ns, values):
        count = values.get((self.tenant, self.count_metric), 0.0)
        pressure = values.get((self.tenant, self.pressure_metric), 0.0)
        if self._last_count is None or count != self._last_count:
            self._last_count = count
            self._last_advance_ns = t_ns
        stale_ns = t_ns - self._last_advance_ns
        violating = pressure > 0 and stale_ns > self.overdue_ns
        return (violating, stale_ns,
                f"no checkpoint for {stale_ns / 1e6:.1f} ms with "
                f"{pressure:.0f} journal bytes pending")


class DegradedEntryWatchdog(Watchdog):
    """Fires once when the device drops to read-only degraded mode."""

    def __init__(self, metric: str = "ftl.degraded") -> None:
        super().__init__("degraded_entry", AGGREGATE, severity="error")
        self.metric = metric

    def check(self, t_ns, values):
        degraded = values.get((AGGREGATE, self.metric), 0.0) >= 1.0
        # Terminal: once active it never clears.
        violating = degraded or self.active
        return (violating, 1.0 if degraded else 0.0,
                "device entered read-only degraded mode")


class WatchdogBank:
    """All watchdogs of one run plus every event they emitted."""

    def __init__(self, watchdogs: Optional[List[Watchdog]] = None) -> None:
        self.watchdogs: List[Watchdog] = list(watchdogs or [])
        self.events: List[TelemetryEvent] = []
        self.blame_annotator: Optional[Callable[[], str]] = None
        """When set (blamed runs), every fresh event is stamped with the
        dominant blame category observed so far."""

    def add(self, watchdog: Watchdog) -> Watchdog:
        """Register one more watchdog."""
        self.watchdogs.append(watchdog)
        return watchdog

    def escalate(self, name: str, severity: str = "error") -> int:
        """Raise every ``name``d watchdog to ``severity``; returns hits.

        "Page on this SLO": an error-severity FIRED edge is an incident
        trigger (the sampler trips the flight recorder on it), so
        escalating a watchdog turns its breach into a forensic dump.
        """
        hits = 0
        for watchdog in self.watchdogs:
            if watchdog.name == name:
                watchdog.severity = severity
                hits += 1
        return hits

    def evaluate(self, t_ns: int,
                 values: Dict[Tuple[str, str], float]) -> List[TelemetryEvent]:
        """Run every watchdog against one sample; collect edge events."""
        fresh: List[TelemetryEvent] = []
        for watchdog in self.watchdogs:
            fresh.extend(watchdog.evaluate(t_ns, values))
        if fresh and self.blame_annotator is not None:
            dominant = self.blame_annotator()
            if dominant:
                fresh = [replace(event, blame=dominant) for event in fresh]
        self.events.extend(fresh)
        return fresh

    # -- queries ---------------------------------------------------------
    def events_for(self, name: str,
                   tenant: Optional[str] = None) -> List[TelemetryEvent]:
        """Events of one watchdog (optionally one tenant scope)."""
        return [event for event in self.events
                if event.watchdog == name
                and (tenant is None or event.tenant == tenant)]

    def fired(self, name: str, tenant: Optional[str] = None) -> bool:
        """Did the named watchdog ever fire?"""
        return any(event.kind == FIRED
                   for event in self.events_for(name, tenant))

    def active(self) -> List[str]:
        """Names of watchdogs whose condition currently holds."""
        return [w.name for w in self.watchdogs if w.active]

    def counts(self) -> Dict[str, int]:
        """Fired-event count per watchdog name."""
        totals: Dict[str, int] = {}
        for event in self.events:
            if event.kind == FIRED:
                totals[event.watchdog] = totals.get(event.watchdog, 0) + 1
        return totals
