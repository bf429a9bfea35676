"""Declarative metric registry and ring-buffered time series.

Every layer of the stack registers *probes* — named, zero-argument
callables the sampler reads at each tick.  A probe never mutates
anything, so sampling cannot perturb the simulated event sequence: a
sampled and an unsampled run produce byte-identical counter snapshots
(CI asserts this, mirroring the tracer's zero-overhead guarantee).

Probes come in two kinds:

* ``counter`` — a cumulative, monotonically non-decreasing value
  (typically a :class:`~repro.sim.stats.StatRegistry` counter).  Series
  store the cumulative value; consumers derive rates from deltas.
* ``gauge`` — an instantaneous level (journal occupancy, free blocks,
  queue depth).

Each probe is scoped: ``tenant=""`` is the device/system aggregate;
a tenant label scopes the probe to one namespace.  Additive counters
registered per tenant must sum to their aggregate counterpart at every
sample instant — the isolation test battery asserts this.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError

COUNTER = "counter"
GAUGE = "gauge"
AGGREGATE = ""
"""The tenant label of device/system-wide probes."""


@dataclass(frozen=True)
class Probe:
    """One sampleable metric source."""

    name: str
    """Canonical metric name, e.g. ``ftl.free_blocks``."""

    layer: str
    """Emitting layer: engine, journal, checkpoint, coalescer, isce,
    ftl, gc, flash, host, media."""

    kind: str
    """``counter`` (cumulative) or ``gauge`` (instantaneous level)."""

    fn: Callable[[], float]
    tenant: str = AGGREGATE

    @property
    def key(self) -> Tuple[str, str]:
        """The registry key: (tenant scope, metric name)."""
        return (self.tenant, self.name)

    def read(self) -> float:
        """Sample the probe now."""
        return float(self.fn())


@dataclass
class Series:
    """Ring-buffered (time, value) samples of one probe."""

    name: str
    layer: str
    kind: str
    tenant: str = AGGREGATE
    maxlen: int = 4096
    points: Deque[Tuple[int, float]] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if not isinstance(self.points, deque) or \
                self.points.maxlen != self.maxlen:
            self.points = deque(self.points, maxlen=self.maxlen)

    def append(self, t_ns: int, value: float) -> None:
        """Record one sample (evicts the oldest point when full)."""
        self.points.append((t_ns, value))

    def __len__(self) -> int:
        return len(self.points)

    def values(self) -> List[float]:
        """All retained values, oldest first."""
        return [value for _t, value in self.points]

    def times(self) -> List[int]:
        """All retained sample timestamps, oldest first."""
        return [t for t, _value in self.points]

    def last(self) -> Optional[float]:
        """Most recent value (None while empty)."""
        return self.points[-1][1] if self.points else None

    def delta(self) -> float:
        """last - first over the retained window (counter rate basis)."""
        if not self.points:
            return 0.0
        return self.points[-1][1] - self.points[0][1]

    def minmax(self) -> Tuple[float, float]:
        """(min, max) over the retained window; (0, 0) while empty."""
        if not self.points:
            return (0.0, 0.0)
        values = self.values()
        return (min(values), max(values))


class MetricRegistry:
    """A flat, ordered namespace of probes for one system instance."""

    def __init__(self) -> None:
        self._probes: Dict[Tuple[str, str], Probe] = {}

    def register(self, probe: Probe) -> Probe:
        """Add a probe; duplicate (tenant, name) pairs are rejected."""
        if probe.kind not in (COUNTER, GAUGE):
            raise ConfigError(f"unknown probe kind {probe.kind!r}")
        if probe.key in self._probes:
            raise ConfigError(
                f"probe {probe.name!r} already registered for "
                f"tenant {probe.tenant!r}")
        self._probes[probe.key] = probe
        return probe

    def counter(self, name: str, layer: str, fn: Callable[[], float],
                tenant: str = AGGREGATE) -> Probe:
        """Register a cumulative counter probe."""
        return self.register(Probe(name=name, layer=layer, kind=COUNTER,
                                   fn=fn, tenant=tenant))

    def gauge(self, name: str, layer: str, fn: Callable[[], float],
              tenant: str = AGGREGATE) -> Probe:
        """Register an instantaneous gauge probe."""
        return self.register(Probe(name=name, layer=layer, kind=GAUGE,
                                   fn=fn, tenant=tenant))

    def stat_counter(self, stats, name: str, layer: str,
                     tenant: str = AGGREGATE,
                     metric: Optional[str] = None) -> Probe:
        """Register a probe over a :class:`StatRegistry` counter count.

        ``name`` is the registry counter; ``metric`` overrides the
        exported metric name when they should differ.
        """
        return self.counter(metric or name, layer,
                            lambda: stats.value(name), tenant=tenant)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._probes)

    def __iter__(self) -> Iterator[Probe]:
        return iter(self._probes.values())

    def probes(self, tenant: Optional[str] = None) -> List[Probe]:
        """All probes, optionally filtered to one tenant scope."""
        if tenant is None:
            return list(self._probes.values())
        return [p for p in self._probes.values() if p.tenant == tenant]

    def get(self, name: str, tenant: str = AGGREGATE) -> Probe:
        """The probe registered as (tenant, name)."""
        try:
            return self._probes[(tenant, name)]
        except KeyError:
            raise ConfigError(f"no probe {name!r} for tenant {tenant!r}") \
                from None

    def tenants(self) -> List[str]:
        """Distinct tenant scopes (aggregate first)."""
        scopes = {probe.tenant for probe in self._probes.values()}
        return sorted(scopes, key=lambda s: (s != AGGREGATE, s))

    def sample(self) -> Dict[Tuple[str, str], float]:
        """Read every probe once: {(tenant, name): value}."""
        return {key: probe.read() for key, probe in self._probes.items()}
