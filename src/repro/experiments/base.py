"""Shared scaffolding for the per-figure experiment modules.

Every experiment runs :class:`~repro.system.config.SystemConfig` instances
derived from one *paper-scale* preset via :func:`paper_config`, at a
chosen :class:`ExperimentScale`.  ``QUICK`` keeps the whole benchmark
suite in minutes; ``FULL`` runs several times longer for tighter numbers.

Scaling stance (see DESIGN.md §2): the device, interval and query volumes
are uniformly scaled from the paper's testbed; flash latencies are
realistic, so ratios and orderings are the meaningful output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.common.units import MIB, MS
from repro.system.config import SystemConfig

ALL_MODES = ("baseline", "isc_a", "isc_b", "isc_c", "checkin")
HEADLINE_MODES = ("baseline", "isc_c", "checkin")


@dataclass(frozen=True)
class ExperimentScale:
    """Volume knobs shared by every experiment."""

    name: str = "quick"
    queries: int = 16_000
    keys: int = 4_096
    threads: int = 32
    interval_ns: int = 60 * MS
    quota_bytes: int = 16 * MIB
    thread_sweep: Sequence[int] = (4, 16, 64, 128)

    def scaled_queries(self, factor: float) -> int:
        """Query budget scaled by ``factor`` (at least 1000)."""
        return max(1_000, int(self.queries * factor))


QUICK = ExperimentScale()
FULL = ExperimentScale(name="full", queries=48_000, keys=8_192)


def paper_config(mode: str, scale: ExperimentScale = QUICK,
                 **overrides) -> SystemConfig:
    """The experiment-default configuration for one evaluated system."""
    base = SystemConfig(
        mode=mode,
        threads=scale.threads,
        num_keys=scale.keys,
        total_queries=scale.queries,
        checkpoint_interval_ns=scale.interval_ns,
        checkpoint_journal_quota=scale.quota_bytes,
        journal_area_bytes=48 * MIB,
        verify_reads=False,
    )
    return replace(base, **overrides) if overrides else base
