"""The benchmark's four workloads, each a seeded ``SystemConfig``.

Each workload stresses a different set of layers, and each has a twin
that bypasses what it stresses, so an optimisation of one layer has a
workload where it must show and one where it must not:

* ``ycsb_a_checkin`` runs the paper's headline path, and
  ``ycsb_c_reads`` is the same store with no writes at all;
* ``wo_baseline_gc`` is the only workload with host checkpoints and GC;
* ``open_2tenant_obs`` uses ycsb_a's mix behind the open-loop front door
  with every observability plane on, so its difference from ycsb_a
  isolates those layers.

Sizes are one repetition's; the benchmark repeats a workload until its
measuring time is used up.  Importing this module does not import
``repro``: the configs are built on demand in the measuring process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

REP_SEED_STRIDE = 1_000_003
"""Repetition ``i`` of a run with seed ``s`` uses seed ``s + i * stride``."""


def rep_seed(seed: int, rep: int) -> int:
    """The seed of repetition ``rep``; repetition 0 uses ``seed`` itself."""
    return seed + rep * REP_SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and how to configure it."""

    name: str
    why: str
    build: Callable[[int], Any]
    """``seed -> SystemConfig`` of one repetition."""


def _ycsb_a_checkin(seed: int) -> Any:
    from repro.system.config import SystemConfig
    return SystemConfig(mode="checkin", seed=seed, workload="A",
                        distribution="zipfian", num_keys=4096, threads=8,
                        total_queries=40_000)


def _ycsb_c_reads(seed: int) -> Any:
    from repro.system.config import SystemConfig
    return SystemConfig(mode="checkin", seed=seed, workload="C",
                        distribution="uniform", num_keys=4096, threads=8,
                        total_queries=48_000)


def _wo_baseline_gc(seed: int) -> Any:
    from repro.common.units import KIB, MIB, MS
    from repro.system.config import SystemConfig
    # 32 MiB of raw flash fills within the first few thousand updates,
    # so GC runs for nearly the whole repetition, not just its tail.
    return SystemConfig(mode="baseline", seed=seed, workload="WO",
                        threads=8, blocks_per_plane=8,
                        journal_area_bytes=4 * MIB,
                        checkpoint_journal_quota=512 * KIB,
                        checkpoint_interval_ns=10 * MS,
                        total_queries=36_000)


def _open_2tenant_obs(seed: int) -> Any:
    from repro.common.units import MIB
    from repro.system.config import SystemConfig, TenantSpec
    from repro.telemetry.sampler import TelemetryConfig
    from repro.workload.arrivals import ArrivalSpec
    # Arrival instants are precomputed in simulated time, so the load
    # generator can never run late: its lateness is 0 by construction.
    return SystemConfig(mode="checkin", seed=seed, workload="A",
                        distribution="zipfian", num_keys=4096,
                        journal_area_bytes=8 * MIB,
                        arrivals=ArrivalSpec(rate_ops_per_sec=40_000.0),
                        tenants=(TenantSpec(), TenantSpec()),
                        trace=True, telemetry=TelemetryConfig(), blame=True,
                        flightrec=True, total_queries=10_000)


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("ycsb_a_checkin",
             "paper headline path: group commit, remap checkpoints, "
             "coalescer and sub-page FTL run; GC never does",
             _ycsb_a_checkin),
    Workload("ycsb_c_reads",
             "read-only uniform keys: journal, checkpoints, ISCE, "
             "coalescer and GC idle; reads go controller to FTL to flash",
             _ycsb_c_reads),
    Workload("wo_baseline_gc",
             "write-only baseline on a small device: host checkpoints, "
             "GC and erases are hot; no reads and no ISCE",
             _wo_baseline_gc),
    Workload("open_2tenant_obs",
             "ycsb_a mix, open-loop Poisson arrivals for two namespaces "
             "behind the front door, with trace, telemetry, blame and "
             "flight recorder on",
             _open_2tenant_obs),
)}
