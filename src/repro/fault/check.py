"""The one crash-and-verify path every fault campaign shares.

A campaign drives its workload to some event boundary with
:func:`step_until`, then hands the live system to :func:`crash_and_check`,
which pulls the plug, re-runs the SPOR scan and checks every post-cut
contract:

* the SPOR scan rebuilds exactly the pre-cut mapping table (nothing the
  capacitor promised to hold was lost, nothing is invented);
* every FTL structural invariant holds after recovery — and after every
  checkpoint that completed before the cut — plus namespace isolation on
  a namespaced device;
* each tenant's recovered KV store satisfies
  ``acked <= recovered <= current``.

The result is a :class:`CrashCheck`.  Each campaign's point type extends
it with the fields the campaign reads before the cut (media counters, the
admission ledger), and one :class:`SweepResult` collects the points of a
sweep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import RecoveryError, SimulationError
from repro.common.rng import SeededRng
from repro.engine.recovery import check_durability
from repro.fault.crash import CrashReport, power_cut, recover_device
from repro.fault.invariants import (
    check_ftl_invariants,
    check_namespace_isolation,
)
from repro.sim.core import Simulator
from repro.system.system import KvSystem
from repro.trace.tracer import Tracer


@dataclass
class CrashCheck:
    """Outcome of one power cut, SPOR recovery and post-cut check.

    Every field has a default so campaign subclasses can add their own
    fields (dataclass inheritance; callers pass everything by keyword).
    """

    report: CrashReport = field(default_factory=CrashReport)
    acked_keys: int = 0
    mapping_mismatches: int = 0
    """LPNs whose rebuilt mapping differs from the live pre-cut one."""

    checkpoint_violations: List[str] = field(default_factory=list)
    """FTL invariant violations seen after checkpoints that completed
    before the cut."""

    invariant_violations: List[str] = field(default_factory=list)
    durability_error: str = ""
    recovered_digest: str = ""
    recovery_wall_ns: int = 0
    """Host wall-clock time of the SPOR recovery scan (simulated time is
    frozen after a power cut, so recovery cost is measured on the host's
    monotonic clock via :meth:`repro.trace.tracer.Tracer.wallclock`)."""

    def problems(self) -> List[str]:
        """Every broken contract, one line each (empty = clean)."""
        problems = self.invariant_violations + self.checkpoint_violations
        if self.durability_error:
            problems.append(self.durability_error)
        if self.mapping_mismatches:
            problems.append(
                f"{self.mapping_mismatches} SPOR mapping mismatches")
        return problems

    @property
    def ok(self) -> bool:
        """True when recovery was exact and every contract held."""
        return not self.problems()


def _state_digest(versions: Dict[int, int]) -> str:
    payload = ",".join(f"{key}:{version}"
                       for key, version in sorted(versions.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def crash_and_check(system: KvSystem, rng: SeededRng,
                    ackeds: Sequence[Dict[int, int]],
                    ckpt_violations: List[str]) -> CrashCheck:
    """Power-cut ``system`` now, recover it and check every contract.

    ``ackeds`` holds one acked-versions dict per tenant, in
    ``system.tenants`` order; ``ckpt_violations`` is what the campaign's
    checkpoint hook collected so far.  ``rng`` tears the in-flight flash
    programs.
    """
    acked_at_cut = [dict(acked) for acked in ackeds]
    currents = [{record.key: record.version
                 for record in tenant.engine.kvmap.records()}
                for tenant in system.tenants]
    pre_cut_mapping = system.ssd.ftl.mapping.snapshot()

    report = power_cut(system, rng)
    wall = Tracer.wallclock()  # recovery runs outside simulated time
    recovery_span = wall.begin("recovery", "spor_scan")
    rebuilt = recover_device(system)
    wall.end(recovery_span)

    check = CrashCheck(
        report=report,
        acked_keys=sum(len(acked) for acked in acked_at_cut),
        mapping_mismatches=sum(
            1 for lpn in set(pre_cut_mapping) | set(rebuilt)
            if pre_cut_mapping.get(lpn) != rebuilt.get(lpn)),
        checkpoint_violations=list(ckpt_violations),
        invariant_violations=check_ftl_invariants(system.ssd.ftl),
        recovery_wall_ns=recovery_span.duration_ns)
    namespaced = system.config.tenants is not None
    if namespaced:
        check.invariant_violations.extend(
            check_namespace_isolation(system.ssd.ftl))
    digests: List[str] = []
    for tenant, acked, current in zip(system.tenants, acked_at_cut,
                                      currents):
        try:
            recovered = check_durability(tenant.engine, acked, current)
        except RecoveryError as exc:
            check.durability_error = \
                f"{tenant.name}: {exc}" if namespaced else str(exc)
            break
        digests.append(_state_digest(recovered.versions))
    else:
        check.recovered_digest = "+".join(digests)
    return check


def step_until(sim: Simulator, done: Callable[[], bool],
               limit: Optional[int] = None) -> int:
    """Step ``sim`` until ``done()`` holds or ``limit`` steps have run.

    Returns the number of steps taken.  A campaign workload ends when its
    own processes finish, so a heap that drains first is an error.
    """
    steps = 0
    while not done() and (limit is None or steps < limit):
        if not sim.step():
            raise SimulationError(
                f"simulation drained after {steps} steps, before the "
                "campaign workload finished")
        steps += 1
    return steps


@dataclass
class SweepResult:
    """All points of one campaign sweep over one (mode, seed).

    Each point is a :class:`CrashCheck` subclass whose ``digest_key()``
    fingerprints it for :meth:`digest`.
    """

    mode: str
    seed: int
    total_steps: int = 0
    """Event steps of the campaign's reference run (0 when it has none)."""

    results: List[CrashCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point recovered cleanly."""
        return all(result.ok for result in self.results)

    def failures(self) -> List[CrashCheck]:
        """The points that violated an invariant or lost data."""
        return [result for result in self.results if not result.ok]

    def digest(self) -> str:
        """Stable fingerprint of the sweep (determinism checks)."""
        digest = hashlib.sha256()
        for result in self.results:
            digest.update(result.digest_key().encode())
        return digest.hexdigest()[:16]

    def total_shed(self) -> int:
        """Open-loop sheds summed across crash points — the open-loop
        sweep only exercises the shed/acked disjointness claim when this
        is positive."""
        return sum(result.shed for result in self.results)

    def mean_recovery_wall_ns(self) -> float:
        """Average SPOR recovery wall time per point."""
        if not self.results:
            return 0.0
        return sum(r.recovery_wall_ns for r in self.results) / \
            len(self.results)

    def max_recovery_wall_ns(self) -> int:
        """Slowest SPOR recovery across the sweep."""
        return max((r.recovery_wall_ns for r in self.results), default=0)
