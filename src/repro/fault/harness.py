"""Deterministic crash-point sweeps over scripted KV workloads.

One sweep (a) runs a workload to completion to learn its event-step
count ``T``, then (b) replays the identical workload ``crash_points``
times on fresh systems, each time pulling the plug after a seeded-random
number of steps in ``[1, T]`` and running the shared post-cut check
(:func:`repro.fault.check.crash_and_check`): exact SPOR rebuild, FTL
invariants after recovery and after every pre-cut checkpoint, and
``acked <= recovered <= current`` for every tenant.

Everything is derived from one root seed, so a sweep is exactly
reproducible: same seed, same crash points, same recovered state digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import SeededRng
from repro.common.units import MIB
from repro.engine.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionTicket,
)
from repro.engine.engine import StorageEngine
from repro.fault.check import (
    CrashCheck,
    SweepResult,
    crash_and_check,
    step_until,
)
from repro.fault.invariants import check_ftl_invariants
from repro.sim.process import spawn
from repro.system.config import SystemConfig, TenantSpec, tiny_config
from repro.system.system import KvSystem
from repro.workload.arrivals import ArrivalSpec, arrival_times


@dataclass
class CrashPointResult(CrashCheck):
    """Outcome of one crash/recover/verify cycle."""

    index: int = 0
    crash_step: int = 0
    sim_time_ns: int = 0

    def digest_key(self) -> str:
        return f"{self.crash_step}:{self.recovered_digest}"


def scripted_config(mode: str, seed: int, num_keys: int,
                    tenants: int = 1) -> SystemConfig:
    """The tiny, recoverable configuration the scripted workload runs on."""
    if tenants <= 1:
        return tiny_config(mode=mode, seed=seed, num_keys=num_keys,
                           track_op_log=True, snapshot_metadata=True)
    # Shrink the per-tenant journal so several namespaces fit the tiny
    # test device while still wrapping (and checkpointing) under load.
    return tiny_config(mode=mode, seed=seed, num_keys=num_keys,
                       track_op_log=True, snapshot_metadata=True,
                       journal_area_bytes=1 * MIB,
                       tenants=tuple(TenantSpec()
                                     for _ in range(tenants)))


def _scripted_client(engine: StorageEngine, num_keys: int,
                     acked: Dict[int, int], ops: int,
                     ckpt_every: int) -> Generator[Any, Any, None]:
    for i in range(ops):
        key = (i * 7) % num_keys
        version = yield from engine.put(key)
        if version is not None:
            # A None version means the engine degraded and rejected the
            # update — nothing was acked, so nothing is owed durability.
            acked[key] = version
        if ckpt_every and (i + 1) % ckpt_every == 0:
            yield from engine.checkpoint()


def _watch_checkpoints(engine: StorageEngine,
                       ckpt_violations: List[str]) -> None:
    engine.on_checkpoint.append(
        lambda engine, _report: ckpt_violations.extend(
            check_ftl_invariants(engine.ssd.ftl)))


def start_scripted(config: SystemConfig, ops: int, ckpt_every: int
                   ) -> Tuple[KvSystem, List[Dict[int, int]], List[Any],
                              List[str]]:
    """Build a loaded, started system running the scripted workload.

    Returns the system, one acked-versions dict and one client process
    per tenant (a single pair on the classic single-tenant path), and the
    list the checkpoint hook fills with FTL invariant violations.
    """
    system = KvSystem(config)
    system.load()
    ckpt_violations: List[str] = []
    ackeds: List[Dict[int, int]] = []
    procs: List[Any] = []
    for tenant in system.tenants:
        tenant.engine.start()
        _watch_checkpoints(tenant.engine, ckpt_violations)
        acked: Dict[int, int] = {}
        ackeds.append(acked)
        name = "fault-client" if config.tenants is None \
            else f"fault-client{tenant.index}"
        procs.append(spawn(
            system.sim,
            _scripted_client(tenant.engine, tenant.view.num_keys, acked,
                             ops, ckpt_every),
            name=name))
    return system, ackeds, procs, ckpt_violations


def _reference_run(system: KvSystem, procs: Callable[[], List[Any]],
                   ckpt_violations: List[str]) -> int:
    """Run a campaign workload to completion; return its step count T."""
    total_steps = step_until(
        system.sim, lambda: all(proc.triggered for proc in procs()))
    for proc in procs():
        if not proc.ok:
            raise proc.exception
    if ckpt_violations:
        raise SimulationError(
            f"invariants already broken in reference run: {ckpt_violations[:3]}")
    return total_steps


def iter_crash_points(seed: int, total_steps: int, crash_points: int,
                      namespace: str
                      ) -> Generator[Tuple[int, int, SeededRng], None, None]:
    """Enumerate seeded crash instants: yields ``(index, step, rng)``.

    The reusable core of every crash campaign: one root seed forked
    through ``namespace`` yields per-point RNGs, each choosing a crash
    step uniformly in ``[1, total_steps]``.  The yielded ``rng`` is the
    point's private lineage — fork it again (e.g. ``rng.fork("tear")``)
    for any further randomness so points stay independent.  Both sweeps
    below and the replication kill-the-primary campaign derive their
    crash points here, so identical (seed, namespace, total_steps)
    always reproduce identical instants.
    """
    rng = SeededRng(seed).fork(namespace)
    for index in range(crash_points):
        point_rng = rng.fork(f"point{index}")
        yield index, point_rng.randint(1, total_steps), point_rng


def fault_sweep(mode: str, crash_points: int = 20, seed: int = 7,
                ops: int = 120, num_keys: int = 64,
                ckpt_every: int = 40, tenants: int = 1) -> SweepResult:
    """Sweep ``crash_points`` seeded crash instants over one configuration.

    ``mode`` is one of the engine modes ('baseline' is the conventional
    system; 'isc_c' and 'checkin' exercise the remapping FTL).  With
    ``tenants > 1`` the workload runs against a namespaced device — every
    tenant executes the scripted workload concurrently, and SPOR recovery
    must restore each tenant's durable state independently while keeping
    the namespaces physically disjoint.  Returns a :class:`SweepResult`;
    inspect ``.ok`` / ``.failures()``.
    """
    config = scripted_config(mode, seed, num_keys, tenants)
    system, _, procs, ckpt_violations = start_scripted(config, ops,
                                                       ckpt_every)
    total_steps = _reference_run(system, lambda: procs, ckpt_violations)

    sweep = SweepResult(mode=mode, seed=seed, total_steps=total_steps)
    for index, crash_step, point_rng in iter_crash_points(
            seed, total_steps, crash_points, f"fault/{mode}"):
        system, ackeds, procs, ckpt_violations = start_scripted(
            config, ops, ckpt_every)
        step_until(system.sim,
                   lambda: all(proc.triggered for proc in procs), crash_step)
        check = crash_and_check(system, point_rng.fork("tear"), ackeds,
                                ckpt_violations)
        sweep.results.append(CrashPointResult(
            index=index, crash_step=crash_step, sim_time_ns=system.sim.now,
            **vars(check)))
    return sweep


# ---------------------------------------------------------------------------
# Open-loop crash sweep: admission control under power loss.
#
# The classic sweep above drives the engine closed-loop; this variant
# pushes a bursty open-loop arrival stream through a deliberately tiny
# front door (AdmissionController), so some arrivals are shed *before*
# ever touching the engine, then pulls the plug mid-stream.  The two
# durability claims under test:
#
# * an op that was shed was never acked — shed and acked index sets are
#   disjoint at every crash instant;
# * an op that WAS acked survives recovery — the standard
#   ``acked <= recovered <= current`` durability check, with ``acked``
#   containing only admitted-and-completed writes.
# ---------------------------------------------------------------------------


@dataclass
class OpenLoopCrashPoint(CrashCheck):
    """One open-loop crash/recover/verify cycle."""

    index: int = 0
    crash_step: int = 0
    sim_time_ns: int = 0
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    pending: int = 0
    """Ops past the front door but unfinished at the crash instant
    (``inflight + waiting`` on the controller)."""

    shed_acked_overlap: int = 0
    """Ops both shed and acked — must be zero (the no-zombie claim)."""

    reconciled: bool = True
    """``submitted == completed + shed + pending`` at the crash instant
    — the typed-completion ledger balances even mid-flight."""

    def problems(self) -> List[str]:
        problems = super().problems()
        if self.shed_acked_overlap:
            problems.append(
                f"{self.shed_acked_overlap} op(s) both shed and acked")
        if not self.reconciled:
            problems.append(
                f"admission ledger off: {self.submitted} submitted, "
                f"{self.completed} completed + {self.shed} shed + "
                f"{self.pending} pending")
        return problems

    def digest_key(self) -> str:
        return f"{self.crash_step}:{self.shed}:{self.recovered_digest}"


def _open_loop_put(engine: StorageEngine, admission: AdmissionController,
                   ticket: AdmissionTicket, key: int, index: int,
                   acked: Dict[int, int], acked_indices: set
                   ) -> Generator[Any, Any, None]:
    if ticket.queued:
        yield ticket.event
    version = yield from engine.put(key)
    admission.release()
    if version is not None:
        acked[key] = version
        acked_indices.add(index)


def _open_loop_dispatcher(system: KvSystem, engine: StorageEngine,
                          admission: AdmissionController,
                          times: List[int], num_keys: int,
                          acked: Dict[int, int], acked_indices: set,
                          shed_indices: set, workers: List[Any]
                          ) -> Generator[Any, Any, None]:
    base = system.sim.now
    for index, instant in enumerate(times):
        target = base + instant
        if target > system.sim.now:
            yield target - system.sim.now
        ticket = admission.try_admit(is_read=False)
        if ticket.shed:
            shed_indices.add(index)
            continue
        workers.append(spawn(
            system.sim,
            _open_loop_put(engine, admission, ticket,
                           (index * 7) % num_keys, index, acked,
                           acked_indices),
            name=f"ol-put{index}"))


def _open_loop_checkpointer(engine: StorageEngine, count: int,
                            gap_ns: int) -> Generator[Any, Any, None]:
    for _ in range(count):
        yield gap_ns
        yield from engine.checkpoint()


def _start_open_loop(config: SystemConfig, spec: ArrivalSpec, ops: int,
                     admission_config: AdmissionConfig) -> Dict[str, Any]:
    """Build a started system running the open-loop crash workload."""
    system = KvSystem(config)
    system.load()
    tenant = system.tenants[0]
    tenant.engine.start()
    ckpt_violations: List[str] = []
    _watch_checkpoints(tenant.engine, ckpt_violations)
    admission = AdmissionController(system.sim, admission_config,
                                    label="open-crash")
    times = arrival_times(
        spec, SeededRng(config.seed).fork("open-crash/arrivals"), ops)
    span = times[-1] if times else 0
    acked: Dict[int, int] = {}
    acked_indices: set = set()
    shed_indices: set = set()
    workers: List[Any] = []
    dispatcher = spawn(
        system.sim,
        _open_loop_dispatcher(system, tenant.engine, admission, times,
                              tenant.view.num_keys, acked, acked_indices,
                              shed_indices, workers),
        name="ol-dispatch")
    checkpointer = spawn(
        system.sim,
        _open_loop_checkpointer(tenant.engine, 3, max(1, span // 4)),
        name="ol-ckpt")
    return dict(system=system, admission=admission,
                acked=acked, acked_indices=acked_indices,
                shed_indices=shed_indices, workers=workers,
                dispatcher=dispatcher, checkpointer=checkpointer,
                ckpt_violations=ckpt_violations)


def _open_loop_procs(run: Dict[str, Any]) -> List[Any]:
    return [run["dispatcher"], run["checkpointer"]] + run["workers"]


def open_loop_crash_sweep(mode: str, crash_points: int = 12, seed: int = 7,
                          ops: int = 160, num_keys: int = 64,
                          rate_ops_per_sec: float = 150_000.0,
                          max_inflight: int = 2, max_waiting: int = 3
                          ) -> SweepResult:
    """Power-cut a bursty open-loop stream behind a tiny front door.

    The burst arrival process against ``max_inflight=2 / max_waiting=3``
    guarantees sheds (asserted via :meth:`SweepResult.total_shed` by the
    battery), and the seeded crash instants land before, inside and after
    checkpoints.  Every crash point asserts the shed/acked sets are
    disjoint, the admission ledger reconciles mid-flight, and acked
    writes survive SPOR recovery.
    """
    config = tiny_config(mode=mode, seed=seed, num_keys=num_keys,
                         track_op_log=True, snapshot_metadata=True)
    spec = ArrivalSpec(rate_ops_per_sec=rate_ops_per_sec, process="bursts")
    admission_config = AdmissionConfig(policy="queue",
                                       max_inflight=max_inflight,
                                       max_waiting=max_waiting)
    run = _start_open_loop(config, spec, ops, admission_config)
    total_steps = _reference_run(run["system"], lambda: _open_loop_procs(run),
                                 run["ckpt_violations"])

    sweep = SweepResult(mode=mode, seed=seed, total_steps=total_steps)
    for index, crash_step, point_rng in iter_crash_points(
            seed, total_steps, crash_points, f"open-crash/{mode}"):
        run = _start_open_loop(config, spec, ops, admission_config)
        system = run["system"]
        step_until(system.sim,
                   lambda: all(proc.triggered
                               for proc in _open_loop_procs(run)),
                   crash_step)
        admission = run["admission"]
        shed = sum(admission.shed.values())
        pending = admission.inflight + admission.waiting
        point = dict(
            index=index, crash_step=crash_step, sim_time_ns=system.sim.now,
            submitted=admission.submitted, completed=admission.completed,
            shed=shed, pending=pending,
            shed_acked_overlap=len(
                run["shed_indices"] & run["acked_indices"]),
            reconciled=(admission.submitted
                        == admission.completed + shed + pending))
        check = crash_and_check(system, point_rng.fork("tear"),
                                [run["acked"]], run["ckpt_violations"])
        sweep.results.append(OpenLoopCrashPoint(**point, **vars(check)))
    return sweep
