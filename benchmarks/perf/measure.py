"""One benchmark measurement, run by ``run.py`` in a fresh process.

``--phase setup``     time imports, config, ``KvSystem()`` and ``load()``;
``--phase untraced``  repeat the workload for ``--seconds`` of
                      ``KvSystem.run()`` wall time, with no shim;
``--phase traced``    run repetition 0 once under the layer shim, with
                      blame ledgers on.

The result is one JSON object on the last line of standard output.
Simulated results are reported for repetition 0 only, which uses
``--seed`` itself, so they are a pure function of the seed.
"""

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS, Workload, rep_seed

_STARTED = time.perf_counter()
"""setup_s starts here: nothing above imports ``repro``."""

UNATTRIBUTED_STAGES = ("repl_ship", "media_retry")
"""Blame stages no benchmark workload can reach (no replica, no media
errors); their shares are left out of the report."""


def _build(workload: Workload, seed: int, **overrides: Any) -> Any:
    from repro.system.system import KvSystem
    config = workload.build(seed)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    system = KvSystem(config)
    system.load()
    return system


def _forget_runs() -> None:
    """Drop the finished run before the next repetition.

    Traced, telemetered and blamed runs register themselves in
    process-wide collectors for export; clearing them keeps one
    repetition's heap from slowing down the next.
    """
    from repro.obs import clear_blame
    from repro.telemetry import clear_samplers
    from repro.trace import clear_runs
    clear_blame()
    clear_samplers()
    clear_runs()
    gc.collect()


def _timed_run(system: Any) -> Any:
    started = time.perf_counter()
    result = system.run()
    return result, time.perf_counter() - started


def tally(result: Any) -> Dict[str, Any]:
    """Submitted and completed operations, and every reconciliation gap.

    Closed loop: every budgeted operation completes.  Open loop: every
    arrival is submitted and gets one typed completion (done or shed).
    """
    problems: List[str] = []
    submitted = completed = 0
    for tenant in result.tenants:
        budget = tenant.config.total_queries
        report = tenant.admission
        if report is None:
            submitted += budget
            completed += tenant.operations
            if tenant.operations != budget:
                problems.append(f"{tenant.name}: {tenant.operations} of "
                                f"{budget} closed-loop operations completed")
            continue
        submitted += report.submitted
        completed += report.completed
        if report.submitted != budget:
            problems.append(f"{tenant.name}: {report.submitted} of {budget} "
                            f"arrivals submitted")
        if not report.reconciles():
            problems.append(f"{tenant.name}: submitted {report.submitted} != "
                            f"completed {report.completed} + shed "
                            f"{report.shed_total}")
        if report.completed != tenant.operations:
            problems.append(f"{tenant.name}: admission completed "
                            f"{report.completed} but {tenant.operations} "
                            f"latencies recorded")
    if result.metrics.operations != completed:
        problems.append(f"aggregate recorded {result.metrics.operations} "
                        f"operations, tenants completed {completed}")
    return {"submitted": submitted, "completed": completed,
            "problems": problems}


def observe(system: Any, result: Any) -> Dict[str, Any]:
    """Simulated metrics and program counters of one run, plus a digest.

    Everything here is a function of the seed alone: the benchmark gates
    it exactly.  The digest also covers the full metric summary of every
    tenant, each checkpoint report and each admission report.
    """
    from repro.sim.stats import LatencySample
    from repro.telemetry import names

    metrics = result.metrics
    ops = metrics.operations
    tails = metrics.latency_all.p(50.0, 99.0, 99.9)
    overlap = LatencySample("during-ckpt")
    overlap.extend(metrics.latency_read_ckpt.samples)
    overlap.extend(metrics.latency_update_ckpt.samples)
    sim = {
        "sim_qps": metrics.throughput_qps(),
        "sim_mean_us": metrics.latency_all.mean() / 1e3,
        "sim_p50_us": tails[50.0] / 1e3,
        "sim_p99_us": tails[99.0] / 1e3,
        "sim_p999_us": tails[99.9] / 1e3,
        "sim_ckpt_p99_us": overlap.p99() / 1e3,
        "sim_ckpt_ops": len(overlap),
        "waf": metrics.waf(),
        "flash_amp": metrics.flash_amplification(),
        "ckpt_ms_mean": result.mean_checkpoint_ns() / 1e6,
    }

    def per_op(counter: str) -> float:
        return metrics.delta(counter) / ops if ops else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    controller = system.ssd.controller
    # A traced engine restarts the device-wide gauge's window at every
    # checkpoint; the per-namespace gauges always span the whole run.
    depth_gauges = ([controller.namespace_queue_depth(entry.nsid)
                     for entry in system.ssd.namespaces]
                    if system.ssd.namespaces else [controller.queue_depth])
    caches = [tenant.engine.mem_cache for tenant in system.tenants]
    hits = sum(cache.hits for cache in caches)
    reports = result.checkpoint_reports
    remapped = sum(report.remapped_units for report in reports)
    copied = sum(report.copied_units for report in reports)
    counters = {
        "engine.mem_hit_ratio": ratio(
            hits, hits + sum(cache.misses for cache in caches)),
        "engine.storage_reads_per_op": per_op(names.QUERY_READ_STORAGE),
        "journal.txns_per_update": ratio(
            metrics.delta(names.JOURNAL_TRANSACTIONS),
            metrics.delta(names.QUERY_UPDATE)),
        "journal.padding_ratio": ratio(
            metrics.journal_padding_bytes(), metrics.journal_stored_bytes()),
        "ckpt.count": len(reports),
        "ckpt.redundant_units": metrics.redundant_write_units(),
        "isce.remap_ratio": ratio(remapped, remapped + copied),
        "ctrl.queue_depth_mean": sum(gauge.time_average()
                                     for gauge in depth_gauges),
        "ftl.map_miss_per_op": per_op(names.FTL_MAP_MISS),
        "gc.invocations": metrics.gc_invocations(),
        "gc.migrated_per_erase": ratio(metrics.gc_migrated_units(),
                                       metrics.erase_count()),
        "flash.reads_per_op": per_op(names.FLASH_READ),
        "flash.programs_per_op": per_op(names.FLASH_PROGRAM),
        "flash.erases": metrics.erase_count(),
    }
    evidence = {
        "sim": sim,
        "counters": counters,
        "summaries": {tenant.name: tenant.metrics.summary()
                      for tenant in result.tenants},
        "aggregate": metrics.summary(),
        "checkpoints": [dataclasses.asdict(report) for report in reports],
        "admission": [dataclasses.asdict(tenant.admission)
                      for tenant in result.tenants
                      if tenant.admission is not None],
    }
    digest = hashlib.sha256(
        json.dumps(evidence, sort_keys=True).encode()).hexdigest()
    return {"sim": sim, "counters": counters, "sim_digest": digest}


def phase_setup(workload: Workload, seed: int) -> Dict[str, Any]:
    _build(workload, seed)
    return {"setup_s": time.perf_counter() - _STARTED}


def phase_untraced(workload: Workload, seed: int,
                   seconds: float) -> Dict[str, Any]:
    reps: List[Dict[str, Any]] = []
    first: Optional[Dict[str, Any]] = None
    measured = 0.0
    while not reps or measured < seconds:
        system = _build(workload, rep_seed(seed, len(reps)))
        result, wall = _timed_run(system)
        measured += wall
        reps.append(dict(tally(result), seed=system.config.seed, wall_s=wall))
        if first is None:
            # Peak memory of repetition 0 alone: it must not depend on
            # how many repetitions fit into the measuring time.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            first = dict(observe(system, result), peak_rss_mib=peak_kib / 1024)
        del system, result
        _forget_runs()
    return dict(first, reps=reps)


def phase_traced(workload: Workload, seed: int) -> Dict[str, Any]:
    from repro.obs import CATEGORIES
    from layers import BENCH_BLAME, Shim

    blame_layer = "blame" if workload.build(seed).blame else BENCH_BLAME
    with Shim(blame_layer) as clock:
        system = _build(workload, seed, blame=True)
        clock.reset()
        events_before = system.sim._seq
        result, wall = _timed_run(system)
        layers = {layer: {"self_s": clock.self_s[layer],
                          "calls": clock.calls[layer]}
                  for layer in clock.self_s}
        kernel = {"events": system.sim._seq - events_before,
                  "processes": clock.processes, "cancels": clock.cancels}
    pooled = result.blame.aggregate()
    totals = pooled.category_totals()
    grand = pooled.total_ns()
    shares = {stage: totals.get(stage, 0) / grand if grand else 0.0
              for stage in CATEGORIES if stage not in UNATTRIBUTED_STAGES}
    return dict(observe(system, result), **tally(result), wall_s=wall,
                layers=layers, kernel=kernel, blame_shares=shares)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "untraced", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.phase == "setup":
        out = phase_setup(workload, args.seed)
    elif args.phase == "untraced":
        out = phase_untraced(workload, args.seed, args.seconds)
    else:
        out = phase_traced(workload, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
