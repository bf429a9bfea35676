"""Command-line interface: run experiments and single configurations.

Usage::

    python -m repro list
    python -m repro run fig8a [--scale quick|full] [--trace [--out t.json]]
    python -m repro run --tenants 2 [--arrivals 120000]
    python -m repro bench --mode checkin --workload A --threads 32
    python -m repro inspect trace.json
    python -m repro fault-sweep --crash-points 50 --seed 7

Every single-run subcommand builds its ``SystemConfig`` through
:func:`_config_from_args`, and every export format is checked by
``inspect`` (which the ``--out`` writers reuse to re-validate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis import format_table
from repro.common.units import MIB, parse_duration_ns
from repro.experiments.base import FULL, QUICK
from repro.experiments.registry import (
    EXPERIMENT_ALIASES,
    EXPERIMENTS,
    run_experiment,
)
from repro.obs import (
    CKPT_FAMILY,
    blame_table,
    dominant_stage,
    exemplar_table,
    incident_records,
    load_incident_file,
    pair_incident_records,
    resolve_against_trace,
    tail_table,
    timeline_table,
    validate_blame_file,
    validate_incident_file,
    write_blame_jsonl,
    write_incident_jsonl,
)
from repro.obs.export import SCHEMA as BLAME_SCHEMA
from repro.obs.incident import SCHEMA as INCIDENT_SCHEMA
from repro.system import (
    KvSystem,
    SystemConfig,
    TenantSpec,
    observe,
    run_config,
)
from repro.telemetry import (
    TelemetryConfig,
    events_table,
    health_table,
    summary_table,
    validate_telemetry_file,
    write_telemetry_jsonl,
)
from repro.telemetry.export import SCHEMA as TELEMETRY_SCHEMA
from repro.trace import (
    Tracer,
    component_table,
    phase_table,
    queue_split_table,
    summarize,
    validate_trace_file,
    write_chrome_trace,
)


MODES = ("baseline", "isc_a", "isc_b", "isc_c", "checkin")

_RUN_ARGS = {
    "mode": dict(choices=MODES),
    "workload": dict(choices=("A", "B", "C", "F", "WO")),
    "threads": dict(type=int),
    "queries": dict(type=int),
    "distribution": dict(choices=("uniform", "zipfian",
                                  "scrambled_zipfian")),
    "seed": dict(type=int),
    "tenants": dict(type=int, metavar="N",
                    help="N identical tenants sharing one namespaced "
                         "device instead of the classic run"),
    "gate": dict(action="store_true",
                 help="freeze queries during checkpoints (the Figure-10 "
                      "gated configuration; makes checkpoint stalls "
                      "visible in the tail)"),
    "ckpt_interval": dict(metavar="DUR",
                          help="checkpoint interval in simulated time, "
                               "e.g. 10ms"),
    "journal_mib": dict(type=int, metavar="N",
                        help="journal area size in MiB; smaller areas "
                             "checkpoint more often"),
    "interval": dict(metavar="DUR",
                     help="telemetry sampling interval in simulated "
                          "time, e.g. 10ms / 500us / 250000"),
}
"""Flags :func:`_config_from_args` reads.  Each subcommand adds the
subset it supports, with its own defaults, through :func:`_add_run_args`."""

_DIRECT_FIELDS = (
    ("mode", "mode"), ("workload", "workload"), ("threads", "threads"),
    ("queries", "total_queries"), ("distribution", "distribution"),
    ("seed", "seed"), ("gate", "lock_queries_during_checkpoint"))
"""(flag dest, SystemConfig field) pairs copied over unchanged."""


def _add_run_args(parser: argparse.ArgumentParser, **defaults: Any) -> None:
    """Add the named :data:`_RUN_ARGS` flags, each with its default."""
    for name, default in defaults.items():
        parser.add_argument("--" + name.replace("_", "-"), default=default,
                            **_RUN_ARGS[name])


def _config_from_args(args: argparse.Namespace, **fixed: Any
                      ) -> SystemConfig:
    """The one place a subcommand's flags become a :class:`SystemConfig`.

    Flags the subcommand does not define are skipped; ``fixed`` carries
    the fields it has no flag for.  ``--tenants N`` means N default
    tenants on an 8 MiB journal, and an explicit ``--journal-mib M``
    wins over that journal (its checkpoint quota is M/8).
    """
    fields = dict(fixed)
    for dest, name in _DIRECT_FIELDS:
        value = getattr(args, dest, None)
        if value is not None:
            fields[name] = value
    tenants = getattr(args, "tenants", None)
    if tenants is not None:
        fields["tenants"] = tuple(TenantSpec() for _ in range(tenants))
        fields["journal_area_bytes"] = 8 * MIB
    journal_mib = getattr(args, "journal_mib", None)
    if journal_mib is not None:
        fields["journal_area_bytes"] = journal_mib * MIB
        fields["checkpoint_journal_quota"] = journal_mib * MIB // 8
    ckpt_interval = getattr(args, "ckpt_interval", None)
    if ckpt_interval is not None:
        fields["checkpoint_interval_ns"] = parse_duration_ns(ckpt_interval)
    interval = getattr(args, "interval", None)
    if interval is not None:
        fields["telemetry"] = TelemetryConfig(
            interval_ns=parse_duration_ns(interval))
    return SystemConfig(**fields)


TRACE_FORMAT = "chrome-trace"
"""The name ``inspect`` gives a Chrome ``trace_event`` JSON export."""

VALIDATORS = {
    TRACE_FORMAT: validate_trace_file,
    TELEMETRY_SCHEMA: validate_telemetry_file,
    BLAME_SCHEMA: validate_blame_file,
    INCIDENT_SCHEMA: validate_incident_file,
}
"""Export format -> validator returning its list of problems."""


def _export_format(path: str) -> Tuple[Optional[str], List[str]]:
    """Which export ``path`` holds: ``(format or None, problems)``.

    A JSON object with a ``traceEvents`` list is a Chrome trace; a JSONL
    dump is named by the ``schema`` of its header line.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    try:
        head = json.loads(text)
    except ValueError:
        try:
            head = json.loads(text.lstrip().split("\n", 1)[0])
        except ValueError:
            head = None
    if isinstance(head, dict):
        if isinstance(head.get("traceEvents"), list):
            return TRACE_FORMAT, []
        if head.get("type") == "header" and head.get("schema") in VALIDATORS:
            return head["schema"], []
    return None, [f"unknown format (expected one of: "
                  f"{', '.join(VALIDATORS)})"]


def _validate(path: str) -> Tuple[Optional[str], List[str]]:
    """Validate any export by its format, printing each problem."""
    kind, problems = _export_format(path)
    if kind is not None:
        problems = VALIDATORS[kind](path)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    return kind, problems


def _report_export(written: str, path: str) -> int:
    """Re-validate a just-written export; print its status line."""
    _kind, problems = _validate(path)
    status = "valid" if not problems else f"{len(problems)} problems"
    print(f"[{written} -> {path} ({status})]")
    return 1 if problems else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Validate any export; replay an incident bundle's timeline."""
    kind, problems = _validate(args.file)
    print(f"{args.file}: "
          + (f"{kind} ok" if not problems else f"{len(problems)} problems"))
    if problems:
        return 1
    if kind == INCIDENT_SCHEMA:
        records = load_incident_file(args.file)
        print(timeline_table(records))
        print(f"[dominant blame stage: {dominant_stage(records) or '-'}]")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[exp_id, (runner.__doc__ or "").strip().splitlines()[0]]
            for exp_id, runner in sorted(EXPERIMENTS.items())]
    print(format_table(["experiment", "description"], rows))
    return 0


def _runs_phase_table(runs: Sequence[Tuple[str, Tracer]]) -> str:
    """One row per traced run: checkpoint count and per-phase totals."""
    summaries = [(label, summarize(tracer)) for label, tracer in runs]
    phases = sorted({phase for _label, summary in summaries
                     for phase in summary.phase_totals})
    headers = ["run", "ckpts", "ckpt_ms"] + [f"{p}_ms" for p in phases]
    rows: List[List[Any]] = []
    for label, summary in summaries:
        total_ms = sum(c["duration_ns"] for c in summary.checkpoints) / 1e6
        rows.append([label, summary.checkpoint_count, total_ms]
                    + [summary.phase_totals.get(p, 0) / 1e6 for p in phases])
    return format_table(headers, rows,
                        title="trace: checkpoint phases per run")


def _traced_runs(systems: Sequence[KvSystem]) -> List[Tuple[str, Tracer]]:
    """(label, tracer) of every traced system, for one merged export."""
    return [(system.label, system.sim.tracer) for system in systems
            if system.sim.tracer.enabled]


def _emit_trace(systems: Sequence[KvSystem], out: Optional[str]) -> int:
    """Print the trace overview and optionally export the Chrome JSON."""
    runs = _traced_runs(systems)
    if not runs:
        print("[trace: no traced runs collected]", file=sys.stderr)
        return 0
    print()
    print(_runs_phase_table(runs))
    if not out:
        return 0
    count = write_chrome_trace(out, runs)
    print()
    return _report_export(f"trace: {count} events from {len(runs)} run(s)",
                          out)


def _emit_telemetry(systems: Sequence[KvSystem], out: Optional[str]) -> int:
    """Print sampler overviews; optionally dump the JSONL file(s)."""
    samplers = [(system.label, system.telemetry) for system in systems
                if system.telemetry is not None]
    if not samplers:
        print("[telemetry: no sampled runs collected]", file=sys.stderr)
        return 0
    rows = [[label, sampler.samples, len(sampler.series),
             len(sampler.events),
             len(sampler.health.frames) if sampler.health else 0]
            for label, sampler in samplers]
    print()
    print(format_table(
        ["run", "samples", "series", "events", "health_frames"],
        rows, title="telemetry: sampled runs"))
    exit_code = 0
    if out:
        stem, ext = os.path.splitext(out)
        for label, sampler in samplers:
            path = out if len(samplers) == 1 else f"{stem}-{label}{ext}"
            count = write_telemetry_jsonl(path, sampler)
            exit_code |= _report_export(f"telemetry: {count} records", path)
    return exit_code


def _cmd_run(args: argparse.Namespace) -> int:
    if args.tenants is not None or args.arrivals is not None:
        if args.experiment is not None:
            print("run: give either an experiment id or --tenants/"
                  "--arrivals, not both", file=sys.stderr)
            return 2
        return _run_preset(args)
    if args.experiment is None:
        print("run: an experiment id, --tenants N or --arrivals RATE "
              "is required", file=sys.stderr)
        return 2
    scale = FULL if args.scale == "full" else QUICK
    telemetry = TelemetryConfig(
        interval_ns=parse_duration_ns(args.telemetry_interval)) \
        if args.telemetry else None
    started = time.time()
    with observe(trace=args.trace, telemetry=telemetry) as scope:
        result = run_experiment(args.experiment, scale)
    elapsed = time.time() - started
    print(result if isinstance(result, str) else result.table())
    for extra in ("comparison_table", "lifetime_table"):
        if hasattr(result, extra):
            print()
            print(getattr(result, extra)())
    exit_code = 0
    if args.trace:
        exit_code |= _emit_trace(scope.systems, args.out)
    if args.telemetry:
        exit_code |= _emit_telemetry(scope.systems, args.telemetry_out)
    print(f"\n[{args.experiment} at {scale.name} scale: {elapsed:.1f}s]")
    return exit_code


def _run_preset(args: argparse.Namespace) -> int:
    """``repro run --tenants N`` and/or ``--arrivals RATE``: one small run.

    Prints one row per tenant plus the aggregate and checks the tenants
    sum to it.  With ``--arrivals`` every tenant gets its own open-loop
    dispatcher and front door at RATE; the table gains the admission
    columns and the exit code the reconciliation check.
    """
    from repro.engine.admission import AdmissionConfig
    from repro.workload.arrivals import ArrivalSpec

    if args.tenants is not None and args.tenants < 1:
        print("run: --tenants must be >= 1", file=sys.stderr)
        return 2
    open_loop = args.arrivals is not None
    fixed = dict(threads=8, num_keys=1_024, total_queries=4_000,
                 journal_area_bytes=8 * MIB, verify_reads=False)
    title = f"mode {args.mode}"
    if open_loop:
        if args.arrivals <= 0:
            print("run: --arrivals must be a positive ops/s rate",
                  file=sys.stderr)
            return 2
        fixed["arrivals"] = ArrivalSpec(rate_ops_per_sec=args.arrivals,
                                        process=args.arrival_process,
                                        schedule=args.arrival_schedule)
        fixed["admission"] = AdmissionConfig(policy=args.admission_policy,
                                             max_inflight=args.max_inflight,
                                             max_waiting=args.max_waiting)
        title += (f", open loop @ {args.arrivals:,.0f} ops/s "
                  f"({args.arrival_process}/{args.arrival_schedule}, "
                  f"policy {args.admission_policy})")
    started = time.time()
    result = run_config(_config_from_args(args, **fixed))
    elapsed = time.time() - started
    headers = ["tenant", "operations", "qps", "p99_us", "checkpoints"]
    if open_loop:
        headers += ["submitted", "shed", "shed_rate", "peak_queue",
                    "reconciled"]
    rows = []
    reconciled = True
    for tenant in result.tenants:
        row = [tenant.name, tenant.operations,
               tenant.metrics.throughput_qps(),
               tenant.metrics.latency_all.p(99.0)[99.0] / 1e3,
               len(tenant.checkpoint_reports)]
        if open_loop:
            report = tenant.admission
            reconciled = reconciled and report.reconciles()
            row += [report.submitted, report.shed_total, report.shed_rate,
                    report.max_waiting_seen,
                    "yes" if report.reconciles() else "NO"]
        rows.append(row)
    rows.append(["aggregate", result.metrics.operations,
                 result.metrics.throughput_qps(),
                 result.metrics.latency_all.p(99.0)[99.0] / 1e3,
                 result.checkpoint_count] + ["-"] * (len(headers) - 5))
    print(format_table(headers, rows,
                       title=f"{len(result.tenants)} tenant(s) / {title}"))
    tenant_ops = sum(t.operations for t in result.tenants)
    consistent = tenant_ops == result.metrics.operations
    print(f"\n[per-tenant ops {'sum to' if consistent else 'DO NOT sum to'} "
          f"the aggregate: {tenant_ops} vs {result.metrics.operations}; "
          f"wall {elapsed:.1f}s]")
    if open_loop:
        print(f"[every submitted op got a typed completion: "
              f"{'yes' if reconciled else 'NO — ZOMBIE OPS'}]")
    return 0 if consistent and reconciled else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """One sampled run: summary tables and a re-validated JSONL export."""
    started = time.time()
    result = run_config(_config_from_args(args, verify_reads=False))
    elapsed = time.time() - started
    sampler = result.telemetry
    if args.summary:
        print(summary_table(sampler))
        print()
        print(events_table(sampler))
        print()
        print(health_table(sampler))
    exit_code = 0
    if args.out:
        count = write_telemetry_jsonl(args.out, sampler)
        exit_code = _report_export(f"telemetry: {count} records", args.out)
    print(f"[{sampler.samples} samples / {len(sampler.series)} series / "
          f"{len(sampler.events)} events; wall {elapsed:.1f}s]")
    return exit_code


def _cmd_blame(args: argparse.Namespace) -> int:
    """One blamed run: per-stage attribution, tail profile, exemplars.

    Answers "where did the nanoseconds go" per request: the blame table
    splits every request's end-to-end latency into pipeline stages (the
    ledger sums exactly — conservation is enforced at finalize), the tail
    table conditions the split on >p99 requests, and the exemplar table
    names the worst requests with their trace span ids.
    """
    started = time.time()
    result = run_config(_config_from_args(args, verify_reads=False,
                                          blame=True))
    elapsed = time.time() - started
    report = result.blame
    print(blame_table(report))
    print()
    print(tail_table(report, p=args.percentile))
    print()
    print(exemplar_table(report))
    exit_code = 0
    if args.out:
        count = write_blame_jsonl(args.out, report, p=args.percentile)
        print()
        exit_code = _report_export(f"blame: {count} records", args.out)
    if args.assert_ckpt_tail:
        profile = report.aggregate().tail_profile(args.percentile)
        dominant = profile.dominant_tail_category()
        ok = dominant in CKPT_FAMILY
        print(f"[dominant tail stage: {dominant or '-'} "
              f"({'checkpoint-family' if ok else 'NOT checkpoint-family'}), "
              f"ckpt tail share {profile.ckpt_tail_share:.1%}]")
        if not ok:
            exit_code = 1
    print(f"[{report.requests} blamed requests / "
          f"{result.checkpoint_count} checkpoints; wall {elapsed:.1f}s]")
    return exit_code


def _cmd_incident(args: argparse.Namespace) -> int:
    """Black-box forensics: trip a seeded incident and reconstruct it.

    The default run is the burst-storm-into-gated-checkpoints scenario:
    open-loop bursty arrivals behind a bounded front door, checkpoints
    freezing queries (the Figure-10 gate), flight recorder armed.  The
    escalated SLO watchdog turns the breach into an incident trigger;
    the bundle is dumped, validated, and replayed as one merged causal
    timeline naming the dominant blame stage.
    """
    from repro.common.jsonl import read_json

    started = time.time()
    if args.kill_at is not None:
        records, systems = _run_pair_incident(args)
    else:
        records, systems = _run_node_incident(args)
    elapsed = time.time() - started

    print(timeline_table(records))
    header = records[0]
    stage = dominant_stage(records)
    print(f"\n[trigger: {header.get('trigger_reason') or 'none'}; "
          f"dominant blame stage: {stage or '-'}]")

    exit_code = 0
    if args.out:
        count = write_incident_jsonl(args.out, records)
        exit_code = _report_export(f"incident: {count} records", args.out)
    if args.trace_out:
        count = write_chrome_trace(args.trace_out, _traced_runs(systems))
        document, junk = read_json(args.trace_out)
        problems = junk + resolve_against_trace(records, document)
        for problem in problems:
            print(f"UNRESOLVED: {problem}", file=sys.stderr)
        status = "all flight span ids resolve" if not problems \
            else f"{len(problems)} problems"
        print(f"[trace: {count} events -> {args.trace_out} ({status})]")
        if problems:
            exit_code = 1
    if args.assert_trigger and header.get("trigger_reason") is None:
        print("ASSERT: no incident trigger fired", file=sys.stderr)
        exit_code = 1
    if args.assert_stage is not None and stage != args.assert_stage:
        print(f"ASSERT: dominant stage {stage or '-'} != "
              f"{args.assert_stage}", file=sys.stderr)
        exit_code = 1
    flights = header.get("flight_events", 0)
    print(f"[{flights} flight events / {header.get('triggers', 0)} "
          f"trigger(s); wall {elapsed:.1f}s]")
    return exit_code


def _run_node_incident(args: argparse.Namespace
                       ) -> Tuple[Any, List[KvSystem]]:
    """One flight-recorded gated system under a seeded burst storm."""
    from repro.engine.admission import AdmissionConfig
    from repro.workload.arrivals import ArrivalSpec

    fixed = dict(verify_reads=False, blame=True, trace=True,
                 flightrec=True)
    if args.burst:
        fixed["arrivals"] = ArrivalSpec(
            rate_ops_per_sec=args.arrival_rate, process="bursts",
            schedule="flash-crowd")
        fixed["admission"] = AdmissionConfig(
            policy="queue", max_inflight=args.threads,
            max_waiting=args.max_waiting)
    system = KvSystem(_config_from_args(args, **fixed))
    for name in args.escalate.split(","):
        if name:
            system.telemetry.watchdogs.escalate(name.strip())
    system.run()
    records = incident_records(
        system, window_ns=parse_duration_ns(args.window),
        k=args.exemplars)
    return records, [system]


def _run_pair_incident(args: argparse.Namespace
                       ) -> Tuple[Any, List[KvSystem]]:
    """Cross-node incident: kill the primary mid-ship, then promote."""
    from repro.common.rng import SeededRng
    from repro.replication.campaign import campaign_config
    from repro.replication.replica import ReplicatedPair

    config = campaign_config(mode=args.mode, seed=args.seed,
                             ops=args.queries, flightrec=True)
    pair = ReplicatedPair(config)
    pair.start()
    pair.run_workload(kill_step=args.kill_at)
    pair.kill_primary(SeededRng(args.seed).fork("incident-cli"))
    report = pair.promote()
    print(f"primary killed at step {args.kill_at}; warm promote RTO "
          f"{report.rto_ns / 1e6:.3f} ms, RPO {report.rpo_ops} ops")
    records = pair_incident_records(
        pair, window_ns=parse_duration_ns(args.window), k=args.exemplars)
    return records, [pair.primary, pair.replica]


def _cmd_bench(args: argparse.Namespace) -> int:
    # Bench runs always carry blame ledgers: the artifact's gated
    # ckpt_blame_p99_share metric comes from them, and blame adds no
    # simulated-time events, so every other metric is unaffected.
    config = _config_from_args(args, verify_reads=False, trace=args.trace,
                               blame=True)
    started = time.time()
    system = KvSystem(config)
    events_before = system.sim._seq
    result = system.run()
    elapsed = time.time() - started
    metrics = result.metrics
    events_per_op = ((system.sim._seq - events_before)
                     / max(1, metrics.operations))
    summary = metrics.summary()
    rows = [[key, value] for key, value in summary.items()]
    rows.append(["checkpoints", result.checkpoint_count])
    rows.append(["mean_ckpt_ms", result.mean_checkpoint_ns() / 1e6])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.mode} / workload {args.workload} / "
                             f"{args.threads} threads"))
    exit_code = 0
    if result.trace_summary is not None:
        for table in (component_table, phase_table, queue_split_table):
            print()
            print(table(result.trace_summary))
        if args.out:
            count = write_chrome_trace(args.out, _traced_runs([system]))
            print()
            exit_code = _report_export(f"trace: {count} events", args.out)
    if not args.no_artifact:
        from repro.analysis.benchfile import (
            bench_artifact,
            runstamp,
            write_bench_artifact,
        )
        from repro.experiments.knee import bench_knee_probe
        from repro.experiments.recovery_matrix import bench_rto_probe
        bench_params = {"mode": args.mode, "workload": args.workload,
                        "threads": args.threads, "queries": args.queries,
                        "distribution": args.distribution}
        # The knee probe is its own compact two-mode sweep (simulated
        # time, deterministic) — the artifact gates the open-loop
        # sustainable-load headline alongside the closed-loop metrics.
        knee_started = time.time()
        knee_ops = bench_knee_probe()
        print(f"\n[knee probe: checkin sustains {knee_ops:,.0f} open-loop "
              f"ops/s ({time.time() - knee_started:.1f}s)]")
        # Likewise the warm-failover probe: a compact seeded
        # kill-the-primary campaign whose mean promote RTO gates the
        # replication subsystem's first-read latency after failover.
        rto_started = time.time()
        rto_ns = bench_rto_probe()
        print(f"[rto probe: warm replica promote serves in "
              f"{rto_ns / 1e6:.3f} ms ({time.time() - rto_started:.1f}s)]")
        stamp = runstamp()
        path = args.artifact or f"BENCH_{stamp}.json"
        write_bench_artifact(
            path, bench_artifact(result, bench_params, stamp=stamp,
                                 extra_metrics={
                                     "knee_sustainable_ops": knee_ops,
                                     "rto_warm_replica_ns": rto_ns,
                                     "events_per_op": events_per_op}))
        print(f"[bench artifact -> {path}]")
    print(f"\n[wall: {elapsed:.1f}s, simulated: "
          f"{metrics.duration_ns / 1e9:.3f}s, "
          f"{result.ops_per_sec:,.0f} ops/s, {events_per_op:.4f} events/op]")
    return exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one run and print the hottest functions.

    The development loop behind the hot-path work: profile, attack the
    top entries, re-profile.  The run itself is identical to ``repro
    bench --no-artifact`` (same config class, ``verify_reads`` off).
    """
    import cProfile
    import pstats

    config = _config_from_args(args, verify_reads=False)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_config(config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        from repro.common.jsonl import ensure_parent_dir
        stats.dump_stats(ensure_parent_dir(args.out))
        print(f"[profile data -> {args.out}]")
    print(f"[{result.metrics.operations} operations, "
          f"wall {result.wall_seconds:.2f}s, "
          f"{result.ops_per_sec:,.0f} ops/s]")
    return 0


FAULT_SWEEP_MODES = ("baseline", "isc_c", "checkin")
"""Configurations the crash sweep exercises: the conventional system and
the two remapping-FTL systems (ISC-A/B share the baseline's device FTL)."""


def _cmd_media_sweep(args: argparse.Namespace) -> int:
    from repro.fault.media import media_sweep, spare_exhaustion_run
    modes = FAULT_SWEEP_MODES if args.mode == "all" else (args.mode,)
    rates = tuple(float(rate) for rate in args.media_rates.split(","))
    rows = []
    failed = 0
    started = time.time()
    for mode in modes:
        sweep = media_sweep(mode=mode, rates=rates, seed=args.seed,
                            ops=args.ops, tenants=args.tenants)
        failures = sweep.failures()
        failed += len(failures)
        for point in sweep.results:
            rows.append([mode, f"{point.rate:g}", point.acked_keys,
                         point.program_fails, point.erase_fails,
                         point.uecc_events, point.relocations,
                         point.bad_blocks,
                         "yes" if point.degraded else "no",
                         "FAIL" if not point.ok else "ok"])
        for point in failures:
            print(f"FAIL {mode} rate {point.rate}: {point.problems()[0]}",
                  file=sys.stderr)
    exhaustion = spare_exhaustion_run(seed=args.seed)
    summary = exhaustion.metrics.summary()
    degraded_ok = summary["degraded"] == 1.0 and summary["bad_blocks"] > 0
    if not degraded_ok:
        failed += 1
        print("FAIL spare-exhaustion run did not end in degraded mode",
              file=sys.stderr)
    elapsed = time.time() - started
    print(format_table(
        ["mode", "rate", "acked", "pgm_fail", "ers_fail", "uecc",
         "reloc", "bad_blk", "degraded", "verdict"],
        rows, title=f"media-error sweep (seed {args.seed})"))
    print(f"\nspare-exhaustion: degraded={summary['degraded']:.0f} "
          f"bad_blocks={summary['bad_blocks']:.0f} "
          f"({exhaustion.metrics.degraded_reason or 'healthy'})")
    print(f"[{len(rows)} sweep points: {elapsed:.1f}s]")
    return 1 if failed else 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    from repro.fault.harness import fault_sweep
    if args.media_errors:
        return _cmd_media_sweep(args)
    modes = FAULT_SWEEP_MODES if args.mode == "all" else (args.mode,)
    rows = []
    failed = 0
    started = time.time()
    for mode in modes:
        sweep = fault_sweep(mode=mode, crash_points=args.crash_points,
                            seed=args.seed, ops=args.ops,
                            tenants=args.tenants)
        failures = sweep.failures()
        failed += len(failures)
        rows.append([mode, len(sweep.results), sweep.total_steps,
                     len(failures), sweep.mean_recovery_wall_ns() / 1e6,
                     sweep.max_recovery_wall_ns() / 1e6, sweep.digest()])
        for result in failures:
            print(f"FAIL {mode} crash point {result.index} "
                  f"(step {result.crash_step}): {result.problems()[0]}",
                  file=sys.stderr)
    elapsed = time.time() - started
    print(format_table(
        ["mode", "crash_points", "workload_steps", "failures",
         "rec_mean_ms", "rec_max_ms", "digest"],
        rows, title=f"fault sweep (seed {args.seed})"))
    print(f"\n[{sum(r[1] for r in rows)} crash points: {elapsed:.1f}s]")
    return 1 if failed else 0


def _replicate_link(args: argparse.Namespace):
    from repro.replication.ship import LinkSpec
    return LinkSpec(latency_ns=int(args.latency_us * 1_000),
                    gbit_per_s=args.gbps, batch_ops=args.batch_ops,
                    queue_depth=args.queue_depth)


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.common.rng import SeededRng
    from repro.replication.campaign import (
        campaign_config,
        cold_restore,
        kill_primary_campaign,
    )
    from repro.replication.replica import ReplicatedPair

    link = _replicate_link(args)
    strategies = ("warm", "snapshot") if args.strategy == "both" \
        else (args.strategy,)
    started = time.time()

    if args.campaign is not None:
        campaign = kill_primary_campaign(
            mode=args.mode, crash_points=args.campaign, seed=args.seed,
            ops=args.ops, num_keys=args.keys, link=link,
            strategies=strategies)
        rows = []
        for strategy in strategies:
            rows.append([strategy, len(campaign.points),
                         campaign.mean_rto_ns(strategy) / 1e6,
                         campaign.mean_rpo_ops(strategy)])
        print(format_table(
            ["strategy", "crash_points", "rto_mean_ms", "rpo_mean_ops"],
            rows, title=f"kill-the-primary campaign (mode {args.mode}, "
                        f"seed {args.seed}, digest {campaign.digest()})"))
        if len(strategies) == 2:
            print(f"\nwarm promote vs snapshot+replay RTO: "
                  f"{campaign.rto_speedup():.2f}x faster")
        print(f"[{len(campaign.points)} kills, zero acked-write loss: "
              f"{time.time() - started:.1f}s]")
        return 0 if campaign.ok else 1

    # Single kill-and-promote run.
    config = campaign_config(mode=args.mode, seed=args.seed, ops=args.ops,
                             num_keys=args.keys)
    kill_step = args.kill_at
    if kill_step is None:
        reference = ReplicatedPair(config, link=link)
        reference.start()
        total_steps, _ = reference.run_workload()
        reference.stop()
        kill_step = max(1, int(total_steps * args.kill_frac))
    pair = ReplicatedPair(config, link=link, semi_sync=args.semi_sync)
    pair.start()
    pair.run_workload(kill_step=kill_step)
    pair.kill_primary(SeededRng(args.seed).fork("replicate-cli"))
    print(f"primary killed at step {kill_step} "
          f"(t={pair.primary.sim.now / 1e6:.3f} ms): "
          f"{len(pair.log)} committed ops, "
          f"shipped {pair.shipper.shipped_offset}, "
          f"acked {pair.shipper.acked_offset}")
    ok = True
    if "warm" in strategies:
        warm = pair.promote()
        ok &= warm.contract_ok
        print(f"  warm promote    : RTO {warm.rto_ns / 1e6:8.3f} ms, "
              f"RPO {warm.rpo_ops} ops, applied {warm.applied_offset}, "
              f"{warm.verified_reads} reads verified, "
              f"contract {'OK' if warm.contract_ok else 'VIOLATED'}")
    if "snapshot" in strategies:
        cold = cold_restore(pair)
        ok &= cold.contract_ok
        print(f"  snapshot+replay : RTO {cold.rto_ns / 1e6:8.3f} ms, "
              f"RPO {cold.rpo_ops} ops, installed {cold.installed} + "
              f"replayed {cold.replayed_ops}, "
              f"contract {'OK' if cold.contract_ok else 'VIOLATED'}")
    print(f"[wall: {time.time() - started:.1f}s]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI, one subparser per subcommand (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Check-In (ISCA 2020) reproduction: experiments and runs")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproducible figures/tables") \
        .set_defaults(handler=_cmd_list)

    experiment_names = sorted(EXPERIMENTS) + sorted(EXPERIMENT_ALIASES)

    run_parser = commands.add_parser(
        "run", help="run one experiment, or N tenants with --tenants")
    run_parser.add_argument("experiment", nargs="?", default=None,
                            choices=experiment_names)
    _add_run_args(run_parser, mode="checkin", tenants=None)
    run_parser.add_argument("--scale", choices=("quick", "full"),
                            default="quick")
    run_parser.add_argument("--trace", action="store_true",
                            help="trace every system in the experiment and "
                                 "print the checkpoint phase breakdown")
    run_parser.add_argument("--out", metavar="PATH", default=None,
                            help="with --trace: write the Chrome "
                                 "trace_event JSON here (Perfetto-loadable)")
    run_parser.add_argument("--telemetry", action="store_true",
                            help="sample every system in the experiment "
                                 "(time series, SLO watchdogs, health log)")
    run_parser.add_argument("--telemetry-interval", metavar="DUR",
                            default="1ms",
                            help="sampling interval, e.g. 10ms / 500us "
                                 "(default: 1ms of simulated time)")
    run_parser.add_argument("--telemetry-out", metavar="PATH", default=None,
                            help="with --telemetry: write the JSONL "
                                 "dump(s) here")
    run_parser.add_argument("--arrivals", type=float, default=None,
                            metavar="RATE",
                            help="instead of an experiment: one open-loop "
                                 "run at RATE offered ops/s behind the "
                                 "front-door admission controller "
                                 "(combine with --tenants for fan-in)")
    run_parser.add_argument("--arrival-process", default="poisson",
                            choices=("poisson", "bursts"),
                            help="open-loop arrival process "
                                 "(default: poisson)")
    run_parser.add_argument("--arrival-schedule", default="constant",
                            choices=("constant", "diurnal", "flash-crowd"),
                            help="open-loop rate schedule "
                                 "(default: constant)")
    run_parser.add_argument("--admission-policy", default="queue",
                            choices=("queue", "shed", "degrade"),
                            help="front-door policy for --arrivals runs")
    run_parser.add_argument("--max-inflight", type=int, default=64,
                            help="admission in-flight slot limit")
    run_parser.add_argument("--max-waiting", type=int, default=256,
                            help="admission waiting-room depth")
    run_parser.set_defaults(handler=_cmd_run)

    inspect_parser = commands.add_parser(
        "inspect",
        help="validate any export (trace, telemetry, blame or incident) "
             "by its header; replay an incident bundle's timeline")
    inspect_parser.add_argument("file", metavar="FILE")
    inspect_parser.set_defaults(handler=_cmd_inspect)

    bench_parser = commands.add_parser(
        "bench", help="run one configuration and print its metrics")
    _add_run_args(bench_parser, mode="checkin", workload="A", threads=32,
                  queries=20_000, distribution="zipfian")
    bench_parser.add_argument("--trace", action="store_true",
                              help="trace the run and print per-component "
                                   "stage/phase/queue tables")
    bench_parser.add_argument("--out", metavar="PATH", default=None,
                              help="with --trace: write the Chrome "
                                   "trace_event JSON here")
    bench_parser.add_argument("--artifact", metavar="PATH", default=None,
                              help="write the schema-versioned bench "
                                   "artifact here (default: "
                                   "BENCH_<runstamp>.json in the CWD)")
    bench_parser.add_argument("--no-artifact", action="store_true",
                              help="skip writing the bench artifact")
    bench_parser.set_defaults(handler=_cmd_bench)

    profile_parser = commands.add_parser(
        "profile",
        help="cProfile one run and print the hottest functions")
    _add_run_args(profile_parser, mode="checkin", workload="A", threads=8,
                  queries=4_000, tenants=None, distribution="zipfian")
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime", "calls"),
                                help="pstats sort key (default: cumulative)")
    profile_parser.add_argument("--top", type=int, default=25,
                                help="how many entries to print (default 25)")
    profile_parser.add_argument("--out", metavar="PATH", default=None,
                                help="also dump raw pstats data here "
                                     "(inspect with python -m pstats)")
    profile_parser.set_defaults(handler=_cmd_profile)

    blame_parser = commands.add_parser(
        "blame",
        help="attribute per-request latency to pipeline stages and "
             "print a root-cause report")
    _add_run_args(blame_parser, mode="baseline", workload="WO", threads=8,
                  queries=4_000, tenants=None, ckpt_interval=None,
                  journal_mib=None, gate=False)
    blame_parser.add_argument("--percentile", type=float, default=99.0,
                              metavar="P",
                              help="tail percentile for the blame "
                                   "profile (default 99)")
    blame_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the repro-blame/v1 JSONL dump "
                                   "here (re-validated after writing)")
    blame_parser.add_argument("--assert-ckpt-tail", action="store_true",
                              help="exit nonzero unless the dominant "
                                   "tail stage is checkpoint-family "
                                   "(CI smoke assertion)")
    blame_parser.set_defaults(handler=_cmd_blame)

    incident_parser = commands.add_parser(
        "incident",
        help="trip a seeded incident, dump the repro-incident/v1 "
             "bundle and reconstruct the cross-plane causal timeline")
    _add_run_args(incident_parser, mode="baseline", workload="WO",
                  threads=8, queries=1_500, seed=7, gate=False,
                  ckpt_interval="10ms", journal_mib=2, interval="1ms")
    incident_parser.add_argument("--burst", action="store_true",
                                 help="drive the run with an open-loop "
                                      "flash-crowd burst storm behind a "
                                      "bounded front door")
    incident_parser.add_argument("--arrival-rate", type=float,
                                 default=120_000.0, metavar="OPS",
                                 help="burst-storm base arrival rate "
                                      "(ops per simulated second)")
    incident_parser.add_argument("--max-waiting", type=int, default=64,
                                 help="front-door waiting-room depth "
                                      "for the burst storm")
    incident_parser.add_argument("--window", metavar="DUR", default="10ms",
                                 help="telemetry bracket around the "
                                      "trigger in the bundle")
    incident_parser.add_argument("--exemplars", type=int, default=8,
                                 metavar="K",
                                 help="worst-K blame exemplars to embed")
    incident_parser.add_argument("--escalate", metavar="NAMES",
                                 default="admission_overload,"
                                         "journal_saturation,"
                                         "checkpoint_overdue",
                                 help="comma-separated watchdogs to "
                                      "escalate to error severity (an "
                                      "error-edge breach trips the "
                                      "incident dump)")
    incident_parser.add_argument("--kill-at", type=int, default=None,
                                 metavar="STEP",
                                 help="cross-node incident instead: "
                                      "replicated pair, primary killed "
                                      "after STEP merged-time steps, "
                                      "then promoted")
    incident_parser.add_argument("--out", metavar="PATH", default=None,
                                 help="write the repro-incident/v1 JSONL "
                                      "bundle here (re-validated after "
                                      "writing)")
    incident_parser.add_argument("--trace-out", metavar="PATH",
                                 default=None,
                                 help="also dump the Chrome trace and "
                                      "check every flight span id "
                                      "resolves in it")
    incident_parser.add_argument("--assert-trigger", action="store_true",
                                 help="exit nonzero unless an incident "
                                      "trigger fired (CI smoke)")
    incident_parser.add_argument("--assert-stage", metavar="STAGE",
                                 default=None,
                                 help="exit nonzero unless the dominant "
                                      "blame stage matches (e.g. "
                                      "ckpt_freeze_stall)")
    incident_parser.set_defaults(handler=_cmd_incident)

    telemetry_parser = commands.add_parser(
        "telemetry",
        help="run one sampled configuration and export its time series")
    _add_run_args(telemetry_parser, mode="checkin", workload="A", threads=8,
                  queries=4_000, tenants=None, interval="1ms")
    telemetry_parser.add_argument("--out", metavar="PATH", default=None,
                                  help="write the JSONL dump here (the "
                                       "dump is re-validated after "
                                       "writing)")
    telemetry_parser.add_argument("--summary", action="store_true",
                                  help="print the per-series overview, "
                                       "watchdog events and health report")
    telemetry_parser.set_defaults(handler=_cmd_telemetry)

    fault_parser = commands.add_parser(
        "fault-sweep",
        help="crash-consistency sweep: power-cut at N seeded instants")
    fault_parser.add_argument("--mode", default="all",
                              choices=("all",) + FAULT_SWEEP_MODES)
    fault_parser.add_argument("--crash-points", type=int, default=20)
    fault_parser.add_argument("--seed", type=int, default=7)
    fault_parser.add_argument("--ops", type=int, default=120)
    fault_parser.add_argument("--tenants", type=int, default=1,
                              help="crash a multi-tenant (namespaced) "
                                   "system instead of the classic one")
    fault_parser.add_argument("--media-errors", action="store_true",
                              help="media-error campaign instead of crash "
                                   "points: seeded NAND failures under "
                                   "load, plus a spare-exhaustion run")
    fault_parser.add_argument("--media-rates", default="0.001,0.01,0.05",
                              metavar="R1,R2,...",
                              help="program-fail base rates for the "
                                   "media-error grid")
    fault_parser.set_defaults(handler=_cmd_fault_sweep)

    repl_parser = commands.add_parser(
        "replicate",
        help="kill-the-primary drill: journal shipping, promote-on-"
             "failure, snapshot+replay — RTO/RPO per strategy")
    _add_run_args(repl_parser, mode="checkin", seed=7)
    repl_parser.add_argument("--ops", type=int, default=160)
    repl_parser.add_argument("--keys", type=int, default=64)
    repl_parser.add_argument("--kill-at", type=int, default=None,
                             metavar="STEP",
                             help="kill the primary after this many "
                                  "merged-time steps (default: "
                                  "--kill-frac of the full run)")
    repl_parser.add_argument("--kill-frac", type=float, default=0.6,
                             help="kill point as a fraction of the "
                                  "reference run's steps")
    repl_parser.add_argument("--latency-us", type=float, default=50.0,
                             help="one-way link latency")
    repl_parser.add_argument("--gbps", type=float, default=10.0,
                             help="link bandwidth (Gbit/s)")
    repl_parser.add_argument("--batch-ops", type=int, default=64)
    repl_parser.add_argument("--queue-depth", type=int, default=4,
                             help="in-flight ship batches before the "
                                  "shipper stalls")
    repl_parser.add_argument("--campaign", type=int, default=None,
                             metavar="N",
                             help="instead of one kill: N seeded crash "
                                  "points, every strategy, mean RTO/RPO")
    repl_parser.add_argument("--strategy", default="both",
                             choices=("warm", "snapshot", "both"))
    repl_parser.add_argument("--semi-sync", action="store_true",
                             help="writers wait for the ship ack "
                                  "(single-kill runs only)")
    repl_parser.set_defaults(handler=_cmd_replicate)
    return parser


_PLANE_OUTPUTS = {
    "run": (("out", "trace"), ("telemetry_out", "telemetry")),
    "bench": (("out", "trace"),),
}
"""Per subcommand: output flags that write nothing unless their plane is
switched on, as (output dest, plane dest) pairs."""


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for out, plane in _PLANE_OUTPUTS.get(args.command, ()):
        if getattr(args, out) and not getattr(args, plane):
            parser.error(f"{args.command}: --{out.replace('_', '-')} "
                         f"needs --{plane}")
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is the Unix way.
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
