"""Schema-versioned benchmark artifacts — the CI regression gate's input.

``repro bench`` serialises its headline metrics into a
``BENCH_<runstamp>.json`` at the repo root (or wherever ``--artifact``
points).  The file is self-describing:

* ``schema`` — ``repro-bench/v1``;
* ``runstamp`` — UTC wall time of the run (``YYYYmmddTHHMMSSZ``);
* ``commit`` — ``git rev-parse HEAD`` at run time (``"unknown"`` outside
  a checkout);
* ``config_hash`` — SHA-256 over the *sorted* bench parameters, so a
  baseline is only ever compared against a run of the identical
  configuration;
* ``bench`` — the parameters themselves (mode, workload, threads, …);
* ``metrics`` — the flat metric dict the gate diffs.

``benchmarks/regress.py`` loads a fresh artifact plus the committed
``BENCH_baseline.json`` and fails CI on per-metric tolerance drift.
The simulator is seed-deterministic, so the tolerances are headroom
against future intentional changes, not noise margins.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from typing import Any, Dict, Optional

BENCH_SCHEMA = "repro-bench/v1"

GATED_METRICS = (
    "throughput_qps",
    "latency_p50_us",
    "latency_p99_us",
    "waf",
    "redundant_units",
    "checkpoint_total_ms",
    "operations",
    "ops_per_sec",
    "ckpt_blame_p99_share",
    "knee_sustainable_ops",
    "rto_warm_replica_ns",
    "events_per_op",
)
"""Metrics the regression gate tracks (regress.py assigns tolerances).

``knee_sustainable_ops`` is the open-loop headline: the highest offered
load (ops/s) the checkin mode sustains inside the knee experiment's
fixed p99 + shed SLO (see ``repro.experiments.knee.bench_knee_probe``).
It comes from its own compact sweep, not from the bench run itself, and
is attached via ``bench_artifact(..., extra_metrics=...)``.

``rto_warm_replica_ns`` gates failover: mean simulated time from a
primary power-cut to the promoted replica's first served read, over the
compact seeded kill campaign in
``repro.experiments.recovery_matrix.bench_rto_probe``.  Like the knee it
rides along via ``extra_metrics``.

``events_per_op`` is the simulator's own work: kernel events scheduled
during the bench run (``Simulator._seq``) per completed operation.  It
is deterministic, so it gates a change to the event kernel or to any
layer's yields exactly, on any machine; ``repro bench`` attaches it via
``extra_metrics``.

``ops_per_sec`` is the odd one out: it measures the *simulator* (completed
operations per host wall-clock second), not the simulated system, so it is
the only gated metric that is noisy across machines.  Its tolerance in
``regress.py`` is correspondingly loose — it exists to catch order-of-
magnitude hot-path regressions, not percent-level drift."""


def git_commit(cwd: Optional[str] = None) -> str:
    """The checked-out commit hash, or ``"unknown"``."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cwd,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def config_hash(bench: Dict[str, Any]) -> str:
    """Stable SHA-256 over the bench parameters (sorted-key JSON)."""
    canon = json.dumps(bench, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def runstamp(now: Optional[float] = None) -> str:
    """UTC ``YYYYmmddTHHMMSSZ`` stamp used in the artifact filename."""
    return time.strftime("%Y%m%dT%H%M%SZ",
                         time.gmtime(time.time() if now is None else now))


def bench_metrics(result: Any) -> Dict[str, float]:
    """The gated metric dict of one finished :class:`RunResult`."""
    metrics = result.metrics
    p50 = metrics.latency_all.p(50.0)[50.0]
    gated = {
        "throughput_qps": metrics.throughput_qps(),
        "latency_p50_us": p50 / 1e3,
        "latency_p99_us": metrics.summary()["latency_p99_us"],
        "waf": metrics.waf(),
        "redundant_units": float(metrics.redundant_write_units()),
        "checkpoint_total_ms": sum(
            r.duration_ns for r in result.checkpoint_reports) / 1e6,
        "operations": float(metrics.operations),
        "ops_per_sec": float(result.ops_per_sec),
    }
    if getattr(result, "blame", None) is not None:
        # Checkpoint-attributable share of the >p99 tail (repro.obs):
        # how much of the worst requests' time the checkpoint-family
        # stages caused.  Only present on blamed runs — `repro bench`
        # always blames, so the committed baseline carries it.
        gated["ckpt_blame_p99_share"] = result.blame.ckpt_tail_share()
    return gated


def bench_artifact(result: Any, bench: Dict[str, Any],
                   stamp: Optional[str] = None,
                   extra_metrics: Optional[Dict[str, float]] = None
                   ) -> Dict[str, Any]:
    """Assemble the full artifact dict for one run.

    ``extra_metrics`` lets the caller attach gated metrics that come
    from companion sweeps rather than the bench run itself (the knee
    probe's ``knee_sustainable_ops``).  They never enter the config
    hash, which covers only the bench *parameters*.
    """
    metrics = bench_metrics(result)
    if extra_metrics:
        metrics.update(extra_metrics)
    return {
        "schema": BENCH_SCHEMA,
        "runstamp": stamp or runstamp(),
        "commit": git_commit(),
        "config_hash": config_hash(bench),
        "bench": dict(bench),
        "metrics": metrics,
    }


def write_bench_artifact(path: str, artifact: Dict[str, Any]) -> str:
    """Write one artifact as pretty JSON; returns ``path``."""
    from repro.common.jsonl import ensure_parent_dir
    with open(ensure_parent_dir(path), "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench_artifact(path: str) -> Dict[str, Any]:
    """Load and schema-check an artifact; raises ``ValueError`` on junk."""
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: schema {artifact.get('schema')!r} "
                         f"is not {BENCH_SCHEMA!r}")
    for key in ("config_hash", "bench", "metrics"):
        if key not in artifact:
            raise ValueError(f"{path}: missing {key!r}")
    return artifact
