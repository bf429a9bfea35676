#!/usr/bin/env python
"""CI benchmark-regression gate.

Compare a fresh ``repro bench`` artifact against the committed baseline
and exit non-zero when any gated metric drifts past its tolerance::

    PYTHONPATH=src python -m repro bench --threads 8 --queries 4000 \
        --artifact /tmp/bench_now.json
    python benchmarks/regress.py /tmp/bench_now.json

The baseline defaults to ``BENCH_baseline.json`` at the repo root.
Both files carry a ``config_hash`` over their bench parameters; the gate
refuses to compare artifacts of different configurations — a silent
config change would make any drift number meaningless.

The simulator is seed-deterministic, so a same-commit rerun reproduces
every metric but wall-clock ``ops_per_sec`` exactly, and those gate with
zero tolerance.  When a change legitimately moves a metric, regenerate
and commit the baseline in the same change::

    PYTHONPATH=src python -m repro bench --threads 8 --queries 4000 \
        --artifact BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.benchfile import load_bench_artifact  # noqa: E402
from repro.telemetry.names import safe_ratio  # noqa: E402

TOLERANCES = {
    "throughput_qps": 0.0,
    "latency_p50_us": 0.0,
    "latency_p99_us": 0.0,
    "waf": 0.0,
    "redundant_units": 0.0,
    "checkpoint_total_ms": 0.0,
    "operations": 0.0,
    "ops_per_sec": 0.75,
    "ckpt_blame_p99_share": 0.0,
    "knee_sustainable_ops": 0.0,
    "rto_warm_replica_ns": 0.0,
    "events_per_op": 0.0,
}
"""Allowed relative drift per gated metric (0.0 = must not get worse).

Every metric but ``ops_per_sec`` is seed-deterministic, so it may not
move in its bad direction at all.  ``ops_per_sec`` is host wall-clock
simulator speed: its loose tolerance only catches a simulator that got
several times slower, never scheduling jitter on shared CI cores."""

HIGHER_IS_BETTER = {"throughput_qps", "ops_per_sec",
                    "knee_sustainable_ops"}
"""Metrics that only gate in the downward direction; everything else
gates on getting *bigger* (latency, WAF, redundant writes, stalls)."""


def check(baseline: dict, current: dict) -> list:
    """All tolerance breaches of ``current`` vs ``baseline``."""
    problems = []
    if baseline["config_hash"] != current["config_hash"]:
        return [f"config_hash mismatch: baseline ran "
                f"{baseline['bench']}, current ran {current['bench']} — "
                "regenerate the baseline for this configuration"]
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]
    for metric, tolerance in TOLERANCES.items():
        if metric not in base_metrics:
            problems.append(f"{metric}: missing from baseline")
            continue
        if metric not in cur_metrics:
            problems.append(f"{metric}: missing from current artifact")
            continue
        base = base_metrics[metric]
        cur = cur_metrics[metric]
        if metric in HIGHER_IS_BETTER:
            drift = safe_ratio(base - cur, abs(base))   # drop = positive
        else:
            drift = safe_ratio(cur - base, abs(base))   # growth = positive
        if drift > tolerance:
            direction = "dropped" if metric in HIGHER_IS_BETTER \
                else "grew"
            problems.append(
                f"{metric}: {direction} {drift * 100.0:.1f}% "
                f"(baseline {base:g} -> current {cur:g}, "
                f"tolerance {tolerance * 100.0:.0f}%)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench artifact regresses vs the baseline")
    parser.add_argument("current", help="fresh BENCH_*.json to gate")
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "BENCH_baseline.json"),
                        help="committed baseline artifact "
                             "(default: BENCH_baseline.json at repo root)")
    args = parser.parse_args(argv)
    try:
        baseline = load_bench_artifact(args.baseline)
        current = load_bench_artifact(args.current)
    except (OSError, ValueError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    problems = check(baseline, current)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if problems:
        print(f"regress: {len(problems)} metric(s) out of tolerance "
              f"(baseline commit {baseline.get('commit', '?')[:12]})")
        return 1
    print(f"regress: all {len(TOLERANCES)} gated metrics within "
          f"tolerance of {pathlib.Path(args.baseline).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
