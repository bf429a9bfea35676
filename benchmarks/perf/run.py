"""The repository benchmark: four workloads, every metric, correctness gates.

Run from the repository root (no install and no PYTHONPATH needed)::

    python3 benchmarks/perf/run.py [--seed N] [--workload NAME ...] [--out FILE]
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --layers-table FILE

Without ``--trace`` every named workload (default: all four) gets both
passes and one JSON result is written.  With ``--trace`` one workload gets
one pass and the last line of standard output is a single JSON object:
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.

Each measurement runs in its own fresh ``python`` process, one at a time:

* set-up: one warm-up process writes the ``.pyc`` files, then
  ``SETUP_RUNS`` processes each time imports, config, ``KvSystem()`` and
  ``load()``; ``setup_s`` is their median;
* untraced pass: the workload repeats until ``--seconds`` of
  ``KvSystem.run()`` wall time are used; ``ops_per_wall_s`` is the median
  over repetitions, and the simulated metrics come from repetition 0;
* traced pass: repetition 0 once more under the layer shim of
  ``layers.py``, with blame ledgers on.

Correctness gates: reads are verified (the program's default), a closed
loop completes every operation, an open loop reconciles every arrival,
and the traced pass must reproduce the untraced pass's simulated metrics
and their SHA-256 ``sim_digest`` exactly.  Any failure sets
``error_rate`` to 1.0 and the exit status to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from layers import REPORTED_LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 160
SCHEMA = "repro-perfbench/v1"

FIXED_UNITS = {
    "ops_per_wall_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
    "sim_qps": "1/s", "sim_mean_us": "us", "sim_p50_us": "us",
    "sim_p99_us": "us", "sim_p999_us": "us", "sim_ckpt_p99_us": "us",
    "sim_ckpt_ops": "count", "waf": "ratio", "flash_amp": "ratio",
    "ckpt_ms_mean": "ms", "error_rate": "ratio",
    "layers.overhead_ratio": "ratio", "layers.traced_wall_s": "s",
    "engine.mem_hit_ratio": "ratio", "engine.storage_reads_per_op": "1/op",
    "journal.txns_per_update": "1/update", "journal.padding_ratio": "ratio",
    "ckpt.count": "count", "ckpt.redundant_units": "count",
    "isce.remap_ratio": "ratio", "ctrl.queue_depth_mean": "commands",
    "ftl.map_miss_per_op": "1/op", "gc.invocations": "count",
    "gc.migrated_per_erase": "units/erase", "flash.reads_per_op": "1/op",
    "flash.programs_per_op": "1/op", "flash.erases": "count",
    "sim.events_per_op": "1/op", "sim.processes_per_op": "1/op",
    "sim.cancels_per_op": "1/op",
}


class BenchError(Exception):
    """A measuring process failed; the message carries its stderr."""


def unit_of(name: str) -> str:
    if name in FIXED_UNITS:
        return FIXED_UNITS[name]
    if name.endswith(".calls_per_op"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s"
    return "ratio"  # <layer>.share and blame.<stage>.share


def run_child(workload: str, seed: int, phase: str,
              seconds: float = 0.0) -> Dict[str, Any]:
    """Run one ``measure.py`` phase in a fresh process; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(seed),
               "--phase", phase, "--seconds", repr(seconds)]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} {phase} pass exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float,
            end_to_end: bool = True, per_layer: bool = True
            ) -> Dict[str, Any]:
    """Measure one workload; its metrics split by clock.

    ``wall`` holds host-clock metrics, which vary run to run.  ``exact``
    holds simulated metrics and work counts, which are a function of the
    seed and are compared exactly.
    """
    wall: Dict[str, Dict[str, Any]] = {}
    exact: Dict[str, Dict[str, Any]] = {}

    def put(table: Dict[str, Dict[str, Any]], name: str,
            value: float) -> None:
        table[name] = {"value": value, "unit": unit_of(name)}

    if end_to_end:
        run_child(workload, seed, "setup")  # warm-up: writes .pyc files
        put(wall, "setup_s", statistics.median(
            run_child(workload, seed, "setup")["setup_s"]
            for _ in range(SETUP_RUNS)))
    untraced = run_child(workload, seed, "untraced", seconds)
    reps = untraced["reps"]
    put(wall, "ops_per_wall_s", statistics.median(
        rep["completed"] / rep["wall_s"] for rep in reps))
    put(wall, "peak_rss_mib", untraced["peak_rss_mib"])
    for name, value in {**untraced["sim"], **untraced["counters"]}.items():
        put(exact, name, value)
    problems = [problem for rep in reps for problem in rep["problems"]]
    attempted = sum(rep["submitted"] for rep in reps)
    failed = sum(rep["submitted"] - rep["completed"] for rep in reps)

    if per_layer:
        traced = run_child(workload, seed, "traced")
        problems.extend(traced["problems"])
        attempted += traced["submitted"]
        failed += traced["submitted"] - traced["completed"]
        for key in ("sim", "counters", "sim_digest"):
            if traced[key] != untraced[key]:
                problems.append(f"traced pass changed the simulated "
                                f"results ({key})")
        traced_wall = traced["wall_s"]
        ops = traced["completed"]
        layers = traced["layers"]
        self_s = {layer: layers[layer]["self_s"] for layer in layers}
        self_s["sim"] = traced_wall - sum(self_s.values())  # the residual
        put(wall, "layers.traced_wall_s", traced_wall)
        put(wall, "layers.overhead_ratio", traced_wall / reps[0]["wall_s"])
        for layer in REPORTED_LAYERS:
            put(wall, f"{layer}.self_s", self_s[layer])
            put(wall, f"{layer}.share", self_s[layer] / traced_wall)
            if layer != "sim":
                put(exact, f"{layer}.calls_per_op",
                    layers[layer]["calls"] / ops)
        for work, count in traced["kernel"].items():
            put(exact, f"sim.{work}_per_op", count / ops)
        for stage, share in traced["blame_shares"].items():
            put(exact, f"blame.{stage}.share", share)

    error_rate = 1.0 if problems else failed / attempted
    put(exact, "error_rate", error_rate)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems,
            "sim_digest": untraced["sim_digest"], "reps": reps,
            "wall": wall, "exact": exact}


def lookup(result: Dict[str, Any], name: str) -> Dict[str, Any]:
    return result["wall"].get(name) or result["exact"][name]


def print_metrics(workload: str, result: Dict[str, Any],
                  names: Optional[List[str]] = None) -> None:
    print(f"== {workload}: {len(result['reps'])} repetitions, "
          f"sim_digest {result['sim_digest'][:16]}, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    if names is None:
        names = list(result["wall"]) + list(result["exact"])
    for name in names:
        metric = lookup(result, name)
        print(f"   {name:<34} {metric['value']:>16.6g} {metric['unit']}")


def driver_run(args: argparse.Namespace) -> int:
    """One workload, one pass; the last stdout line is the JSON result."""
    if len(args.workload) != 1:
        print("--trace takes exactly one --workload", file=sys.stderr)
        return 2
    workload = args.workload[0]
    per_layer = args.trace == 1
    result = measure(workload, args.seed, args.seconds,
                     end_to_end=not per_layer, per_layer=per_layer)
    names = [metric["name"] for metric in
             SPEC["per_layer" if per_layer else "end_to_end"]]
    print_metrics(workload, result, names)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: lookup(result, name) for name in names}}))
    return 0 if result["correct"] else 1


def full_run(args: argparse.Namespace) -> int:
    """Both passes of every named workload, printed and written as JSON."""
    results = {}
    for workload in args.workload:
        results[workload] = measure(workload, args.seed, args.seconds)
        print_metrics(workload, results[workload])
    document = {"schema": SCHEMA, "seed": args.seed,
                "seconds": args.seconds,
                "python": platform.python_version(),
                "machine": f"{platform.machine()} x{os.cpu_count()}",
                "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"[result -> {args.out}]")
    print(layers_table(document))
    return 0 if all(r["correct"] for r in results.values()) else 1


def load(path: str) -> Dict[str, Any]:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != SCHEMA:
        raise BenchError(f"{path}: not a {SCHEMA} result")
    return document


def compare(path_a: str, path_b: str) -> int:
    """Check B against A: wall metrics within their bounds, all else exact.

    Wall metrics with a bound in ``BENCHMARK.json`` fail when B is worse
    than A by more than the bound.  Simulated metrics, work counts and
    ``sim_digest`` must be identical, so both files need the same seed.
    """
    a, b = load(path_a), load(path_b)
    failures = []
    if a["seed"] != b["seed"]:
        failures.append(f"seeds differ: {a['seed']} vs {b['seed']}")
    print(f"{'workload':<18} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ra = a["workloads"].get(workload)
        rb = b["workloads"].get(workload)
        if ra is None or rb is None:
            failures.append(f"{workload}: missing from one file")
            continue
        for side, result in (("A", ra), ("B", rb)):
            if not result["correct"]:
                failures.append(f"{workload}: {side} is incorrect")
        if ra["sim_digest"] != rb["sim_digest"]:
            failures.append(f"{workload}: sim_digest differs")
        for name in sorted(set(ra["exact"]) | set(rb["exact"])):
            va = ra["exact"].get(name, {}).get("value")
            vb = rb["exact"].get(name, {}).get("value")
            if va != vb:
                failures.append(f"{workload}: {name} differs: "
                                f"{va!r} vs {vb!r}")
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            if name not in ra["wall"] or name not in rb["wall"]:
                continue
            va = ra["wall"][name]["value"]
            vb = rb["wall"][name]["value"]
            worse = (vb - va) / va if spec["better"] == "lower" \
                else (va - vb) / va
            print(f"{workload:<18} {name:<16} {va:>12.6g} {vb:>12.6g} "
                  f"{worse:>+9.1%} {spec['bound']:>6.0%}")
            if worse > spec["bound"]:
                failures.append(f"{workload}: {name} worse by {worse:.1%}"
                                f" (bound {spec['bound']:.0%})")
    for failure in failures:
        print(f"FAIL {failure}")
    print("agree" if not failures else f"{len(failures)} disagreements")
    return 1 if failures else 0


def layers_table(document: Dict[str, Any]) -> str:
    """Self time, share of traced wall and calls/op per layer, side by side.

    Rows are sorted by self time summed over the workloads: the answer to
    "where did the wall time go" in one view.
    """
    workloads = [name for name, result in document["workloads"].items()
                 if "layers.traced_wall_s" in result["wall"]]

    def cell(workload: str, layer: str) -> str:
        result = document["workloads"][workload]
        self_s = result["wall"][f"{layer}.self_s"]["value"]
        share = result["wall"][f"{layer}.share"]["value"]
        calls = result["exact"].get(f"{layer}.calls_per_op")
        per_op = f"{calls['value']:8.3f}" if calls else f"{'-':>8}"
        return f"{self_s:8.3f} {share:6.1%} {per_op}"

    def total(layer: str) -> float:
        return sum(document["workloads"][w]["wall"][f"{layer}.self_s"]
                   ["value"] for w in workloads)

    width = 24
    lines = ["host wall time per layer (traced pass): self s, share of "
             "traced wall, calls/op",
             f"{'layer':<13}" + "".join(f" | {w[:width]:<{width}}"
                                        for w in workloads),
             f"{'':<13}" + "".join(f" | {'self_s':>8} {'share':>6} "
                                   f"{'calls/op':>8}" for _ in workloads)]
    for layer in sorted(REPORTED_LAYERS, key=total, reverse=True):
        lines.append(f"{layer:<13}" + "".join(
            f" | {cell(w, layer)}" for w in workloads))
    for label, name in (("traced wall", "layers.traced_wall_s"),
                        ("traced/plain", "layers.overhead_ratio")):
        lines.append(f"{label:<13}" + "".join(
            f" | {document['workloads'][w]['wall'][name]['value']:8.3f}"
            f"{'':>16}" for w in workloads))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run, compare or tabulate the repository benchmark.")
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one pass of one workload, for the driver "
                             "protocol: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check result B against result A")
    parser.add_argument("--layers-table", metavar="FILE",
                        help="print the per-layer table of a result")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.layers_table:
            print(layers_table(load(args.layers_table)))
            return 0
        if not (ROOT / "src" / "repro").is_dir():
            print(f"error: no repro sources under {ROOT / 'src'}",
                  file=sys.stderr)
            return 2
        if args.trace is not None:
            return driver_run(args)
        return full_run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
