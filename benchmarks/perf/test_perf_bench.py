"""Self-test of the benchmark at tiny sizes: ``pytest benchmarks/perf``.

Each workload runs once unwrapped and once under the layer shim, in this
process; the CLI is then driven with those results standing in for its
measuring processes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
from layers import Shim, TimedGenerator  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 7
TINY_OPS = {"ycsb_a_checkin": 800, "ycsb_c_reads": 800,
            "wo_baseline_gc": 8000, "open_2tenant_obs": 400}
"""Operations per repetition (per tenant on the open loop); enough for
wo_baseline_gc to start collecting garbage."""

IDLE_LAYERS = {
    "gc": ("ycsb_a_checkin", "ycsb_c_reads", "open_2tenant_obs"),
    "isce": ("ycsb_c_reads", "wo_baseline_gc"),
    "coalescer": ("ycsb_c_reads",),
    "journal": ("ycsb_c_reads",),
    "checkpointer": ("ycsb_c_reads",),
    **{plane: ("ycsb_a_checkin", "ycsb_c_reads", "wo_baseline_gc")
       for plane in ("admission", "trace", "telemetry", "blame",
                     "flightrec")},
}
"""Layers each workload is designed to leave without a single call."""


def tiny(name: str) -> Workload:
    base = WORKLOADS[name]
    return Workload(name, base.why, lambda seed: dataclasses.replace(
        base.build(seed), total_queries=TINY_OPS[name]))


@pytest.fixture(scope="module")
def passes():
    """Every phase's output for every workload, at tiny sizes."""
    return {name: {"setup": measure.phase_setup(tiny(name), SEED),
                   "untraced": measure.phase_untraced(tiny(name), SEED, 0.0),
                   "traced": measure.phase_traced(tiny(name), SEED)}
            for name in WORKLOADS}


@pytest.fixture
def fake_children(passes, monkeypatch):
    """The CLI reads ``passes`` instead of spawning measuring processes."""
    monkeypatch.setattr(
        run, "run_child",
        lambda workload, seed, phase, seconds=0.0: passes[workload][phase])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shim_leaves_simulated_results_identical(passes, name):
    untraced, traced = passes[name]["untraced"], passes[name]["traced"]
    assert traced["problems"] == untraced["reps"][0]["problems"] == []
    assert traced["sim"] == untraced["sim"]
    assert traced["counters"] == untraced["counters"]
    assert traced["sim_digest"] == untraced["sim_digest"]


def test_layer_calls_match_workload_design(passes):
    for name, phases in passes.items():
        calls = {layer: entry["calls"]
                 for layer, entry in phases["traced"]["layers"].items()}
        for layer, idle_on in IDLE_LAYERS.items():
            if name in idle_on:
                assert calls[layer] == 0, (name, layer)
            else:
                assert calls[layer] > 0, (name, layer)
        for layer in ("workload", "engine", "controller", "ftl", "flash"):
            assert calls[layer] > 0, (name, layer)


def test_interrupt_reaches_the_proxied_generator():
    from repro.system.config import tiny_config
    from repro.system.system import KvSystem

    with Shim() as clock:
        system = KvSystem(tiny_config(mode="checkin"))
        journal = system.engine.journal
        journal.start()
        committer = journal._committer
        assert isinstance(committer._generator, TimedGenerator)
        system.sim.run(until=1_000)
        assert committer.alive
        journal.shutdown()
        system.sim.run()
    assert committer.ok and not committer.alive
    assert clock.self_s["journal"] > 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_driver_line_reports_every_benchmark_metric(fake_children, capsys,
                                                    name, trace):
    code = run.main(["--workload", name, "--seed", str(SEED),
                     "--trace", str(trace)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    specs = run.SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


def test_compare_flags_wall_drop_and_one_ulp_drift(fake_children, tmp_path):
    base = tmp_path / "a.json"
    assert run.main(["--seed", str(SEED), "--out", str(base)]) == 0
    document = json.loads(base.read_text())
    bound = next(m["bound"] for m in run.SPEC["end_to_end"]
                 if m["name"] == "ops_per_wall_s")

    def check(edit) -> int:
        other = copy.deepcopy(document)
        edit(other["workloads"]["ycsb_a_checkin"])
        path = tmp_path / "b.json"
        path.write_text(json.dumps(other))
        return run.main(["--compare", str(base), str(path)])

    def slower(by: float):
        def edit(result):
            result["wall"]["ops_per_wall_s"]["value"] *= 1.0 - by
        return edit

    def drift(result):
        metric = result["exact"]["sim_p999_us"]
        metric["value"] = math.nextafter(metric["value"], math.inf)

    assert check(lambda result: None) == 0
    assert check(slower(bound - 0.05)) == 0
    assert check(slower(bound + 0.05)) == 1
    assert check(drift) == 1


def test_layers_table_lists_every_layer(fake_children, tmp_path, capsys):
    path = tmp_path / "a.json"
    assert run.main(["--seed", str(SEED), "--out", str(path)]) == 0
    capsys.readouterr()
    assert run.main(["--layers-table", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    listed = {row.split()[0] for row in rows[3:] if row.strip()}
    assert set(run.REPORTED_LAYERS) <= listed


def test_benchmark_json_meets_the_contract():
    spec = run.SPEC
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert metric["unit"] == run.unit_of(metric["name"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "ycsb_a_checkin", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
