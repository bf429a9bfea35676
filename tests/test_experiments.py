"""Smoke tests for the experiment harness at micro scale.

These verify every registered experiment runs end to end and produces a
coherent result object; the benchmarks do the real (paper-shape) runs.
"""

import re

import pytest

from repro.experiments import paper_config
from repro.experiments.registry import EXPERIMENTS, run_experiment
from tests.conftest import MICRO


class TestBase:
    def test_paper_config_modes(self):
        for mode in ("baseline", "isc_a", "isc_b", "isc_c", "checkin"):
            config = paper_config(mode, MICRO)
            assert config.mode == mode
            config.check_capacity()

    def test_paper_config_overrides(self):
        config = paper_config("checkin", MICRO, threads=9, workload="WO")
        assert config.threads == 9
        assert config.workload == "WO"

    def test_scaled_queries_floor(self):
        assert MICRO.scaled_queries(0.0001) == 1_000


class TestRegistry:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig3a", "fig3b", "fig3c", "fig8a", "fig8b", "fig9", "fig10",
            "fig11", "fig12", "fig13a", "fig13b", "table1", "interference",
            "knee", "burst_storm", "recovery_matrix"}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table1_renders(self):
        text = run_experiment("table1", MICRO)
        assert "Flash topology" in text
        rows = dict(re.split(r"\s{2,}", line.strip())[1:3]
                    for line in text.splitlines()
                    if line.startswith(("DBMS", "Host", "Storage")))
        assert rows["Flash timing"] == \
            "read 60.00 us, program 800.00 us, erase 3.50 ms"
        assert rows["Embedded processors"] == "2"
        assert rows["Data cache"].endswith("/ 2.0 MiB staging")
        assert rows["Channel bandwidth"] == "800 MB/s"


class TestMicroRuns:
    """Each experiment at micro scale: runs, returns, renders."""

    def test_fig3a(self):
        result = run_experiment("fig3a", MICRO)
        assert {row["distribution"] for row in result.rows} == \
            {"uniform", "zipfian"}
        assert result.amp("uniform", "io") > 1.0
        assert "Figure 3(a)" in result.table()

    def test_fig3c(self):
        result = run_experiment("fig3c", MICRO)
        assert result.read_avg_us > 0
        assert "slowdown" in result.table()

    def test_fig8a(self):
        result = run_experiment("fig8a", MICRO)
        assert len(result.intervals_ms) == 4
        assert result.mean_redundant("baseline") > \
            result.mean_redundant("checkin")
        assert "redundant" in result.table()

    def test_fig9(self):
        result = run_experiment("fig9", MICRO)
        assert ("zipfian", "checkin") in result.p999_us
        assert "tail latency" in result.table()

    def test_fig12(self):
        result = run_experiment("fig12", MICRO)
        assert len(result.throughput_qps["baseline"]) == 5
        assert result.table()

    def test_fig13b(self):
        result = run_experiment("fig13b", MICRO)
        assert result.overhead_pct("P4", 4096) > \
            result.overhead_pct("P4", 512) - 20.0
        assert "space overhead" in result.table()

    def test_interference(self):
        result = run_experiment("interference", MICRO)
        for mode in ("baseline", "checkin"):
            assert result.p99_read_us[(mode, "solo")] > 0
            assert result.p99_read_us[(mode, "shared")] > 0
            assert result.p99_read_us[(mode, "locked")] > 0
            assert result.aggregate_qps[mode] > 0
        # The storm tenant actually checkpointed under contention, and
        # remapping degrades the co-tenant's tail less than host-level
        # checkpointing (the PR's acceptance criterion, at micro scale).
        assert result.storm_checkpoints["checkin"] >= 1
        assert result.remap_beats_host_checkpointing()
        assert "degradation_x" in result.table()
        # The locked placement carried blame ledgers and produced a
        # checkpoint-attributable tail share for both modes.  Micro-scale
        # tails are a handful of requests, so the baseline ≫ checkin
        # direction is asserted at benchmark scale, not here.
        assert set(result.ckpt_tail_share) == {"baseline", "checkin"}
        for share in result.ckpt_tail_share.values():
            assert 0.0 <= share <= 1.0
        assert "ckpt_tail_blame" in result.table()


class TestSlowerMicroRuns:
    """Sweep experiments (still micro, a few seconds each)."""

    def test_knee(self):
        result = run_experiment("knee", MICRO)
        # The acceptance headline: under open-loop load with the freeze-
        # consistency lock, in-storage checkpointing sustains measurably
        # more offered load inside the fixed SLO than the host journal.
        assert result.sustainable_ops("baseline") > 0
        assert result.checkin_beats_baseline()
        assert result.knee_gain() > 1.5
        for mode in ("baseline", "checkin"):
            assert result.points[mode], "no probed points"
            for point in result.points[mode]:
                assert point.submitted >= point.completed
        assert "sustainable" in result.table()

    def test_burst_storm(self):
        result = run_experiment("burst_storm", MICRO)
        for mode in ("baseline", "checkin"):
            # Typed completions reconcile and the waiting room stayed
            # bounded, even at 1.5x the calibrated solo capacity.
            assert result.survived(mode)
        assert result.checkin_keeps_more_load()
        # The PR-5 watchdogs double as overload detectors: the host-
        # journal mode trips them under the flash crowd, checkin doesn't.
        assert result.overload_detected("baseline")
        assert not result.overload_detected("checkin")
        assert "goodput" in result.table()

    def test_recovery_matrix(self):
        result = run_experiment("recovery_matrix", MICRO)
        # Three strategies over the same seeded kill campaign: local
        # SPOR loses nothing, the warm replica promotes fastest.
        assert result.row("spor_local").rpo_ops == 0.0
        assert result.row("warm_replica").rto_ns < \
            result.row("spor_local").rto_ns
        assert result.warm_speedup() > 1.0
        assert "rto" in result.table().lower()

    def test_fig3b(self):
        result = run_experiment("fig3b", MICRO)
        assert len(result.rows) == 2 * len(MICRO.thread_sweep)
        assert result.latest_ratio_factor() > 0

    def test_fig10(self):
        result = run_experiment("fig10", MICRO)
        assert set(result.ckpt_ms) == {
            "baseline", "isc_a", "isc_b", "isc_c", "checkin"}
        assert result.at_max_threads("checkin") < \
            result.at_max_threads("baseline")

    def test_fig11(self):
        result = run_experiment("fig11", MICRO)
        key = ("A", "checkin", MICRO.thread_sweep[-1])
        assert result.throughput_qps[key] > 0
        assert "throughput" in result.table()

    def test_fig8b_micro_device(self):
        from repro.experiments.fig8 import run_fig8b
        result = run_fig8b(MICRO, query_counts=(4_000, 9_000),
                           modes=("baseline", "checkin"))
        assert result.total_gc("baseline") >= result.total_gc("checkin")

    def test_fig13a(self):
        from repro.experiments.fig13 import run_fig13a
        result = run_fig13a(MICRO, units=(512, 4096))
        assert result.throughput_qps["checkin"][0] > 0
