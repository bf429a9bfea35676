"""Benchmark: checkpoint-phase profiling via the span tracer.

Not a paper figure — this regenerates the *explanation* behind
Figs. 8–12: where each configuration's checkpoint time goes (journal
scan, host readback/rewrite vs device CoW/remap, metadata persist,
deallocation), measured from the end-to-end span trace instead of
ad-hoc counters.
"""

from typing import Any, List

from repro.analysis import format_table
from repro.system.config import SystemConfig
from repro.system.system import KvSystem

MODES = ("baseline", "isc_b", "checkin")


def _run_traced(mode: str):
    config = SystemConfig(mode=mode, threads=8, total_queries=6_000,
                          verify_reads=False, trace=True)
    return KvSystem(config).run()


def test_trace_phase_breakdown(benchmark, record_result):
    """Per-configuration checkpoint phase decomposition from the tracer."""
    results = benchmark.pedantic(
        lambda: {mode: _run_traced(mode) for mode in MODES},
        rounds=1, iterations=1)

    summaries = {mode: results[mode].trace_summary for mode in MODES}
    phases = sorted({phase for summary in summaries.values()
                     for phase in summary.phase_totals})
    headers = ["mode", "ckpts", "ckpt_ms"] + [f"{p}_ms" for p in phases]
    rows: List[List[Any]] = []
    for mode in MODES:
        summary = summaries[mode]
        total_ms = sum(c["duration_ns"] for c in summary.checkpoints) / 1e6
        rows.append([mode, summary.checkpoint_count, total_ms]
                    + [summary.phase_totals.get(p, 0) / 1e6 for p in phases])
    text = format_table(headers, rows,
                        title="checkpoint phase breakdown (span tracer)")
    record_result("trace_phases", text)

    # Shape: every configuration checkpointed at least once and the trace
    # decomposes it into named phases.
    for mode in MODES:
        assert summaries[mode].checkpoint_count >= 1, mode
        assert summaries[mode].phase_totals, mode
        assert summaries[mode].open_spans == 0, mode
    # The baseline pays for the host round-trip (journal readback + data
    # rewrite); the in-storage configurations never enter those phases.
    assert summaries["baseline"].phase_totals.get("data_write", 0) > 0
    assert "data_write" not in summaries["isc_b"].phase_totals
    assert "data_write" not in summaries["checkin"].phase_totals
    assert "cow_remap" in summaries["checkin"].phase_totals
    # The paper's headline: Check-In's checkpoints are dramatically
    # cheaper than the baseline's.
    total = lambda mode: sum(  # noqa: E731 - tiny local helper
        c["duration_ns"] for c in summaries[mode].checkpoints)
    assert total("checkin") < total("baseline")
