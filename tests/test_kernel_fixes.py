"""Regression tests for the event-kernel bugfix sweep.

Three kernel bugs rode along with the hot-path speed campaign:

1. ``Process.interrupt()`` left its stale ``_on_event`` callback on the
   abandoned event — a callback-list leak, and worse: a later *failure*
   of that event looked consumed and never reached ``strict_failures``.
2. ``all_of``/``any_of`` fail fast, so input failures arriving after the
   combinator settled vanished in a no-op callback.  They are now defused
   explicitly and aggregated on the first exception's ``late_failures``.
3. Cancelled timers sat in the heap until their timestamp drained —
   unbounded bloat for long horizons.  The heap now compacts in place
   once dead entries dominate.

Plus the speed campaign's measurement contract: every run reports
``ops_per_sec`` (host wall-clock simulator speed) in the bench artifact.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.core import Simulator, all_of, any_of
from repro.sim.process import Interrupt, spawn


def waiter(event, log):
    try:
        value = yield event
        log.append(("value", value))
        return value
    except Interrupt as interrupt:
        log.append(("interrupted", interrupt.cause))
        return "interrupted"


class TestInterruptDetachesCallback:
    def test_interrupt_removes_stale_callback(self):
        sim = Simulator()
        event = sim.event()
        log = []
        process = spawn(sim, waiter(event, log), name="waiter")
        assert sim.step()  # first resume: the process registers on event
        assert event._callbacks, "process should be waiting on the event"
        process.interrupt("shutdown")
        assert not event._callbacks, \
            "interrupt must deregister the waiter from the abandoned event"
        sim.run()
        assert process.ok and process.value == "interrupted"
        assert log == [("interrupted", "shutdown")]

    def test_abandoned_event_failure_reaches_strict_mode(self):
        # Before the fix the stale callback made Event._resolve believe a
        # waiter existed, so this failure vanished silently.
        sim = Simulator(strict_failures=True)
        event = sim.event()
        process = spawn(sim, waiter(event, []), name="waiter")
        assert sim.step()
        process.interrupt()
        sim.schedule(10, lambda: event.fail(RuntimeError("orphaned")))
        with pytest.raises(SimulationError, match="never consumed"):
            sim.run()

    def test_repeated_interrupt_cycles_do_not_leak_callbacks(self):
        sim = Simulator()
        event = sim.event()
        for _ in range(50):
            process = spawn(sim, waiter(event, []), name="waiter")
            assert sim.step()
            process.interrupt()
            sim.run()
        assert event._callbacks == []


class TestLateFailureAggregation:
    def test_all_of_collects_failures_after_fail_fast(self):
        sim = Simulator()
        first, second, third = sim.event(), sim.event(), sim.event()
        done = all_of(sim, [first, second, third])
        seen = []
        done.add_callback(lambda ev: seen.append(ev.exception))
        first.fail(RuntimeError("first"))
        sim.run()
        assert seen and str(seen[0]) == "first"
        # The combinator already settled; these used to vanish silently.
        second.fail(RuntimeError("late-2"))
        third.fail(RuntimeError("late-3"))
        sim.run()  # strict mode: raises if either failure went unconsumed
        late = getattr(done.exception, "late_failures", [])
        assert [str(exc) for exc in late] == ["late-2", "late-3"]

    def test_any_of_defuses_loser_failure(self):
        sim = Simulator()
        winner, loser = sim.event(), sim.event()
        done = any_of(sim, [winner, loser])
        winner.succeed("won")
        sim.run()
        assert done.ok and done.value == "won"
        loser.fail(RuntimeError("lost anyway"))
        sim.run()  # must not trip strict_failures
        assert done.ok  # the settled result is untouched

    def test_all_of_success_path_unchanged(self):
        sim = Simulator()
        events = [sim.event() for _ in range(3)]
        done = all_of(sim, events)
        for index, event in enumerate(events):
            event.succeed(index)
        sim.run()
        assert done.ok and done.value == [0, 1, 2]


class TestHeapCompaction:
    def test_cancelled_timers_are_compacted(self):
        sim = Simulator()
        fired = []
        timers = [sim.schedule(1_000 + i, fired.append, i)
                  for i in range(500)]
        for index, timer in enumerate(timers):
            if index % 10:  # cancel 90%
                timer.cancel()
        assert len(sim._heap) < 500, \
            "dead entries should have been compacted away"
        assert len(sim._heap) >= 50  # every live timer still present
        sim.run()
        assert fired == [i for i in range(500) if i % 10 == 0], \
            "compaction must not change firing order"

    def test_cancel_is_idempotent_for_dead_accounting(self):
        sim = Simulator()
        timer = sim.schedule(10, lambda: None)
        timer.cancel()
        dead = sim._dead_timers
        timer.cancel()
        assert sim._dead_timers == dead

    def test_interleaved_schedule_and_cancel_keeps_order(self):
        sim = Simulator()
        fired = []
        live = []
        for round_index in range(20):
            batch = [sim.schedule(10_000 + i, fired.append,
                                  round_index * 100 + i)
                     for i in range(100)]
            for i, timer in enumerate(batch):
                if i % 4:
                    timer.cancel()
                else:
                    live.append(round_index * 100 + i)
        sim.run()
        # Same (10_000 + i) timestamp across rounds: ties break by
        # schedule order (sequence number), i.e. lowest round first.
        assert fired == sorted(live, key=lambda v: (v % 100, v // 100))

    def test_run_until_triggered_raises_on_drained_loop(self):
        sim = Simulator()
        event = sim.event()
        with pytest.raises(SimulationError, match="drained.*nothing"):
            sim.run_until_triggered(event, name="nothing")


class TestOpsPerSecMeasurement:
    def test_bench_artifact_reports_positive_ops_per_sec(self):
        from repro.analysis.benchfile import GATED_METRICS, bench_metrics
        from repro.system.config import SystemConfig
        from repro.system.system import run_config

        # blame=True matches repro bench, so the artifact carries the
        # full gated-metric set including ckpt_blame_p99_share.
        config = SystemConfig(mode="checkin", workload="A", threads=2,
                              total_queries=200, verify_reads=False,
                              blame=True)
        result = run_config(config)
        assert result.wall_seconds > 0
        metrics = bench_metrics(result)
        assert metrics["ops_per_sec"] > 0
        assert metrics["ops_per_sec"] == pytest.approx(result.ops_per_sec)
        # knee_sustainable_ops and rto_warm_replica_ns come from their
        # own sweeps, and events_per_op from the bench command's
        # simulator, not the run result; all three are attached to the
        # artifact via extra_metrics.
        assert set(GATED_METRICS) - set(metrics) == {
            "knee_sustainable_ops", "rto_warm_replica_ns", "events_per_op"}
        assert set(metrics) <= set(GATED_METRICS)

    def test_regress_gate_covers_ops_per_sec(self):
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent /
                "benchmarks" / "regress.py")
        spec = importlib.util.spec_from_file_location("regress", path)
        regress = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regress)
        assert "ops_per_sec" in regress.TOLERANCES
        assert "ops_per_sec" in regress.HIGHER_IS_BETTER
