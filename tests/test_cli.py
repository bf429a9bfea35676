"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.mode == "checkin"
        assert args.threads == 32

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_figure_alias_and_trace(self):
        args = build_parser().parse_args(["run", "fig8", "--trace"])
        assert args.experiment == "fig8"
        assert args.trace and args.out is None

    def test_trace_subcommand_removed(self):
        # `repro run EXP --trace --out P` is the one traced-export path.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["trace"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["run", "fig3c", "--out", "t.json"],
        ["run", "fig3c", "--telemetry-out", "t.jsonl"],
        ["bench", "--out", "t.json"],
    ])
    def test_output_without_its_plane_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "needs --" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Flash topology" in capsys.readouterr().out

    def test_bench_small(self, capsys):
        assert main(["bench", "--mode", "checkin", "--threads", "4",
                     "--queries", "1500", "--no-artifact"]) == 0
        out = capsys.readouterr().out
        assert "throughput_qps" in out
        assert "checkpoints" in out
        assert "events/op]" in out
        assert "bench artifact" not in out

    def test_media_sweep_prints_small_rates(self, capsys):
        assert main(["fault-sweep", "--media-errors", "--mode", "checkin",
                     "--media-rates", "0.001", "--ops", "40"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[:2] == ["checkin", "0.001"] for row in rows)

    def test_bench_writes_artifact(self, tmp_path, capsys):
        from repro.analysis.benchfile import load_bench_artifact
        artifact_path = tmp_path / "BENCH_test.json"
        assert main(["bench", "--mode", "checkin", "--threads", "4",
                     "--queries", "1500",
                     "--artifact", str(artifact_path)]) == 0
        artifact = load_bench_artifact(str(artifact_path))
        assert artifact["schema"] == "repro-bench/v1"
        assert artifact["bench"]["threads"] == 4
        assert artifact["metrics"]["operations"] == 1500.0
        assert artifact["metrics"]["throughput_qps"] > 0

    def test_bench_traced_exports_valid_trace(self, tmp_path, capsys):
        from repro.trace import validate_trace_file
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--mode", "checkin", "--threads", "4",
                     "--queries", "1500", "--no-artifact", "--trace",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint phase breakdown" in out
        assert "queue-wait vs service-time" in out
        assert validate_trace_file(str(out_path)) == []

    def test_run_traced_and_sampled_exports_validate(self, tmp_path, capsys):
        from repro.telemetry import validate_telemetry_file
        from repro.trace import validate_trace_file
        trace_path = tmp_path / "run.json"
        telemetry_path = tmp_path / "run.jsonl"
        assert main(["run", "fig3c", "--trace", "--out", str(trace_path),
                     "--telemetry", "--telemetry-out",
                     str(telemetry_path)]) == 0
        assert validate_trace_file(str(trace_path)) == []
        assert validate_telemetry_file(str(telemetry_path)) == []

    def test_trace_exports_every_scoped_run(self, tmp_path, capsys):
        assert main(["run", "fig3c", "--trace", "--out",
                     str(tmp_path / "trace.json")]) == 0
        # fig3c builds one system; its seeded timeline has a fixed size.
        assert "[trace: 31263 events from 1 run(s)" in \
            capsys.readouterr().out

    def test_telemetry_run_exports_valid_jsonl(self, tmp_path, capsys):
        from repro.telemetry import validate_telemetry_file
        out_path = tmp_path / "telemetry.jsonl"
        assert main(["telemetry", "--threads", "4", "--queries", "1500",
                     "--interval", "100us", "--out", str(out_path),
                     "--summary"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "device health report" in out
        assert validate_telemetry_file(str(out_path)) == []

    def test_telemetry_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["inspect", str(bad)]) == 1
        assert "unknown format" in capsys.readouterr().err

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["inspect", str(bad)]) == 1
        assert "unknown format" in capsys.readouterr().err
        assert main(["inspect", str(tmp_path / "missing")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestTenantRuns:
    def test_run_with_tenants_parses(self):
        args = build_parser().parse_args(["run", "--tenants", "2"])
        assert args.experiment is None
        assert args.tenants == 2
        assert args.mode == "checkin"

    def test_fault_sweep_tenants_default(self):
        args = build_parser().parse_args(["fault-sweep"])
        assert args.tenants == 1

    def test_run_without_experiment_or_tenants_fails(self, capsys):
        assert main(["run"]) == 2
        assert "experiment id" in capsys.readouterr().err

    def test_run_rejects_experiment_plus_tenants(self, capsys):
        assert main(["run", "fig8a", "--tenants", "2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_rejects_nonpositive_tenants(self, capsys):
        assert main(["run", "--tenants", "0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    def test_run_two_tenants(self, capsys):
        assert main(["run", "--tenants", "2", "--mode", "checkin"]) == 0
        out = capsys.readouterr().out
        assert "tenant0" in out and "tenant1" in out
        assert "aggregate" in out
        assert "sum to" in out and "DO NOT" not in out


class _Built(Exception):
    """Raised in place of running: carries the config a handler built."""

    def __init__(self, config):
        super().__init__()
        self.config = config


def _built_config(monkeypatch, argv):
    """The SystemConfig ``main(argv)`` builds, captured before it runs."""
    import repro.__main__ as cli

    def capture(config):
        raise _Built(config)

    monkeypatch.setattr(cli, "run_config", capture)
    monkeypatch.setattr(cli, "KvSystem", capture)
    with pytest.raises(_Built) as excinfo:
        main(argv)
    return excinfo.value.config


def _parent_configs():
    """(argv, the SystemConfig each handler built by hand before)."""
    from repro.common.units import MIB, MS
    from repro.engine.admission import AdmissionConfig
    from repro.system import SystemConfig, TenantSpec
    from repro.telemetry import TelemetryConfig
    from repro.workload.arrivals import ArrivalSpec

    two = (TenantSpec(), TenantSpec())
    preset = dict(mode="checkin", threads=8, num_keys=1_024,
                  total_queries=4_000, journal_area_bytes=8 * MIB,
                  verify_reads=False)
    return [
        (["run", "--tenants", "2"], SystemConfig(tenants=two, **preset)),
        (["run", "--arrivals", "120000", "--tenants", "2"], SystemConfig(
            tenants=two,
            arrivals=ArrivalSpec(rate_ops_per_sec=120_000.0,
                                 process="poisson", schedule="constant"),
            admission=AdmissionConfig(policy="queue", max_inflight=64,
                                      max_waiting=256),
            **preset)),
        (["telemetry", "--tenants", "2"], SystemConfig(
            mode="checkin", workload="A", threads=8, total_queries=4_000,
            verify_reads=False, tenants=two, journal_area_bytes=8 * MIB,
            telemetry=TelemetryConfig(interval_ns=1 * MS))),
        (["blame", "--gate", "--ckpt-interval", "10ms", "--journal-mib", "2"],
         SystemConfig(
             mode="baseline", workload="WO", threads=8, total_queries=4_000,
             verify_reads=False, blame=True,
             lock_queries_during_checkpoint=True,
             checkpoint_interval_ns=10 * MS, journal_area_bytes=2 * MIB,
             checkpoint_journal_quota=2 * MIB // 8)),
        (["incident", "--gate", "--burst"], SystemConfig(
            mode="baseline", workload="WO", threads=8, total_queries=1_500,
            seed=7, verify_reads=False, blame=True, trace=True,
            flightrec=True, lock_queries_during_checkpoint=True,
            telemetry=TelemetryConfig(interval_ns=1 * MS),
            checkpoint_interval_ns=10 * MS, journal_area_bytes=2 * MIB,
            checkpoint_journal_quota=2 * MIB // 8,
            arrivals=ArrivalSpec(rate_ops_per_sec=120_000.0,
                                 process="bursts", schedule="flash-crowd"),
            admission=AdmissionConfig(policy="queue", max_inflight=8,
                                      max_waiting=64))),
        (["bench", "--threads", "8", "--queries", "4000"], SystemConfig(
            mode="checkin", workload="A", threads=8, total_queries=4_000,
            distribution="zipfian", verify_reads=False, trace=False,
            blame=True)),
        (["profile", "--tenants", "2"], SystemConfig(
            mode="checkin", workload="A", threads=8, total_queries=4_000,
            distribution="zipfian", verify_reads=False, tenants=two,
            journal_area_bytes=8 * MIB)),
    ]


class TestConfigFromArgs:
    @pytest.mark.parametrize("argv, expected", [
        pytest.param(argv, expected, id=" ".join(argv))
        for argv, expected in _parent_configs()])
    def test_handler_builds_the_same_config(self, monkeypatch, argv,
                                            expected):
        assert _built_config(monkeypatch, argv) == expected

    def test_explicit_journal_wins_over_tenant_default(self, monkeypatch):
        from repro.common.units import MIB
        config = _built_config(monkeypatch, ["blame", "--tenants", "2",
                                             "--journal-mib", "2"])
        assert config.journal_area_bytes == 2 * MIB
        assert config.checkpoint_journal_quota == 2 * MIB // 8
        assert len(config.tenants) == 2


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """One tiny run with every plane on, dumped in all four formats."""
    from repro.common.units import MS
    from repro.obs import incident_records, write_blame_jsonl, \
        write_incident_jsonl
    from repro.system import KvSystem, tiny_config
    from repro.telemetry import TelemetryConfig, write_telemetry_jsonl
    from repro.trace import write_chrome_trace

    system = KvSystem(tiny_config(
        total_queries=600, trace=True, blame=True, flightrec=True,
        telemetry=TelemetryConfig(interval_ns=1 * MS)))
    result = system.run()
    root = tmp_path_factory.mktemp("exports")
    paths = {name: str(root / name) for name in
             ("trace.json", "telemetry.jsonl", "blame.jsonl",
              "incident.jsonl")}
    write_chrome_trace(paths["trace.json"],
                       [(system.label, system.sim.tracer)])
    write_telemetry_jsonl(paths["telemetry.jsonl"], result.telemetry)
    write_blame_jsonl(paths["blame.jsonl"], result.blame)
    write_incident_jsonl(paths["incident.jsonl"], incident_records(system))
    return paths


class TestInspect:
    @pytest.mark.parametrize("name, kind", [
        ("trace.json", "chrome-trace"),
        ("telemetry.jsonl", "repro-telemetry/v1"),
        ("blame.jsonl", "repro-blame/v1"),
        ("incident.jsonl", "repro-incident/v1"),
    ])
    def test_real_export_is_ok(self, exports, name, kind, capsys):
        assert main(["inspect", exports[name]]) == 0
        assert f"{kind} ok" in capsys.readouterr().out

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        path = tmp_path / "other.jsonl"
        path.write_text('{"type": "header", "schema": "repro-other/v9"}\n'
                        '{"type": "footer"}\n')
        assert main(["inspect", str(path)]) == 1
        assert "unknown format" in capsys.readouterr().err
