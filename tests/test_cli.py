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

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.experiment == "fig8a"
        assert args.out == "trace.json"
        assert args.validate is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8a" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Flash topology" in capsys.readouterr().out

    def test_bench_small(self, capsys):
        assert main(["bench", "--mode", "checkin", "--threads", "4",
                     "--queries", "1500", "--no-artifact"]) == 0
        out = capsys.readouterr().out
        assert "throughput_qps" in out
        assert "checkpoints" in out
        assert "bench artifact" not in out

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
        assert main(["trace", "fig3c", "--out",
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
        assert main(["telemetry", "--validate", str(bad)]) == 1

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["trace", "--validate", str(bad)]) == 1
        assert main(["trace", "--validate", str(tmp_path / "missing")]) == 1


class TestTenantRuns:
    def test_run_tenants_parses(self):
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
