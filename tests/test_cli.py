"""Tests for the chrono-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST_ARGS = [
    "--duration", "3",
    "--procs", "2",
    "--pages", "256",
    "--fast-pages", "256",
    "--slow-pages", "1024",
    "--page-scale", "8",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "chrono"
        assert args.workload == "pmbench"
        assert args.duration == 60.0

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "nope"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "spec"])


class TestRun:
    def test_run_text_output(self, capsys):
        assert main(["run", "--policy", "multiclock"] + FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "FMAR" in out

    def test_run_json_output(self, capsys):
        assert (
            main(["run", "--policy", "multiclock", "--json"] + FAST_ARGS)
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "multiclock"
        assert payload["throughput_per_sec"] > 0
        assert 0 <= payload["fmar"] <= 1
        assert "p99" in payload["latency_ns"]

    @pytest.mark.parametrize(
        "workload",
        ["graph500", "memcached", "redis", "shifting-hotspot"],
    )
    def test_run_other_workloads(self, workload, capsys):
        assert (
            main(
                ["run", "--policy", "multiclock",
                 "--workload", workload] + FAST_ARGS
            )
            == 0
        )
        assert "throughput" in capsys.readouterr().out


class TestRunObservability:
    def test_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        code = main(
            ["run", "--policy", "chrono", "--trace", str(trace)]
            + FAST_ARGS
        )
        assert code == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events
        assert all("type" in e and "t" in e for e in events)
        assert any(e["type"] == "engine.quantum" for e in events)

    def test_metrics_text_output(self, capsys):
        code = main(
            ["run", "--policy", "chrono", "--metrics"] + FAST_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics: counters" in out
        assert "engine.quanta" in out
        assert "metrics: gauges" in out

    def test_metrics_json_output(self, capsys):
        code = main(
            ["run", "--policy", "chrono", "--metrics", "--json"]
            + FAST_ARGS
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["counters"]["engine.quanta"] > 0
        assert "promotion.queue_depth" in metrics["gauges"]
        assert "fault.cit_ns" in metrics["histograms"]

    def test_observe_implies_all_three(self, tmp_path, capsys):
        trace = tmp_path / "obs.jsonl"
        code = main(
            ["run", "--policy", "chrono", "--observe", str(trace)]
            + FAST_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wall-time profile" in out
        assert "metrics: counters" in out
        assert trace.exists()

    def test_profile_rows_sorted_descending(self, capsys):
        code = main(
            ["run", "--policy", "chrono", "--profile"] + FAST_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.split("wall-time profile")[1].strip().splitlines()
        seconds = [
            float(line.split()[1]) for line in lines[2:] if line.strip()
        ]
        assert seconds == sorted(seconds, reverse=True)


class TestTraceCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["run", "--policy", "chrono", "--trace", str(path)]
                + FAST_ARGS
            )
            == 0
        )
        return path

    def test_summary_and_epochs(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "engine.quantum" in out

    def test_json_epochs(self, trace_path, capsys):
        capsys.readouterr()
        assert (
            main(["trace", str(trace_path), "--epoch-sec", "0.5",
                  "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] > 0
        assert all("promoted" in row for row in payload["epochs"])

    def test_page_timeline(self, trace_path, capsys):
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        fault = next(e for e in events if e["type"] == "fault.batch")
        page = f"{fault['pid']}:{fault['vpns'][0]}"
        assert main(["trace", str(trace_path), "--page", page]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "fault.batch" in out

    def test_page_timeline_no_events(self, trace_path, capsys):
        capsys.readouterr()
        assert (
            main(["trace", str(trace_path), "--page", "999:999"]) == 0
        )
        assert "no events" in capsys.readouterr().out

    def test_bad_page_arg(self, trace_path):
        with pytest.raises(SystemExit):
            main(["trace", str(trace_path), "--page", "nonsense"])


class TestCompare:
    def test_compare_two_policies(self, capsys):
        code = main(
            ["compare", "--policies", "linux-nb", "multiclock"]
            + FAST_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs linux-nb" in out
        assert "multiclock" in out

    def test_baseline_must_be_compared(self, capsys):
        code = main(
            ["compare", "--policies", "multiclock", "--baseline",
             "linux-nb"] + FAST_ARGS
        )
        assert code == 2
        assert "baseline" in capsys.readouterr().err


class TestInfoCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "Chrono [Ours]" in out
        assert "chrono-full" in out

    def test_defaults(self, capsys):
        assert main(["defaults"]) == 0
        out = capsys.readouterr().out
        assert "chrono.scan_period_sec" in out
        assert "chrono.p_victim" in out


REPLAY_MACHINE = [
    "--fast-pages", "256",
    "--slow-pages", "1024",
    "--page-scale", "8",
]

FIXTURE_CSV = "tests/data/sample_events.csv"
FIXTURE_NPZ = "tests/data/sample_trace.npz"


class TestReplay:
    def test_replay_csv_fixture(self, capsys):
        code = main(
            ["replay", FIXTURE_CSV, "--policy", "multiclock"]
            + REPLAY_MACHINE
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fusion ratio" in out
        assert "compiled traces" in out

    def test_replay_json(self, capsys):
        code = main(
            ["replay", FIXTURE_NPZ, FIXTURE_CSV, "--json"]
            + REPLAY_MACHINE
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "chrono"
        assert payload["throughput_per_sec"] > 0
        assert 0.0 <= payload["fusion_ratio"] <= 1.0
        # One window-format trace plus two event-stream pids.
        assert len(payload["traces"]) == 3
        assert any(t["n_idle_windows"] >= 1 for t in payload["traces"])

    def test_replay_duration_override(self, capsys):
        code = main(
            ["replay", FIXTURE_CSV, "--duration", "2", "--no-fusion"]
            + REPLAY_MACHINE
        )
        assert code == 0
        payload_out = capsys.readouterr().out
        assert "2.0 s" in payload_out

    def test_replay_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["replay", "no/such/file.npz"] + REPLAY_MACHINE)


class TestTraffic:
    TRAFFIC_ARGS = [
        "--tenants", "8",
        "--users", "1000",
        "--pages", "64",
        "--patterns", "4",
        "--duration", "2",
    ] + REPLAY_MACHINE

    def test_traffic_text_output(self, capsys):
        code = main(["traffic", "--policy", "linux-nb"]
                    + self.TRAFFIC_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "tenants           8" in out
        assert "tenants exited" in out

    def test_traffic_json_with_churn(self, capsys):
        code = main(
            ["traffic", "--json", "--churn-fraction", "0.25",
             "--shift-fraction", "0.25"] + self.TRAFFIC_ARGS
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_tenants"] == 8
        assert payload["throughput_per_sec"] > 0
        assert payload["tenants_exited"] >= 0
