"""The ``anception`` CLI."""

import pytest

from repro.cli import COMMANDS, main


class TestCli:
    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_attack_surface_command(self, capsys):
        assert main(["attack-surface"]) == 0
        out = capsys.readouterr().out
        assert '"total_syscalls": 324' in out

    def test_loc_command(self, capsys):
        assert main(["loc"]) == 0
        assert "181260" in capsys.readouterr().out.replace(",", "")

    def test_tcb_command(self, capsys):
        assert main(["tcb"]) == 0
        assert "5219" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "getpid" in out
        assert "384" in out

    def test_sqlite_command(self, capsys):
        assert main(["sqlite"]) == 0
        assert "86" in capsys.readouterr().out

    def test_all_known_commands_registered(self):
        assert set(COMMANDS) == {
            "table1", "antutu", "sunspider", "sqlite", "memory",
            "vuln-study", "attack-surface", "loc", "tcb", "profiledroid",
            "interactive", "alternatives", "trace", "metrics", "chaos",
            "bench-smoke", "report", "bench-engine",
            "bench-fleet", "snapshot", "resume",
        }

    def test_trace_command_chrome(self, capsys):
        assert main(["trace", "write4k", "--format", "chrome"]) == 0
        out = capsys.readouterr().out
        assert '"traceEvents"' in out
        assert '"trace_id"' in out
        assert "world-switch" in out

    def test_trace_command_ftrace(self, capsys):
        assert main(["trace", "getpid", "--format", "ftrace"]) == 0
        out = capsys.readouterr().out
        assert "# tracer: anception-obs" in out
        assert "syscall: getpid" in out

    def test_trace_command_writes_file(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        assert main(["trace", "write4k", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        import json

        data = json.loads(target.read_text())
        assert data["otherData"]["workload"] == "write4k"

    def test_metrics_command(self, capsys):
        assert main(["metrics", "write4k"]) == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["workload"] == "write4k"
        assert "syscalls_total" in snapshot["metrics"]["counters"]

    def test_trace_prints_wall_clock_summary(self, capsys):
        assert main(["trace", "getpid", "--format", "ftrace"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("wall-clock: host_ms=")
        assert "sim/host=" in err

    def test_metrics_reports_sink_errors(self, capsys):
        assert main(["metrics", "write4k"]) == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["obs_sink_errors"] == 0

    def test_report_command_deterministic(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(["trace", "write4k", "--out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace_path)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(trace_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        report = json.loads(first)
        assert report["workload"] == "write4k"
        assert report["critical_path"]["syscalls"] > 0

    def test_report_command_missing_file_exits(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/trace.json"])

    def test_bench_engine_gate_failure_exits(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("ANCEPTION_ENGINE_INNER", "1")
        monkeypatch.setenv("ANCEPTION_ENGINE_RUNS", "1")
        baseline = tmp_path / "base.json"
        import json

        baseline.write_text(json.dumps({
            "schema": "anception-bench-engine/2",
            "workloads": {"fileops": {"syscalls_per_sec": 1e12}},
        }))
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-engine", "--baseline", str(baseline)])
        assert "fell below" in str(excinfo.value)

    def test_bench_engine_without_baseline_exits(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("ANCEPTION_ENGINE_INNER", "1")
        monkeypatch.setenv("ANCEPTION_ENGINE_RUNS", "1")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-engine", "--baseline",
                  str(tmp_path / "missing.json")])
        assert "no engine baseline" in str(excinfo.value)

    def test_bench_engine_update_baseline(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("ANCEPTION_ENGINE_INNER", "1")
        monkeypatch.setenv("ANCEPTION_ENGINE_RUNS", "1")
        baseline = tmp_path / "base.json"
        assert main(["bench-engine", "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        import json

        written = json.loads(baseline.read_text())
        assert written["schema"] == "anception-bench-engine/2"
        assert set(written["workloads"]) == {
            "fileops", "batchio", "writeburst",
        }

    def test_alternatives_command(self, capsys):
        assert main(["alternatives"]) == 0
        out = capsys.readouterr().out
        assert "ptrace" in out
        assert "shared-pages" in out
