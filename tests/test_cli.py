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
            "report", "snapshot", "resume",
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

    def test_alternatives_command(self, capsys):
        assert main(["alternatives"]) == 0
        out = capsys.readouterr().out
        assert "ptrace" in out
        assert "shared-pages" in out

    def test_knobs_round_trip_through_a_snapshot(self, capsys, tmp_path):
        import inspect

        from repro.core.anception import AnceptionLayer
        from repro.core.snapshot import snapshot_meta
        from repro.faults.chaos import run_chaos
        from repro.obs.runner import boot_obs_world, run_traced

        blob_path = tmp_path / "knobs.snap"
        assert main(["snapshot", "write4k", "--no-write-behind",
                     "--cache-pages", "64", "--ring-depth", "16",
                     "--warmup", "1", "--out", str(blob_path)]) == 0
        assert main(["resume", str(blob_path), "--verify"]) == 0
        assert "verify: resume=boot digest" in capsys.readouterr().err
        knobs = snapshot_meta(blob_path.read_bytes())["knobs"]
        assert knobs == {
            "ring_depth": 16, "read_cache": True, "cache_pages": 64,
            "async_delegation": False, "write_behind_depth": None,
            "binder_ring": True, "binder_ring_depth": None,
            "cvms": 1,
        }
        params = inspect.signature(AnceptionLayer).parameters.values()
        layer_knobs = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert set(knobs) == layer_knobs - {"file_io_on_host"}
        # No knob is silently dropped: an old spelling, or knobs handed
        # to an already-booted world, raise.
        with pytest.raises(TypeError):
            run_traced("table1", **{"write_behind": True})
        with pytest.raises(TypeError):
            run_chaos("fileops", **{"write_behind": True})
        world, _ctx = boot_obs_world()
        with pytest.raises(TypeError):
            run_traced("table1", world=world, read_cache=True)
