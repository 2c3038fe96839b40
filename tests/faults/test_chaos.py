"""The chaos harness end to end: survive the default plan, replay it."""

import json

import pytest

from repro.faults.chaos import (
    DEFAULT_PLAN,
    ChaosApp,
    chaos_report_json,
    run_chaos,
)
from repro.world import AnceptionWorld


class TestDefaultTour:
    def test_workload_completes_despite_faults(self):
        result = run_chaos("fileops", seed=7)
        assert result.status == "ok"
        assert result.faults["fired_total"] == 4
        assert set(result.faults["fired_by_site"]) == {
            "channel.corrupt", "irq.drop", "proxy.kill", "cvm.crash",
        }

    def test_cvm_rebooted_and_channels_rebound(self):
        result = run_chaos("fileops", seed=7)
        assert result.stats["cvm_reboots"] == 1
        actions = [action for action, _ in result.recovery_log]
        assert "reboot-cvm" in actions
        assert "respawn-proxy" in actions

    def test_fault_and_recovery_events_on_bus(self):
        result = run_chaos("fileops", seed=7)
        kinds = {record["kind"] for record in result.records
                 if record["type"] == "event"}
        assert "fault" in kinds and "recovery" in kinds

    def test_metrics_counters_fed(self):
        """Faults and recoveries are counted once, by their components;
        the report's metrics keep the bus-only counters."""
        result = run_chaos("fileops", seed=7)
        report = result.report()
        assert sum(report["faults"]["fired_by_site"].values()) == 4
        assert report["stats"]["recoveries"] == len(report["recoveries"])
        assert report["stats"]["recoveries"] >= 4
        counters = report["metrics"]["counters"]
        assert sum(e["value"] for e in counters["syscalls_total"]) > 0
        assert "recoveries_total" not in counters


CATALOGUE = ("fileops", "batchio", "writeburst", "binderburst", "ipc")
ALL_ON = {"read_cache": True, "async_delegation": True, "binder_ring": True}
"""The ``anception chaos`` defaults: cache, write-behind, binder ring."""


class TestOneCounterSource:
    @pytest.mark.parametrize("workload", CATALOGUE)
    def test_recovery_events_match_the_log(self, workload):
        result = run_chaos(workload, seed=7, **ALL_ON)
        events = [record["name"] for record in result.records
                  if record["type"] == "event"
                  and record["kind"] == "recovery"]
        logged = [action for action, _ in result.recovery_log]
        assert len(events) == len(logged)
        for event, action in zip(events, logged):
            assert event == action or event.startswith(action + ":")
        assert result.stats["recoveries"] == len(logged)
        # The ring holds every step of a catalogue run.
        assert result.world.anception.recovery_log.dropped == 0

    def test_reboot_keeps_channel_counters(self):
        """The channel counters moved over the capture include the
        traffic before the mid-run CVM reboot."""
        world = AnceptionWorld(read_cache=True, async_delegation=True,
                               binder_ring=True)
        world.install_and_launch(ChaosApp()).run()
        before = world.anception.stats()["channel"]
        result = run_chaos("fileops", seed=7, world=world)
        after = result.stats["channel"]
        assert result.stats["cvm_reboots"] == 1

        def moved(*path):
            first, last = before, after
            for key in path:
                first, last = first[key], last[key]
            return last - first

        assert moved("bytes_to_guest") == 4268
        assert moved("bytes_to_host") == 1795
        assert moved("submit_ring", "pushed") == 34
        assert moved("complete_ring", "pushed") == 32


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        first = chaos_report_json(run_chaos("fileops", seed=7))
        second = chaos_report_json(run_chaos("fileops", seed=7))
        assert first == second

    def test_report_round_trips_json(self):
        report = run_chaos("fileops", seed=7).report()
        assert json.loads(json.dumps(report)) == json.loads(
            json.dumps(report)
        )

    def test_probability_plan_replays(self):
        plan = "channel.corrupt:p=0.2;irq.drop:p=0.1"
        first = chaos_report_json(run_chaos("fileops", seed=3, faults=plan))
        second = chaos_report_json(run_chaos("fileops", seed=3, faults=plan))
        assert first == second


class TestDegradation:
    def test_recovery_disabled_surfaces_eio(self):
        result = run_chaos("fileops", seed=0,
                           faults="cvm.crash:nth=1:call=open",
                           recovery=False)
        assert result.status == "syscall-error"
        assert "EIO" in result.error
        assert result.stats["cvm_reboots"] == 0

    def test_retries_exhausted_surfaces_eio(self):
        # every channel payload corrupts: retry can never win
        result = run_chaos("fileops", seed=0, faults="channel.corrupt")
        assert result.status == "syscall-error"
        assert "EIO" in result.error

    def test_compromise_triggers_paranoid_reboot(self):
        # mkdir holds no fd across the reboot point, so the paranoid
        # reboot on the next forwarded call recovers cleanly
        result = run_chaos("fileops", seed=0,
                           faults="cvm.compromise:nth=1:call=mkdir")
        assert result.status == "ok"
        assert result.stats["cvm_reboots"] >= 1
        reasons = [detail for action, detail in result.recovery_log
                   if action == "reboot-cvm"]
        assert any("compromised" in reason for reason in reasons)


class TestHarnessSurface:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_chaos("warp-drive")

    def test_callable_workload(self):
        calls = []

        def probe(ctx):
            calls.append(ctx.libc.getpid())

        result = run_chaos(probe, seed=0, faults="")
        assert result.status == "ok"
        assert result.workload == "probe"
        assert calls

    def test_engine_disarmed_after_run(self):
        result = run_chaos("getpid", seed=0)
        assert getattr(result.world.clock, "faults", None) is None

    def test_default_plan_is_parseable_and_cross_layer(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.parse(DEFAULT_PLAN)
        sites = {rule.site.split(".")[0] for rule in plan.rules}
        assert sites == {"channel", "irq", "proxy", "cvm"}

    def test_observe_off_same_elapsed(self):
        on = run_chaos("fileops", seed=7, observe=True)
        off = run_chaos("fileops", seed=7, observe=False)
        assert on.elapsed_ns == off.elapsed_ns
        assert off.records == []


class TestOverlapRollbackUnderChaos:
    """A fault escaping a drain's overlap window never bills the lane.

    ``cvm.crash`` striking inside a write-behind drain — with recovery
    on but container reboots off — makes the retry loop's container
    check raise *out of* the overlap window after the window already
    charged backoff and partial transfers to the lane cursor.  The
    rollback semantics (PR 9 bugfix) demand the lane watermark stay at
    its pre-window value: no later fence may wait out phantom time, and
    the whole faulted run must replay byte-identically.
    """

    @staticmethod
    def _run_once():
        from repro.core.recovery import RecoveryPolicy
        from repro.errors import SyscallError
        from repro.faults.chaos import ChaosApp
        from repro.faults.engine import FaultEngine
        from repro.faults.plan import FaultPlan
        from repro.kernel import vfs
        from repro.world import AnceptionWorld

        world = AnceptionWorld(async_delegation=True)
        world.anception.recovery = RecoveryPolicy(
            enabled=True, reboot_on_crash=False, respawn_proxies=False,
        )
        running = world.install_and_launch(ChaosApp())
        running.run()
        ctx = running.ctx
        fd = ctx.libc.open(
            ctx.data_path("rollback.bin"),
            vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
        )
        ctx.libc.write(fd, b"w" * 64)  # staged, not yet drained
        clock = world.clock
        lane = world.anception.cvm.lane
        backlog_before = clock.lane_backlog_ns(lane)
        engine = FaultEngine(
            FaultPlan.parse("cvm.crash:nth=1:call=write"), seed=0
        )
        engine.arm(clock)
        error = None
        try:
            ctx.libc.fsync(fd)  # fence -> drain -> crash mid-window
        except SyscallError as exc:
            error = exc.errno
        finally:
            engine.disarm()
        return {
            "errno": error,
            "backlog_before": backlog_before,
            "backlog_after": clock.lane_backlog_ns(lane),
            "fence_wait_ns": clock.wait_for(lane, "test:post-fault-fence"),
            "now_ns": clock.now_ns,
        }

    def test_lane_rolls_back_to_pre_window_watermark(self):
        result = self._run_once()
        assert result["errno"] is not None  # the fault surfaced as EIO
        assert result["backlog_after"] == result["backlog_before"] == 0
        assert result["fence_wait_ns"] == 0  # no phantom time to wait out

    def test_faulted_drain_replays_byte_identical(self):
        assert self._run_once() == self._run_once()
