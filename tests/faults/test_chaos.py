"""The chaos harness end to end: survive the default plan, replay it."""

import errno
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

    With recovery off, a container that crashed after a write was
    staged makes the drain's container check raise EIO *out of* the
    overlap window.  The window must close on the way out (no later
    host charge may land on the lane cursor), the lane watermark must
    stay at its pre-window value (no later fence may wait out phantom
    time), and the whole faulted run must replay byte-identically.
    The clock-level rollback of charges made before such a raise is
    pinned by the ``overlap_raise`` rule in
    ``tests/properties/test_dormant_props.py``.
    """

    @staticmethod
    def _run_once():
        from repro.errors import SyscallError
        from repro.kernel import vfs
        from repro.kernel.kernel import KernelCrashed

        world = AnceptionWorld(async_delegation=True)
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
        with pytest.raises(KernelCrashed):
            world.anception.cvm.kernel.panic("crash under a staged write")
        error = None
        try:
            ctx.libc.fsync(fd)  # fence -> drain -> raise mid-window
        except SyscallError as exc:
            error = exc.errno
        clock.advance(1_000, "test:host-work")
        return {
            "errno": error,
            "backlog_before": backlog_before,
            "backlog_after": clock.lane_backlog_ns(lane),
            "fence_wait_ns": clock.wait_for(lane, "test:post-fault-fence"),
            "now_ns": clock.now_ns,
        }

    def test_lane_rolls_back_to_pre_window_watermark(self):
        result = self._run_once()
        assert result["errno"] == errno.EIO  # the fault surfaced as EIO
        assert result["backlog_after"] == result["backlog_before"] == 0
        assert result["fence_wait_ns"] == 0  # no phantom time to wait out

    def test_faulted_drain_replays_byte_identical(self):
        assert self._run_once() == self._run_once()


class TestRebootDropsTheDrainedWindow:
    """A reboot mid-drain ends the drained window with its container.

    ``cvm.crash`` striking inside a write-behind drain reboots the
    lane, which drops every survivor's remote fd stub and clears the
    deferred-errno ledger.  The drained entries in hand name remote
    descriptors of the dead container, so the retry must not re-run
    them: re-running ledgers EBADF under a host fd number that is free
    again, and the next file opened at that number fails its first
    ``fsync`` although every write to it succeeded.
    """

    PLAN = "channel.corrupt:nth=3;cvm.crash:nth=9"

    @pytest.mark.parametrize("cvms", [1, 4])
    def test_no_stale_errno_reaches_a_reused_fd(self, cvms):
        from repro.kernel import vfs

        result = run_chaos("writeburst", seed=7, faults=self.PLAN,
                           async_delegation=True, cvms=cvms)
        assert result.stats["cvm_reboots"] == 1
        world = result.world
        ctx = world.zygote.launched[-1].ctx
        lane = world.anception._lane(ctx.libc.task)
        assert ctx.libc.task.fd_table == {}
        assert lane.write_behind.errors_for(ctx.libc.task.pid) == {}
        fd = ctx.libc.open(ctx.data_path("fresh.bin"),
                           vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        assert fd == 3  # the number the dropped descriptor held
        assert ctx.libc.write(fd, b"x" * 10) == 10
        assert ctx.libc.fsync(fd) == 0

    @pytest.mark.parametrize("cvms", [1, 4])
    def test_a_dropped_fd_fails_on_the_host(self, cvms, monkeypatch):
        # The workload's next write names host fd 3, whose stub the
        # reboot dropped.  It fails with EBADF before it crosses: no
        # proxy ever looks the stale number up in its own fd table.
        from repro.kernel.process import Task

        proxy_misses = []
        get_fd = Task.get_fd

        def watched(task, fd):
            try:
                return get_fd(task, fd)
            except Exception:
                if task.name.startswith("proxy:"):
                    proxy_misses.append(fd)
                raise

        monkeypatch.setattr(Task, "get_fd", watched)
        result = run_chaos("writeburst", seed=7, faults=self.PLAN,
                           async_delegation=True, cvms=cvms)
        assert result.stats["cvm_reboots"] == 1
        assert proxy_misses == []
        assert (result.status, result.error) == \
            ("syscall-error", "EBADF in write (fd 3)")
