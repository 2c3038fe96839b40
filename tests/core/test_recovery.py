"""The recovery supervisor: retries, respawns, reboots — never hangs.

Companion to ``test_cvm_reboot.py``: that file proves a reboot *can*
revive the container; this one proves the Anception layer reaches for it
(and the cheaper recoveries) automatically when
``AnceptionLayer.recovery`` is on, and degrades to clean EIO when it is
off.
"""

import errno

import pytest

from repro.core.recovery import BACKOFF_NS, MAX_RETRIES, REBOOT_COST_NS
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.kernel.kernel import KernelCrashed
from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE
from repro.obs.bus import TraceBus
from repro.perf.costs import PAGE_SIZE
from repro.world import AnceptionWorld
from tests.conftest import ScratchApp


@pytest.fixture
def chaos_world(anception_world):
    anception_world.anception.recovery = True
    return anception_world


def arm(world, plan, seed=0):
    return FaultEngine(plan, seed=seed).arm(world.clock)


class TestPolicyKnobs:
    def test_default_is_disabled(self, anception_world):
        assert anception_world.anception.recovery is False

    def test_chaos_default_is_all_on(self):
        from repro.faults.chaos import run_chaos

        result = run_chaos("getpid", seed=0, faults="")
        assert result.world.anception.recovery is True

    def test_backoff_is_linear(self, chaos_world, enrolled_ctx):
        engine = arm(chaos_world, "channel.corrupt")  # every transfer
        try:
            with TraceBus.install(chaos_world.clock).capture() as capture:
                with pytest.raises(SyscallError):
                    enrolled_ctx.libc.stat(
                        enrolled_ctx.data_path("seed.txt"))
        finally:
            engine.disarm()
        backoffs = [ns for reason, ns in capture.charges()
                    if reason == "anception:retry-backoff"]
        assert backoffs == [BACKOFF_NS * n
                            for n in range(1, MAX_RETRIES + 1)]


class TestDisabledDegradation:
    def test_crashed_cvm_stays_crashed(self, anception_world,
                                       enrolled_ctx):
        with pytest.raises(KernelCrashed):
            anception_world.cvm.kernel.panic("test crash")
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.open(enrolled_ctx.data_path("f"), 0o102)
        assert "EIO" in str(exc.value)
        assert anception_world.cvm.crashed
        assert anception_world.cvm.reboot_count == 0

    def test_mid_call_crash_is_eio_not_simulator_guts(self,
                                                      anception_world,
                                                      enrolled_ctx):
        engine = arm(anception_world, "cvm.crash:nth=1:call=open")
        try:
            with pytest.raises(SyscallError) as exc:
                enrolled_ctx.libc.open(enrolled_ctx.data_path("f"), 0o102)
        finally:
            engine.disarm()
        assert "EIO" in str(exc.value)
        assert "delegation failed" in str(exc.value)


class TestAutomaticRecovery:
    def test_crash_mid_call_completes_after_reboot(self, chaos_world,
                                                   enrolled_ctx):
        engine = arm(chaos_world, "cvm.crash:nth=1:call=open")
        try:
            fd = enrolled_ctx.libc.open(
                enrolled_ctx.data_path("survivor.txt"),
                vfs.O_RDWR | vfs.O_CREAT,
            )
            enrolled_ctx.libc.write(fd, b"made it")
            enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()
        assert chaos_world.cvm.reboot_count == 1
        assert enrolled_ctx.libc.read_file(
            enrolled_ctx.data_path("survivor.txt")
        ) == b"made it"
        actions = [action for action, _ in
                   chaos_world.anception.recovery_log]
        assert "retry" in actions and "reboot-cvm" in actions

    def test_proxy_death_respawns_and_retries(self, chaos_world,
                                              enrolled_ctx):
        proxies = chaos_world.anception.proxies
        old_pid = proxies.proxy_for(enrolled_ctx.task).guest_task.pid
        engine = arm(chaos_world, "proxy.kill:nth=1:call=open")
        try:
            fd = enrolled_ctx.libc.open(
                enrolled_ctx.data_path("after-respawn"), 0o102
            )
            enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()
        new = proxies.proxy_for(enrolled_ctx.task)
        assert new.guest_task.pid != old_pid
        assert new.guest_task.is_alive()
        assert chaos_world.cvm.reboot_count == 0
        assert ("respawn-proxy", f"host pid {enrolled_ctx.task.pid}") in \
            chaos_world.anception.recovery_log

    def test_retries_exhausted_surfaces_eio(self, chaos_world,
                                            enrolled_ctx):
        engine = arm(chaos_world, "channel.corrupt")  # every transfer
        try:
            with pytest.raises(SyscallError) as exc:
                enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("never"), 0o102
                )
        finally:
            engine.disarm()
        assert "EIO" in str(exc.value)
        retries = [entry for entry in chaos_world.anception.recovery_log
                   if entry[0] == "retry"]
        assert len(retries) == MAX_RETRIES

    def test_backoff_charged_between_attempts(self, chaos_world,
                                              enrolled_ctx):
        engine = arm(chaos_world, "channel.corrupt:nth=1")
        try:
            with TraceBus.install(chaos_world.clock).capture() as capture:
                enrolled_ctx.libc.stat(enrolled_ctx.data_path("seed.txt"))
        finally:
            engine.disarm()
        charges = [reason for reason, _ in capture.charges()]
        assert "anception:retry-backoff" in charges

    def test_dropped_irq_resignalled(self, chaos_world, enrolled_ctx):
        engine = arm(chaos_world, "irq.drop:nth=1")
        try:
            enrolled_ctx.libc.stat(enrolled_ctx.data_path("seed.txt"))
        finally:
            engine.disarm()
        assert ("resignal-irq", "stat") in \
            chaos_world.anception.recovery_log

    def test_dropped_hypercall_polled(self, chaos_world, enrolled_ctx):
        engine = arm(chaos_world, "hypercall.drop:nth=1")
        try:
            enrolled_ctx.libc.stat(enrolled_ctx.data_path("seed.txt"))
        finally:
            engine.disarm()
        assert ("hypercall-poll", "stat") in \
            chaos_world.anception.recovery_log

    def test_persistent_irq_loss_stalls_out_as_eio(self, chaos_world,
                                                   enrolled_ctx):
        engine = arm(chaos_world, "irq.drop")  # every doorbell
        try:
            with pytest.raises(SyscallError) as exc:
                enrolled_ctx.libc.stat(enrolled_ctx.data_path("seed.txt"))
        finally:
            engine.disarm()
        assert "EIO" in str(exc.value)

    def test_slow_boot_fault_stretches_recovery(self, chaos_world,
                                                enrolled_ctx):
        plan = "cvm.crash:nth=1:call=open;cvm.slow-boot:delay_us=5000"
        engine = arm(chaos_world, plan)
        try:
            with chaos_world.clock.measure() as window:
                fd = enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("slow"), 0o102
                )
                enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()
        assert window.elapsed_ns >= REBOOT_COST_NS + 5_000_000


class TestRebootRebinding:
    def crash_and_reboot(self, world):
        with pytest.raises(KernelCrashed):
            world.cvm.kernel.panic("test crash")
        return world.anception.reboot_cvm()

    def test_survivors_get_fresh_proxies_and_tables(self, anception_world,
                                                    enrolled_ctx):
        fd = enrolled_ctx.libc.open(enrolled_ctx.data_path("pre-crash"),
                                    vfs.O_RDWR | vfs.O_CREAT)
        survivors = self.crash_and_reboot(anception_world)
        assert survivors == 1
        proxies = anception_world.anception.proxies
        proxy = proxies.proxy_for(enrolled_ctx.task)
        assert proxy.kernel is anception_world.cvm.kernel \
            if hasattr(proxy, "kernel") else True
        assert proxy.guest_task.is_alive()
        table = anception_world.anception.fd_tables[enrolled_ctx.task.pid]
        assert table.remote_fds() == set()
        # The stub was the fd's only record: the host fd table lost it.
        assert fd not in enrolled_ctx.task.fd_table

    def test_redirected_io_works_after_rebind(self, anception_world,
                                              enrolled_ctx):
        self.crash_and_reboot(anception_world)
        path = enrolled_ctx.data_path("rebound.txt")
        enrolled_ctx.libc.write_file(path, b"post-reboot io")
        assert enrolled_ctx.libc.read_file(path) == b"post-reboot io"

    def test_logcat_rebinds_to_new_container(self, anception_world,
                                             enrolled_ctx):
        """GingerBreak step 6 after a reboot: the app's restarted logcat
        drains the *new* CVM's log device into a redirected file."""
        from repro.android.logcat import logcat_payload
        from repro.kernel.loader import run_payload

        self.crash_and_reboot(anception_world)
        new_kernel = anception_world.cvm.kernel
        new_kernel.log_device.append("vold", "post-reboot fault index -7")
        log_path = enrolled_ctx.data_path("gb.log")
        child_pid = enrolled_ctx.libc.fork()
        child = enrolled_ctx.kernel.pids.require(child_pid)
        image = enrolled_ctx.kernel.syscall(
            child, "execve", "/system/bin/logcat", (log_path,)
        )
        run_payload(enrolled_ctx.kernel, child, image)
        content = enrolled_ctx.libc.read_file(log_path).decode()
        assert "post-reboot fault index -7" in content
        # the capture landed in the container, not on the host
        from repro.kernel.process import Credentials

        assert new_kernel.vfs.exists(log_path, Credentials(0))
        assert not anception_world.kernel.vfs.exists(
            log_path, Credentials(0)
        )

    def test_reboot_emits_channels_rebound_event(self, chaos_world,
                                                 enrolled_ctx):
        bus = TraceBus.install(chaos_world.clock)
        engine = arm(chaos_world, "cvm.crash:nth=1:call=open")
        try:
            with bus.capture() as capture:
                fd = enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("observed"), 0o102
                )
                enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()
        events = [record["name"] for record in capture.records
                  if record["type"] == "event"
                  and record["kind"] == "recovery"]
        assert "channels-rebound" in events
        assert "reboot-cvm" in events


LOSS_WORLDS = [
    pytest.param(cvms, write_behind,
                 id=f"{cvms}-lane-{'write-behind' if write_behind else 'sync'}")
    for cvms in (1, 4) for write_behind in (False, True)
]
"""(cvms, async_delegation) pairs every lost-descriptor case runs in."""


def launch_scratch(cvms, async_delegation, recovery=False):
    """``(world, ctx)`` of a launched :class:`ScratchApp` in a new world."""
    world = AnceptionWorld(cvms=cvms, async_delegation=async_delegation)
    world.anception.recovery = recovery
    running = world.install_and_launch(ScratchApp())
    running.run()
    return world, running.ctx


def _pread_or_errno(libc, fd):
    try:
        return libc.pread(fd, 32, 0)
    except SyscallError as exc:
        return exc.errno


def lost_fds_outcome(layer, task, libc, fds, reopen_path):
    """What an app sees of ``fds`` once the proxy that held them is gone.

    Each stale fd is read before and after the app opens ``reopen_path``
    (whose file holds ``b"NEW-FILE"``): a stale fd that still named a
    proxy slot would read that file once the open reused the slot.
    """
    stubs = [fd for fd in fds if fd in task.fd_table]
    redirected = layer.decision_counts.get("redirect", 0)
    before = [_pread_or_errno(libc, fd) for fd in fds]
    crossed = layer.decision_counts.get("redirect", 0) > redirected
    reopened = libc.open(reopen_path, vfs.O_RDONLY)
    return {
        "stubs kept": stubs,
        "crossed": crossed,
        "before reopen": before,
        "reopened": reopened,
        "after reopen": [_pread_or_errno(libc, fd) for fd in fds
                         if fd != reopened],
    }


LOST_FDS = {
    "stubs kept": [], "crossed": False,
    "before reopen": [errno.EBADF, errno.EBADF], "reopened": 3,
    "after reopen": [errno.EBADF],
}
"""The one contract: both fds gone from the host table, EBADF on the
host without crossing, and the lowest number reused."""


class TestLostDescriptors:
    """A lost proxy loses its descriptors, whether a respawn or a lane
    reboot replaced it: the app's later call on one fails with EBADF on
    the host, and the number is free for the next open."""

    @staticmethod
    def _lose_proxy_fds(loss, cvms, async_delegation):
        world, ctx = launch_scratch(cvms, async_delegation, recovery=True)
        layer = world.anception
        ctx.libc.write_file(ctx.data_path("new"), b"NEW-FILE")
        fds = [ctx.libc.open(ctx.data_path(name), vfs.O_RDWR | vfs.O_CREAT)
               for name in ("held-a", "held-b")]
        for fd in fds:
            ctx.libc.write(fd, b"held")
        engine = arm(world, f"{loss}:nth=1:call=mkdir")
        try:
            ctx.libc.mkdir(ctx.data_path("trigger"))
        finally:
            engine.disarm()
        action = "respawn-proxy" if loss == "proxy.kill" else "reboot-cvm"
        assert action in [action for action, _ in layer.recovery_log]
        return lost_fds_outcome(layer, ctx.task, ctx.libc, fds,
                                ctx.data_path("new"))

    @pytest.mark.parametrize("cvms,async_delegation", LOSS_WORLDS)
    def test_respawn_loses_descriptors_as_a_reboot_does(
            self, cvms, async_delegation):
        respawned = self._lose_proxy_fds("proxy.kill", cvms,
                                         async_delegation)
        assert respawned == LOST_FDS
        assert self._lose_proxy_fds("cvm.crash", cvms,
                                    async_delegation) == respawned

    @pytest.mark.parametrize("cvms,async_delegation", LOSS_WORLDS)
    def test_fsync_on_a_lost_fd_fails_on_the_host(self, cvms,
                                                  async_delegation):
        """The fsync that meets a dead proxy respawns it, and its retry
        fails with EBADF on the host.  With write-behind on, the window
        the fsync drained was in hand when the proxy was respawned, so
        it ends unrun, as after a reboot, and its staged write is lost
        without a ledgered errno."""
        world, ctx = launch_scratch(cvms, async_delegation, recovery=True)
        layer = world.anception
        fd = ctx.libc.open(ctx.data_path("staged"),
                           vfs.O_RDWR | vfs.O_CREAT)
        assert ctx.libc.write(fd, b"staged") == 6
        lane = layer.pool.lane_for(ctx.task)
        proxy = lane.proxies.proxy_for(ctx.task)
        lane.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        with pytest.raises(SyscallError) as info:
            ctx.libc.fsync(fd)
        assert info.value.errno == errno.EBADF
        assert fd not in ctx.task.fd_table
        assert lane.proxies.proxy_for(ctx.task) is not proxy
        if async_delegation:
            assert lane.write_behind.errors_for(ctx.task.pid) == {}
        assert ctx.libc.read_file(ctx.data_path("staged")) == (
            b"" if async_delegation else b"staged")


# -- one supervisor across every crossing shape -------------------------
#
# Each shape prepares its state unfaulted and returns the crossing to
# run under persistent IRQ loss.  Window shapes stage first (staging
# never rings a doorbell) and then hit their fence, which drains the
# window and surfaces the ledgered EIO.

def _single(ctx):
    path = ctx.data_path("seed.txt")
    return lambda: ctx.libc.stat(path)


def _open_scratch(ctx):
    return ctx.libc.open(ctx.data_path("shape.bin"), vfs.O_RDWR | vfs.O_CREAT)


def _writev(ctx):
    fd = _open_scratch(ctx)
    return lambda: ctx.libc.writev(fd, [b"ab", b"cd"])


def _syscall_batch(ctx):
    fd = _open_scratch(ctx)
    return lambda: ctx.libc.syscall_batch([("write", fd, b"ab"),
                                           ("write", fd, b"cd")])


def _write_behind(ctx):
    fd = _open_scratch(ctx)

    def cross():
        assert ctx.libc.write(fd, b"ab") == 2  # staged, optimistic
        ctx.libc.fsync(fd)

    return cross


def _binder_window(ctx):
    def cross():
        assert ctx.call_service_oneway("location", "get_fix", {}) is None
        ctx.call_service("location", "get_fix", {})

    return cross


def _anonymous_msync(ctx):
    base = ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS)
    return lambda: ctx.libc.syscall("msync", base, PAGE_SIZE)


CROSSINGS = [
    pytest.param({}, "stat", _single, False, id="single"),
    pytest.param({}, "writev", _writev, False, id="writev"),
    pytest.param({}, "batch", _syscall_batch, False, id="syscall_batch"),
    pytest.param({"async_delegation": True}, "write-behind", _write_behind,
                 True, id="write-behind-window"),
    pytest.param({"binder_ring": True}, "binder-ring", _binder_window,
                 True, id="binder-window"),
    pytest.param({}, "msync", _anonymous_msync, False,
                 id="anonymous-msync"),
]


def _cross_under_irq_loss(world_kwargs, prepare, recovery):
    world = AnceptionWorld(**world_kwargs)
    world.anception.recovery = recovery
    running = world.install_and_launch(ScratchApp())
    running.run()
    cross = prepare(running.ctx)
    engine = arm(world, "irq.drop:every=1")
    try:
        with pytest.raises(SyscallError) as exc:
            cross()
    finally:
        engine.disarm()
    return world.anception, exc.value


def _assert_supervised_eio(error, deferred):
    assert error.errno == errno.EIO
    if deferred:
        # Surfaced at the fence; the ledgered EIO is its cause.
        assert "deferred" in str(error)
        error = error.__cause__
        assert error.errno == errno.EIO
    assert "delegation failed" in str(error)
    assert "irq lost" in str(error)


class TestOneSupervisor:
    @pytest.mark.parametrize("world_kwargs,site,prepare,deferred",
                             CROSSINGS)
    def test_recovery_off_ends_in_eio_without_retries(
            self, world_kwargs, site, prepare, deferred):
        layer, error = _cross_under_irq_loss(world_kwargs, prepare, False)
        _assert_supervised_eio(error, deferred)
        assert [action for action, _ in layer.recovery_log
                if action == "retry"] == []

    @pytest.mark.parametrize("world_kwargs,site,prepare,deferred",
                             CROSSINGS)
    def test_chaos_default_retries_max_then_eio(
            self, world_kwargs, site, prepare, deferred):
        layer, error = _cross_under_irq_loss(world_kwargs, prepare, True)
        _assert_supervised_eio(error, deferred)
        retries = [detail.split(":")[0] for action, detail
                   in layer.recovery_log if action == "retry"]
        assert retries == [f"{site} attempt {n}"
                           for n in range(1, MAX_RETRIES + 1)]
