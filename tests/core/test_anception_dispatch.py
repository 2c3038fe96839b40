"""The interposition layer end-to-end: routing, fd spaces, blocking."""

import errno

import pytest

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    Transaction,
)
from repro.core.policy import Decision
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld
from tests.conftest import ScratchApp
from tests.recorders import record_decisions, record_deliveries


ROOT = Credentials(0)


class TestFileRedirection:
    def test_data_writes_land_in_cvm_only(self, anception_world,
                                          enrolled_ctx):
        enrolled_ctx.libc.write_file(
            enrolled_ctx.data_path("f.txt"), b"cvm-bytes"
        )
        cvm_vfs = anception_world.cvm.kernel.vfs
        host_vfs = anception_world.kernel.vfs
        path = enrolled_ctx.data_path("f.txt")
        assert cvm_vfs.exists(path, ROOT)
        assert not host_vfs.exists(path, ROOT)

    def test_reads_come_from_cvm(self, anception_world, enrolled_ctx):
        path = enrolled_ctx.data_path("g.txt")
        anception_world.cvm.copy_in_file(path, b"pre-staged",
                                         enrolled_ctx.task.credentials.uid)
        assert enrolled_ctx.libc.read_file(path) == b"pre-staged"

    def test_initial_data_copied_at_enrollment(self, anception_world,
                                               enrolled_ctx):
        assert enrolled_ctx.libc.read_file(
            enrolled_ctx.data_path("seed.txt")
        ) == b"seed-content"

    def test_system_reads_served_by_host(self, anception_world,
                                         enrolled_ctx, monkeypatch):
        decisions = record_decisions(monkeypatch)
        meta = enrolled_ctx.libc.read_elf("/system/bin/vold")
        assert meta["name"] == "vold"
        # the CVM also has a copy, but the policy must route it HOST
        assert (enrolled_ctx.task.pid, "open", Decision.HOST) in decisions

    def test_proc_self_exe_is_real_code(self, enrolled_ctx):
        data = enrolled_ctx.libc.read_file("/proc/self/exe")
        assert data.startswith(b"\x7fELF")

    def test_proc_scan_sees_cvm_processes(self, anception_world,
                                          enrolled_ctx):
        """procfs redirection: the pid scan finds the CVM's vold."""
        found = None
        for entry in enrolled_ctx.libc.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                cmdline = enrolled_ctx.libc.read_file(
                    f"/proc/{entry}/cmdline"
                )
            except SyscallError:
                continue
            if cmdline.rstrip(b"\x00") == b"/system/bin/vold":
                found = int(entry)
        cvm_vold = anception_world.cvm.android.service("vold")
        assert found == cvm_vold.task.pid

    def test_fb0_open_fails_in_cvm(self, enrolled_ctx):
        """Kernelchopper's first step dies with ENOENT (Section V-A)."""
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.open("/dev/graphics/fb0", vfs.O_RDWR)
        assert "ENOENT" in str(exc.value)

    def test_host_kernel_fd_numbering_dense(self, enrolled_ctx):
        fd1 = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("a"), vfs.O_WRONLY | vfs.O_CREAT
        )
        fd2 = enrolled_ctx.libc.open("/system/bin/sh", vfs.O_RDONLY)
        fd3 = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("b"), vfs.O_WRONLY | vfs.O_CREAT
        )
        assert len({fd1, fd2, fd3}) == 3

    def test_remote_fd_read_write_roundtrip(self, enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("rw"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"0123456789")
        enrolled_ctx.libc.lseek(fd, 2, vfs.SEEK_SET)
        assert enrolled_ctx.libc.read(fd, 4) == b"2345"
        enrolled_ctx.libc.close(fd)

    def test_close_releases_both_sides(self, anception_world, enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("c"), vfs.O_WRONLY | vfs.O_CREAT
        )
        table = anception_world.anception.fd_tables[enrolled_ctx.task.pid]
        assert table.is_remote(fd)
        enrolled_ctx.libc.close(fd)
        assert not table.is_remote(fd)
        assert fd not in enrolled_ctx.task.fd_table

    def test_dup_of_remote_fd(self, anception_world, enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("d"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"shared")
        fd2 = enrolled_ctx.libc.syscall("dup", fd)
        table = anception_world.anception.fd_tables[enrolled_ctx.task.pid]
        assert table.is_remote(fd2)
        enrolled_ctx.libc.lseek(fd2, 0, vfs.SEEK_SET)
        assert enrolled_ctx.libc.read(fd2, 6) == b"shared"


class TestNetworkRedirection:
    def test_sockets_live_in_cvm(self, anception_world, enrolled_ctx):
        from repro.kernel.net import AF_INET, SOCK_STREAM

        class Server:
            def __init__(self):
                self.seen = []

            def handle_data(self, conn, data):
                self.seen.append(data)
                return b"ok"

        server = Server()
        anception_world.internet.register_server(("svc", 1), server)
        fd = enrolled_ctx.libc.socket(AF_INET, SOCK_STREAM, 0)
        enrolled_ctx.libc.connect(fd, ("svc", 1))
        enrolled_ctx.libc.send(fd, b"hello")
        assert enrolled_ctx.libc.recv(fd, 10) == b"ok"
        assert server.seen == [b"hello"]
        # the connection was made by the CVM's stack
        assert anception_world.internet.connection_log[-1][1] == "cvm"


class TestBinderRouting:
    def test_ui_transaction_stays_on_host(self, anception_world,
                                          enrolled_ctx, monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        reply = enrolled_ctx.create_window("w")
        assert "window_id" in reply
        assert deliveries == [(anception_world.kernel.label,
                               enrolled_ctx.task.pid, "window",
                               "create_window")]

    def test_delegated_transaction_reaches_cvm_service(self, anception_world,
                                                       enrolled_ctx,
                                                       monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        reply = enrolled_ctx.call_service("location", "get_fix")
        assert reply["lat"] == pytest.approx(42.2808)
        assert [entry[1:] for entry in deliveries.on(
            anception_world.cvm.kernel)] == [("location", "get_fix")]
        assert deliveries.on(anception_world.kernel) == []

    def test_host_has_no_delegated_services(self, anception_world):
        assert not anception_world.system.has_service("location")

    @pytest.mark.parametrize("cvms", [1, 4])
    def test_ioctl_vulnerability_sees_host_pinned_binder_calls(self, cvms):
        """The host-pinned crossing still runs ``execute_native``'s
        vulnerability hook: an injected ``ioctl`` bug sees every UI
        frame and app-to-app call, on the host kernel."""
        world = AnceptionWorld(cvms=cvms)
        running = world.install_and_launch(ScratchApp())
        running.run()
        ctx = running.ctx
        ctx.create_window("w")
        ctx.export_service(lambda method, payload, sender: "ok")
        seen = []

        def trigger(kernel, task, args, kwargs):
            transaction = args[2]
            seen.append((kernel is world.kernel, transaction.target,
                         transaction.method))
            return None

        world.install_kernel_vulnerability("ioctl", trigger)
        ctx.submit_frame(b"frame")
        assert ctx.call_app(ctx.package, "ping") == "ok"
        assert seen == [(True, "window", "submit_frame"),
                        (True, f"app:{ctx.package}", "ping")]


def _pass_through(kernel, task, args, kwargs):
    """An ``ioctl`` trigger that never fires: it only forces the
    generic host route."""
    return None


def _host_binder_ctx(trigger):
    world = AnceptionWorld()
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    ctx.create_window("w")
    ctx.export_service(lambda method, payload, sender: {"echo": method})
    if trigger:
        world.install_kernel_vulnerability("ioctl", _pass_through)
    return world, ctx


def _record_native_ioctls(world, monkeypatch):
    """Host ``execute_native`` entries for ``ioctl``: one per call that
    takes the generic route."""
    seen = []
    native = world.kernel.execute_native

    def recording(task, name, args, kwargs):
        if name == "ioctl":
            seen.append(args[1])
        return native(task, name, args, kwargs)

    monkeypatch.setattr(world.kernel, "execute_native", recording)
    return seen


HOST_BINDER_CALLS = {
    "submit_frame": lambda ctx: ctx.submit_frame(b"frame"),
    "create_window": lambda ctx: ctx.create_window("second"),
    "call_app": lambda ctx: ctx.call_app(ctx.package, "ping", {"k": 1}),
    "oneway_ui": lambda ctx: ctx.call_service_oneway(
        "window", "submit_frame", {"pixels": b"f"}),
}
"""Host-bound binder calls: a UI frame, a window call, an app-to-app
call and a oneway UI call."""


class TestHostBinderHop:
    """A host-bound binder call on the host binder node goes straight to
    the host driver's ``transact``; it must answer, and charge, exactly
    as the generic route that a registered ``ioctl`` trigger forces."""

    @pytest.mark.parametrize("call", sorted(HOST_BINDER_CALLS))
    def test_direct_hop_matches_the_generic_route(self, call, monkeypatch):
        run = HOST_BINDER_CALLS[call]
        outcomes = []
        for trigger in (False, True):
            world, ctx = _host_binder_ctx(trigger)
            run(ctx)  # warm: the lazy binder fd is already open
            generic = _record_native_ioctls(world, monkeypatch)
            before = world.clock.now_ns
            result = run(ctx)
            outcomes.append((result, world.clock.now_ns - before))
            assert generic == ([BINDER_WRITE_READ] if trigger else [])
        assert outcomes[0] == outcomes[1]

    def test_input_wait_keeps_the_generic_route(self, monkeypatch):
        world, ctx = _host_binder_ctx(trigger=False)
        generic = _record_native_ioctls(world, monkeypatch)
        assert ctx.wait_input() is None
        assert generic == [IOC_WAIT_INPUT_EVT]

    def test_closed_binder_fd_is_ebadf_on_the_generic_route(
            self, monkeypatch):
        world, ctx = _host_binder_ctx(trigger=False)
        fd = ctx.binder_fd
        ctx.libc.close(fd)
        generic = _record_native_ioctls(world, monkeypatch)
        with pytest.raises(SyscallError) as info:
            ctx.libc.ioctl(fd, BINDER_WRITE_READ,
                           Transaction("window", "submit_frame"))
        assert (info.value.errno, info.value.call) == (errno.EBADF,
                                                       "fd-lookup")
        assert generic == [BINDER_WRITE_READ]

    def test_regular_host_file_is_enotty_on_the_generic_route(
            self, monkeypatch):
        world, ctx = _host_binder_ctx(trigger=False)
        fd = ctx.libc.open("/system/bin/sh", vfs.O_RDONLY)
        assert not world.anception.fd_tables[ctx.task.pid].is_remote(fd)
        generic = _record_native_ioctls(world, monkeypatch)
        with pytest.raises(SyscallError) as info:
            ctx.libc.ioctl(fd, BINDER_WRITE_READ,
                           Transaction("window", "submit_frame"))
        assert info.value.errno == errno.ENOTTY
        assert generic == [BINDER_WRITE_READ]


class TestBlockedCalls:
    def test_blocked_call_eperm_and_recorded(self, anception_world,
                                             enrolled_ctx, monkeypatch):
        decisions = record_decisions(monkeypatch)
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.syscall("init_module", "rootkit.ko")
        assert "EPERM" in str(exc.value)
        assert decisions == [
            (enrolled_ctx.task.pid, "init_module", Decision.BLOCK)]
        assert anception_world.anception.stats()["blocked_calls"] == 1

    def test_all_blocked_class_calls(self, enrolled_ctx):
        for name in ("delete_module", "reboot", "kexec_load", "ptrace",
                     "pivot_root", "swapon"):
            with pytest.raises(SyscallError):
                enrolled_ctx.libc.syscall(name)


class TestHostClassCalls:
    def test_getpid_runs_on_host(self, enrolled_ctx):
        assert enrolled_ctx.libc.getpid() == enrolled_ctx.task.pid

    def test_kill_uses_host_pid_space(self, anception_world, enrolled_ctx):
        victim = anception_world.kernel.spawn_task(
            "victim", enrolled_ctx.task.credentials
        )
        enrolled_ctx.libc.kill(victim.pid, 9)
        assert not victim.is_alive()


class TestCvmCrashHandling:
    def test_calls_fail_with_eio_after_crash(self, anception_world,
                                             enrolled_ctx):
        try:
            anception_world.cvm.kernel.panic("induced")
        except Exception:
            pass
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.write_file(
                enrolled_ctx.data_path("late"), b"x"
            )
        assert "EIO" in str(exc.value)

    def test_host_survives_cvm_crash(self, anception_world, enrolled_ctx):
        try:
            anception_world.cvm.kernel.panic("induced")
        except Exception:
            pass
        assert not anception_world.kernel.crashed
        assert enrolled_ctx.libc.getpid() == enrolled_ctx.task.pid


class TestStats:
    def test_stats_shape(self, anception_world, enrolled_ctx):
        enrolled_ctx.libc.write_file(enrolled_ctx.data_path("s"), b"x")
        stats = anception_world.anception.stats()
        assert stats["proxies"] >= 1
        assert stats["decisions"]["redirect"] >= 1
        assert not stats["cvm_crashed"]


class TestDecisionLogBound:
    """The layer keeps no per-call decision log, only per-decision
    counters, which stay exact however long the run."""

    def test_log_capped_counters_exact(self, anception_world, enrolled_ctx):
        layer = anception_world.anception
        before = layer.stats()["decisions"].get("host", 0)
        for _ in range(5_000):
            enrolled_ctx.libc.getpid()
        assert layer.stats()["decisions"]["host"] == before + 5_000

    def test_counters_match_a_full_recount(self, monkeypatch):
        """Same keys, values and first-seen order as counting every
        routed call, the way ``stats()`` used to."""
        decisions = record_decisions(monkeypatch)
        world = AnceptionWorld()
        layer = world.anception
        ctx = world.install_and_launch(ScratchApp()).ctx
        for name in ("init_module", "reboot"):
            with pytest.raises(SyscallError):
                ctx.libc.syscall(name)
        for i in range(600):
            ctx.libc.write_file(ctx.data_path(f"f{i % 3}"), b"x")
            ctx.libc.getpid()
        recount = {}
        for _pid, _name, decision in decisions:
            recount[decision.value] = recount.get(decision.value, 0) + 1
        stats = layer.stats()
        assert list(stats["decisions"].items()) == list(recount.items())
        assert stats["blocked_calls"] == recount["block"] == 2
