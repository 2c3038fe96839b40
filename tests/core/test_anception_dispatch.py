"""The interposition layer end-to-end: routing, fd spaces, blocking."""

import pytest

from repro.core.anception import DECISION_LOG_LIMIT
from repro.core.policy import Decision
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld
from tests.conftest import ScratchApp


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
                                         enrolled_ctx):
        meta = enrolled_ctx.libc.read_elf("/system/bin/vold")
        assert meta["name"] == "vold"
        # the CVM also has a copy, but the decision log must say HOST
        decisions = [
            d for (_pid, name, d) in anception_world.anception.decision_log
            if name == "open"
        ]
        from repro.core.policy import Decision

        assert Decision.HOST in decisions

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
                                          enrolled_ctx):
        reply = enrolled_ctx.create_window("w")
        assert "window_id" in reply
        host_wm = anception_world.system.service("window")
        assert ("create_window", enrolled_ctx.task.pid) in host_wm.call_log

    def test_delegated_transaction_reaches_cvm_service(self, anception_world,
                                                       enrolled_ctx):
        reply = enrolled_ctx.call_service("location", "get_fix")
        assert reply["lat"] == pytest.approx(42.2808)
        cvm_location = anception_world.cvm.android.service("location")
        assert cvm_location.call_log

    def test_host_has_no_delegated_services(self, anception_world):
        assert not anception_world.system.has_service("location")


class TestBlockedCalls:
    def test_blocked_call_eperm_and_recorded(self, anception_world,
                                             enrolled_ctx):
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.syscall("init_module", "rootkit.ko")
        assert "EPERM" in str(exc.value)
        assert (
            enrolled_ctx.task.pid, "init_module"
        ) in anception_world.anception.blocked_calls

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
    def test_log_capped_counters_exact(self, anception_world, enrolled_ctx):
        layer = anception_world.anception
        before = layer.stats()["decisions"].get("host", 0)
        for _ in range(5_000):
            enrolled_ctx.libc.getpid()
        assert len(layer.decision_log) == DECISION_LOG_LIMIT == 512
        assert layer.decision_log[-1] == (enrolled_ctx.task.pid, "getpid",
                                          Decision.HOST)
        assert layer.stats()["decisions"]["host"] == before + 5_000

    def test_counters_match_a_full_recount(self):
        """Same keys, values and first-seen order as counting an
        unbounded log, the way ``stats()`` used to."""
        world = AnceptionWorld()
        layer = world.anception
        layer.decision_log = []  # unbounded, to recount from
        ctx = world.install_and_launch(ScratchApp()).ctx
        for name in ("init_module", "reboot"):
            with pytest.raises(SyscallError):
                ctx.libc.syscall(name)
        for i in range(600):
            ctx.libc.write_file(ctx.data_path(f"f{i % 3}"), b"x")
            ctx.libc.getpid()
        recount = {}
        for _pid, _name, decision in layer.decision_log:
            recount[decision.value] = recount.get(decision.value, 0) + 1
        stats = layer.stats()
        assert list(stats["decisions"].items()) == list(recount.items())
        assert stats["blocked_calls"] == 2
        assert len(layer.blocked_calls) == 2
