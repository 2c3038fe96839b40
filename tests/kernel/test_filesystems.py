"""procfs generation and the Android disk image."""

import pytest

from repro.kernel.filesystems import VOLD_GOT_ADDRESS
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.loader import parse_pseudo_elf
from repro.kernel.process import Credentials
from repro.errors import SyscallError


ROOT = Credentials(0)


@pytest.fixture
def kernel():
    return Machine(total_mb=128).kernel


@pytest.fixture
def libc(kernel):
    task = kernel.spawn_task("tester", Credentials(10001))
    return Libc(kernel, task)


class TestSystemImage:
    def test_vold_is_pseudo_elf_with_got(self, kernel):
        inode = kernel.vfs.resolve("/system/bin/vold", ROOT)
        meta = parse_pseudo_elf(bytes(inode.data))
        assert meta["got"] == VOLD_GOT_ADDRESS
        assert meta["managed_device"] == "/dev/block/vold/179:0"

    def test_libc_exports_system_and_strcmp(self, kernel):
        inode = kernel.vfs.resolve("/system/lib/libc.so", ROOT)
        meta = parse_pseudo_elf(bytes(inode.data))
        assert "system" in meta["symbols"]
        assert "strcmp" in meta["symbols"]

    def test_logcat_binary_carries_payload(self, kernel):
        inode = kernel.vfs.resolve("/system/bin/logcat", ROOT)
        assert parse_pseudo_elf(bytes(inode.data))["payload"] == "logcat"

    def test_system_is_readonly(self, kernel):
        from repro.kernel.vfs import O_WRONLY

        with pytest.raises(SyscallError) as exc:
            kernel.vfs.open("/system/bin/sh", O_WRONLY, ROOT)
        assert "EROFS" in str(exc.value)

    def test_uevent_helper_world_writable(self, kernel):
        inode = kernel.vfs.resolve("/sys/kernel/uevent_helper", ROOT)
        assert inode.mode & 0o002  # the Exploid misconfiguration


class TestProcFS:
    def test_proc_self_cmdline(self, kernel, libc):
        assert libc.read_file("/proc/self/cmdline") == b"tester\x00"

    def test_proc_pid_status(self, kernel, libc):
        pid = libc.getpid()
        status = libc.read_file(f"/proc/{pid}/status").decode()
        assert f"Pid:\t{pid}" in status
        assert "Uid:\t10001" in status

    def test_proc_self_exe_follows_to_binary(self, kernel):
        task = kernel.spawn_task("x", Credentials(10002))
        kernel.execute_native(task, "execve", ("/system/bin/sh",), {})
        libc = Libc(kernel, task)
        data = libc.read_file("/proc/self/exe")
        assert data.startswith(b"\x7fELF")

    def test_proc_missing_pid_enoent(self, libc):
        with pytest.raises(SyscallError):
            libc.read_file("/proc/9999/cmdline")

    def test_proc_dead_pid_enoent(self, kernel, libc):
        victim = kernel.spawn_task("victim", Credentials(10001))
        pid = victim.pid
        kernel.reap_task(victim)
        with pytest.raises(SyscallError):
            libc.read_file(f"/proc/{pid}/cmdline")

    def test_proc_listing_contains_pids(self, kernel, libc):
        entries = libc.listdir("/proc")
        assert str(libc.getpid()) in entries
        assert "net" in entries
        assert "self" in entries

    def test_proc_net_netlink_lists_listeners(self, kernel, libc):
        from repro.kernel.net import AF_NETLINK, NETLINK_KOBJECT_UEVENT, SOCK_DGRAM

        sock = kernel.network.create_socket(
            AF_NETLINK, SOCK_DGRAM, NETLINK_KOBJECT_UEVENT, 42
        )
        kernel.network.netlink_listen(sock, lambda s, d: None)
        table = libc.read_file("/proc/net/netlink").decode()
        assert "sk" in table
        assert str(NETLINK_KOBJECT_UEVENT) in table


class TestProcMem:
    def test_same_uid_can_read_memory(self, kernel):
        from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE

        owner = kernel.spawn_task("owner", Credentials(10007))
        base = owner.address_space.mmap(4096, PROT_READ | PROT_WRITE,
                                        MAP_ANONYMOUS)
        owner.address_space.write(base, b"visible")
        reader = kernel.spawn_task("reader", Credentials(10007))
        libc = Libc(kernel, reader)
        fd = libc.open(f"/proc/{owner.pid}/mem")
        libc.lseek(fd, base, 0)
        assert libc.read(fd, 7) == b"visible"

    def test_foreign_uid_cannot_open_mem(self, kernel):
        owner = kernel.spawn_task("owner", Credentials(10007))
        attacker = kernel.spawn_task("attacker", Credentials(10008))
        libc = Libc(kernel, attacker)
        with pytest.raises(SyscallError):
            fd = libc.open(f"/proc/{owner.pid}/mem", 0x2)
            libc.read(fd, 4)

    def test_root_reads_any_memory(self, kernel):
        from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE

        owner = kernel.spawn_task("owner", Credentials(10007))
        base = owner.address_space.mmap(4096, PROT_READ | PROT_WRITE,
                                        MAP_ANONYMOUS)
        owner.address_space.write(base, b"rooted")
        root_task = kernel.spawn_task("root", Credentials(0))
        libc = Libc(kernel, root_task)
        fd = libc.open(f"/proc/{owner.pid}/mem")
        libc.lseek(fd, base, 0)
        assert libc.read(fd, 6) == b"rooted"

    def test_mem_write_hijack_records_compromise(self, kernel):
        from repro.events import drain_compromises

        kernel.quirks["mem_write_bypass"] = True
        vold = kernel.spawn_task("vold", Credentials(0))
        vold.address_space.set_brk(vold.address_space.brk_page + 1)
        attacker = kernel.spawn_task("attacker", Credentials(10009))
        libc = Libc(kernel, attacker)
        fd = libc.open(f"/proc/{vold.pid}/mem", 0x2)
        libc.lseek(fd, vold.address_space.brk_page * 4096 - 4096, 0)
        libc.write(fd, b"SHELLCODE:own")
        events = drain_compromises()
        assert any(e["got_root"] for e in events)


class TestProcMaps:
    def test_maps_lists_mappings(self, kernel, libc):
        from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE

        base = libc.task.address_space.mmap(
            8192, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        maps = libc.read_file("/proc/self/maps").decode()
        assert f"{base:08x}-" in maps
        assert "rw-p" in maps

    def test_maps_show_protections(self, kernel):
        from repro.kernel.libc import Libc
        from repro.kernel.process import Credentials

        task = kernel.spawn_task("mapped", Credentials(10003))
        kernel.execute_native(task, "execve", ("/system/bin/sh",), {})
        libc = Libc(kernel, task)
        maps = libc.read_file("/proc/self/maps").decode()
        assert "r-xp" in maps  # the text segment
        assert "/system/bin/sh" in maps

    def test_maps_listed_in_pid_dir(self, kernel, libc):
        pid = libc.getpid()
        assert "maps" in libc.listdir(f"/proc/{pid}")

    def test_redirected_maps_shows_proxy_layout(self, anception_world=None):
        from repro.world import AnceptionWorld
        from tests.conftest import ScratchApp

        world = AnceptionWorld()
        running = world.install_and_launch(ScratchApp())
        running.run()
        maps = running.ctx.libc.read_file("/proc/self/maps").decode()
        # the redirected read resolves self -> the proxy, whose space is
        # nearly empty: no host text segment leaks through
        assert "/data/app/com.test.scratch.apk" not in maps
