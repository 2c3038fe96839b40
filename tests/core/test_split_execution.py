"""Split-execution semantics: fork, exec, mmap, msync, UID-change kill."""

import errno

import pytest

from repro.errors import ProcessKilled, SyscallError
from repro.kernel import vfs
from repro.kernel.memory import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.kernel.process import Credentials
from repro.perf.costs import PAGE_SIZE
from tests.core.test_recovery import (
    LOSS_WORLDS,
    LOST_FDS,
    launch_scratch,
    lost_fds_outcome,
)


def _guest_task(world, task):
    """``task``'s proxy task in the CVM, from the layer's one record."""
    lane = world.anception.pool.lane_for(task)
    return lane.proxies.proxy_for(task).guest_task


class TestForkMirroring:
    def test_fork_child_is_enrolled(self, anception_world, enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        assert child.redirection_entry == 1
        assert _guest_task(anception_world, child).is_alive()
        assert child.launch_uid == enrolled_ctx.task.launch_uid

    def test_fork_child_proxy_inherits_remote_fds(self, anception_world,
                                                  enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("shared"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"parent-wrote")
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        child_libc = anception_world.libc_for(child)
        child_libc.lseek(fd, 0, vfs.SEEK_SET)
        assert child_libc.read(fd, 12) == b"parent-wrote"

    @pytest.mark.parametrize("recovery", [False, True])
    def test_fork_after_proxy_death_keeps_a_defined_errno(
            self, anception_world, enrolled_ctx, recovery):
        """A fork after the app's proxy died (recovery off) or was
        respawned (recovery on) gives the child no stub for the lost
        CVM fd: the child's call fails with EBADF on the host.  The
        parent's fails with a typed errno too: EIO from its dead proxy,
        or EBADF on the host once the respawn dropped its stub."""
        layer = anception_world.anception
        layer.recovery = recovery
        libc = enrolled_ctx.libc
        fd = libc.open(enrolled_ctx.data_path("pre-fork"),
                       vfs.O_RDWR | vfs.O_CREAT)
        libc.write(fd, b"parent-wrote")
        proxy = layer.proxies.proxy_for(enrolled_ctx.task)
        anception_world.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        if recovery:
            # The next crossing respawns the proxy, with an empty fd table.
            with pytest.raises(SyscallError):
                libc.fstat(fd)
            assert layer.proxies.proxy_for(enrolled_ctx.task) is not proxy
        child_pid = libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        child_libc = anception_world.libc_for(child)
        assert fd not in child.fd_table
        for call, args in (("read", (fd, 4)), ("fstat", (fd,))):
            with pytest.raises(SyscallError) as parent:
                getattr(libc, call)(*args)
            with pytest.raises(SyscallError) as child_error:
                getattr(child_libc, call)(*args)
            assert parent.value.errno in (errno.EIO, errno.EBADF)
            assert child_error.value.errno == errno.EBADF
            if recovery:
                assert (child_error.value.errno, child_error.value.call) \
                    == (parent.value.errno, parent.value.call)

    @pytest.mark.parametrize("cvms,async_delegation", LOSS_WORLDS)
    def test_child_forked_after_proxy_death_has_no_stale_fds(
            self, cvms, async_delegation):
        """Recovery off: the proxy is killed, then the app forks.  The
        child keeps no stub for a descriptor the dead proxy held, so its
        own open reuses the number instead of aliasing the slot."""
        world, ctx = launch_scratch(cvms, async_delegation)
        libc = ctx.libc
        libc.write_file(ctx.data_path("new"), b"NEW-FILE")
        fds = [libc.open(ctx.data_path(name), vfs.O_RDWR | vfs.O_CREAT)
               for name in ("held-a", "held-b")]
        for fd in fds:
            libc.write(fd, b"held")
        lane = world.anception.pool.lane_for(ctx.task)
        lane.cvm.kernel.reap_task(
            lane.proxies.proxy_for(ctx.task).guest_task, exit_code=-9)
        child = world.kernel.pids.require(libc.fork())
        assert lost_fds_outcome(world.anception, child,
                                world.libc_for(child), fds,
                                ctx.data_path("new")) == LOST_FDS

    def test_native_fork_not_mirrored(self, native_world, native_ctx):
        child_pid = native_ctx.libc.fork()
        child = native_world.kernel.pids.require(child_pid)
        assert child.redirection_entry == 0
        assert not [task for task in native_world.kernel.pids.all_tasks()
                    if task.name.startswith("proxy:")]


class TestDup2OverRemote:
    """dup2 closes a remote ``newfd`` in its proxy too, whichever
    kernel the source descriptor lives in."""

    @pytest.mark.parametrize("cvms,async_delegation", LOSS_WORLDS)
    def test_host_source_closes_the_proxy_fd(self, cvms, async_delegation):
        world, ctx = launch_scratch(cvms, async_delegation)
        libc = ctx.libc
        fd = libc.open(ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT)
        libc.write(fd, b"cvm-bytes")
        host_fd = libc.open("/system/bin/sh", vfs.O_RDONLY)
        assert (fd, host_fd) == (3, 4)
        guest = _guest_task(world, ctx.task)
        assert libc.syscall("dup2", host_fd, fd) == fd
        assert guest.fd_table == {}
        assert libc.pread(fd, 4, 0) == libc.pread(host_fd, 4, 0)
        assert libc.read_file(ctx.data_path("f")) == b"cvm-bytes"

    @pytest.mark.parametrize("cvms,async_delegation", LOSS_WORLDS)
    def test_remote_source_closes_the_proxy_fd(self, cvms,
                                               async_delegation):
        world, ctx = launch_scratch(cvms, async_delegation)
        libc = ctx.libc
        fds = [libc.open(ctx.data_path(name), vfs.O_RDWR | vfs.O_CREAT)
               for name in ("a", "b")]
        libc.write(fds[0], b"file-a")
        guest = _guest_task(world, ctx.task)
        assert libc.syscall("dup2", fds[0], fds[1]) == fds[1]
        assert [desc.path for desc in guest.fd_table.values()] \
            == [ctx.data_path("a")] * 2
        assert libc.pread(fds[1], 32, 0) == b"file-a"

    def test_bad_or_same_source_closes_nothing(self, anception_world,
                                               enrolled_ctx):
        libc = enrolled_ctx.libc
        fd = libc.open(enrolled_ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT)
        guest = _guest_task(anception_world, enrolled_ctx.task)
        held = dict(guest.fd_table)
        assert libc.syscall("dup2", fd, fd) == fd
        with pytest.raises(SyscallError) as info:
            libc.syscall("dup2", 77, fd)
        assert info.value.errno == errno.EBADF
        assert guest.fd_table == held
        assert fd in enrolled_ctx.task.fd_table


class TestExecSemantics:
    def test_system_binary_execs_from_host(self, anception_world,
                                           enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        image = anception_world.kernel.syscall(
            child, "execve", "/system/bin/sh", ()
        )
        assert child.exe_path == "/system/bin/sh"
        assert image.metadata["name"] == "sh"

    def test_user_code_execs_via_cache(self, anception_world, enrolled_ctx):
        from repro.kernel.loader import build_pseudo_elf

        blob = build_pseudo_elf("usergen", 0, {})
        path = enrolled_ctx.data_path("usergen")
        enrolled_ctx.libc.write_file(path, blob, mode=0o700)
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        anception_world.kernel.syscall(child, "execve", path, ())
        # executed from the host-side cache, not the requested path
        assert child.exe_path.startswith("/data/anception-exec-cache/")
        assert anception_world.anception.exec_cache.entries()

    def test_user_code_needs_exec_permission(self, anception_world,
                                             enrolled_ctx):
        from repro.kernel.loader import build_pseudo_elf

        path = enrolled_ctx.data_path("not-executable")
        enrolled_ctx.libc.write_file(path, build_pseudo_elf("x", 0, {}),
                                     mode=0o600)
        with pytest.raises(SyscallError) as info:
            enrolled_ctx.libc.execve(path)
        assert info.value.errno == errno.EACCES
        assert not anception_world.anception.exec_cache.entries()

    def test_cannot_exec_another_apps_private_code(self, anception_world,
                                                   enrolled_ctx):
        from repro.android.app import App, AppManifest
        from repro.kernel.loader import build_pseudo_elf

        class _Other(App):
            manifest = AppManifest("com.test.other")

            def main(self, ctx):
                ctx.libc.write_file(ctx.data_path("secret-code"),
                                    build_pseudo_elf("secret", 0, {}),
                                    mode=0o700)
                return {"ok": True}

        other = anception_world.install_and_launch(_Other())
        other.run()
        with pytest.raises(SyscallError) as info:
            enrolled_ctx.libc.execve(other.ctx.data_path("secret-code"))
        assert info.value.errno == errno.EACCES
        assert not anception_world.anception.exec_cache.entries()

    def test_exec_of_missing_user_code_fails(self, anception_world,
                                             enrolled_ctx):
        with pytest.raises(SyscallError):
            enrolled_ctx.libc.execve(enrolled_ctx.data_path("ghost"))

    def test_exec_keeps_sandbox(self, anception_world, enrolled_ctx):
        child_pid = enrolled_ctx.libc.fork()
        child = anception_world.kernel.pids.require(child_pid)
        anception_world.kernel.syscall(child, "execve", "/system/bin/sh", ())
        assert child.redirection_entry == 1
        assert _guest_task(anception_world, child).is_alive()


class TestMmapSplit:
    def test_anonymous_mmap_content_stays_on_host(self, anception_world,
                                                  enrolled_ctx):
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        enrolled_ctx.task.address_space.write(base, b"host-only-bytes")
        proxy_space = _guest_task(anception_world,
                                  enrolled_ctx.task).address_space
        vpn = base // PAGE_SIZE
        assert proxy_space.is_mapped(base)
        guest_view = proxy_space.read(
            base, 15, window=anception_world.cvm.kernel.frame_window,
            need_prot=0,
        )
        assert guest_view == b"\x00" * 15  # shape mirrored, content absent

    def test_null_page_mapping_mirrors_shape_only(self, anception_world,
                                                  enrolled_ctx):
        from repro.kernel.kernel import SHELLCODE_MAGIC

        enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE | PROT_EXEC,
            MAP_FIXED | MAP_ANONYMOUS, addr=0,
        )
        enrolled_ctx.task.address_space.write(
            0, SHELLCODE_MAGIC + b"payload", need_prot=0
        )
        proxy_space = _guest_task(anception_world,
                                  enrolled_ctx.task).address_space
        assert proxy_space.is_mapped(0)
        guest_zero = proxy_space.read(
            0, 16, window=anception_world.cvm.kernel.frame_window,
            need_prot=0,
        )
        assert not guest_zero.startswith(SHELLCODE_MAGIC)

    def test_file_backed_mmap_of_cvm_file(self, anception_world,
                                          enrolled_ctx):
        path = enrolled_ctx.data_path("mapped.bin")
        enrolled_ctx.libc.write_file(path, b"M" * 100)
        fd = enrolled_ctx.libc.open(path, vfs.O_RDONLY)
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ, 0, fd=fd, offset=0
        )
        content = enrolled_ctx.task.address_space.read(base, 100,
                                                       need_prot=0)
        assert content == b"M" * 100

    def test_msync_pushes_content_to_guest(self, anception_world,
                                           enrolled_ctx):
        base = enrolled_ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        enrolled_ctx.task.address_space.write(base, b"sync-me")
        result = enrolled_ctx.libc.syscall("msync", base, 7)
        assert result == 0


class TestUidChangeKill:
    def test_setuid_change_kills_app(self, anception_world, enrolled_ctx):
        task = enrolled_ctx.task
        # Root-capable change is needed to move UID; model a service
        # exploit granting it by swapping credentials to root first.
        task.credentials = Credentials(0)
        with pytest.raises(ProcessKilled):
            enrolled_ctx.libc.setuid(4242)
        assert not task.is_alive()
        assert task.pid in anception_world.anception.killed_apps

    def test_setuid_to_same_uid_is_fine(self, enrolled_ctx):
        uid = enrolled_ctx.task.credentials.uid
        assert enrolled_ctx.libc.setuid(uid) == 0
        assert enrolled_ctx.task.is_alive()

    def test_native_setuid_not_killed(self, native_ctx):
        uid = native_ctx.task.credentials.uid
        assert native_ctx.libc.setuid(uid) == 0
        assert native_ctx.task.is_alive()


class TestExecCacheLifecycle:
    def test_stage_closes_its_open_file(self, anception_world):
        cache = anception_world.anception.exec_cache
        staged = []
        real_open = cache.kernel.vfs.open

        def spying_open(*args, **kwargs):
            open_file = real_open(*args, **kwargs)
            staged.append(open_file)
            return open_file

        cache.kernel.vfs.open = spying_open
        try:
            path = cache.stage("/data/app/gen.bin", b"\x7fELFgen")
        finally:
            cache.kernel.vfs.open = real_open
        assert len(staged) == 1
        # the regression: stage used to leak the handle (refcount stuck
        # at 1), pinning every staged executable's description forever
        assert staged[0].refcount == 0
        assert path in [f"/data/anception-exec-cache/{n}"
                        for n in cache.entries()]

    def test_stage_closes_even_when_the_write_raises(self, anception_world):
        cache = anception_world.anception.exec_cache
        staged = []
        real_open = cache.kernel.vfs.open

        def spying_open(*args, **kwargs):
            open_file = real_open(*args, **kwargs)
            staged.append(open_file)
            return open_file

        cache.kernel.vfs.open = spying_open
        try:
            with pytest.raises(TypeError):
                cache.stage("/data/app/bad.bin", object())
        finally:
            cache.kernel.vfs.open = real_open
        assert staged[0].refcount == 0
