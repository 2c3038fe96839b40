"""Vectored I/O, truncate, fcntl, descriptor limits, and the syscall
aliases."""

import errno

import pytest

from repro.errors import SyscallError
from repro.core.marshal import RemoteFdStub
from repro.kernel import vfs
from repro.kernel.process import RLIMIT_NOFILE

from tests.conftest import ScratchApp


class TestVectoredIO:
    def test_writev_concatenates(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("v"), vfs.O_RDWR | vfs.O_CREAT
        )
        total = native_ctx.libc.syscall("writev", fd, [b"one-", b"two-",
                                                       b"three"])
        assert total == 13
        native_ctx.libc.lseek(fd, 0, vfs.SEEK_SET)
        assert native_ctx.libc.read(fd, 64) == b"one-two-three"

    def test_readv_fills_vectors(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("v"), vfs.O_RDWR | vfs.O_CREAT
        )
        native_ctx.libc.write(fd, b"0123456789")
        native_ctx.libc.lseek(fd, 0, vfs.SEEK_SET)
        parts = native_ctx.libc.syscall("readv", fd, [4, 4, 4])
        assert parts == [b"0123", b"4567", b"89"]

    def test_vectored_io_redirected(self, anception_world, enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("v"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.syscall("writev", fd, [b"a", b"b"])
        enrolled_ctx.libc.lseek(fd, 0, vfs.SEEK_SET)
        assert enrolled_ctx.libc.syscall("readv", fd, [2]) == [b"ab"]


class TestTruncate:
    def test_truncate_shrinks(self, native_ctx):
        path = native_ctx.data_path("t")
        native_ctx.libc.write_file(path, b"0123456789")
        native_ctx.libc.syscall("truncate", path, 4)
        assert native_ctx.libc.read_file(path) == b"0123"

    def test_truncate_extends_with_zeros(self, native_ctx):
        path = native_ctx.data_path("t")
        native_ctx.libc.write_file(path, b"ab")
        native_ctx.libc.syscall("truncate", path, 5)
        assert native_ctx.libc.read_file(path) == b"ab\x00\x00\x00"

    def test_ftruncate_via_fd(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("t"), vfs.O_RDWR | vfs.O_CREAT
        )
        native_ctx.libc.write(fd, b"longcontent")
        native_ctx.libc.syscall("ftruncate", fd, 4)
        native_ctx.libc.lseek(fd, 0, vfs.SEEK_SET)
        assert native_ctx.libc.read(fd, 64) == b"long"

    def test_ftruncate_readonly_fd_rejected(self, native_ctx):
        path = native_ctx.data_path("t")
        native_ctx.libc.write_file(path, b"x")
        fd = native_ctx.libc.open(path, vfs.O_RDONLY)
        with pytest.raises(SyscallError):
            native_ctx.libc.syscall("ftruncate", fd, 0)

    def test_negative_length_rejected(self, native_ctx):
        path = native_ctx.data_path("t")
        native_ctx.libc.write_file(path, b"x")
        with pytest.raises(SyscallError):
            native_ctx.libc.syscall("truncate", path, -1)

    def test_truncate_redirected_to_cvm(self, anception_world,
                                        enrolled_ctx):
        from repro.kernel.process import Credentials

        path = enrolled_ctx.data_path("t")
        enrolled_ctx.libc.write_file(path, b"0123456789")
        enrolled_ctx.libc.syscall("truncate", path, 3)
        inode = anception_world.cvm.kernel.vfs.resolve(path, Credentials(0))
        assert bytes(inode.data) == b"012"


class TestFcntl:
    def test_dupfd(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT
        )
        native_ctx.libc.write(fd, b"dup-me")
        fd2 = native_ctx.libc.syscall("fcntl", fd, 0)  # F_DUPFD
        native_ctx.libc.lseek(fd2, 0, vfs.SEEK_SET)
        assert native_ctx.libc.read(fd2, 6) == b"dup-me"

    def test_getfl_returns_flags(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT
        )
        flags = native_ctx.libc.syscall("fcntl", fd, 3)  # F_GETFL
        assert flags & 0x2  # O_RDWR

    def test_unknown_cmd_einval(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT
        )
        with pytest.raises(SyscallError):
            native_ctx.libc.syscall("fcntl", fd, 99)

    def test_dupfd_on_remote_fd(self, anception_world, enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"remote")
        fd2 = enrolled_ctx.libc.syscall("fcntl", fd, 0)
        table = anception_world.anception.fd_tables[enrolled_ctx.task.pid]
        assert table.is_remote(fd2)
        enrolled_ctx.libc.lseek(fd2, 0, vfs.SEEK_SET)
        assert enrolled_ctx.libc.read(fd2, 6) == b"remote"

    @pytest.mark.parametrize("world", ["native", "anception"])
    @pytest.mark.parametrize("path", ["data", "/system/bin/sh"])
    def test_dupfd_takes_the_lowest_free_fd_at_or_above_minfd(
            self, native_ctx, enrolled_ctx, world, path):
        ctx = native_ctx if world == "native" else enrolled_ctx
        fd = ctx.libc.open(
            ctx.data_path("f") if path == "data" else path,
            vfs.O_RDWR | vfs.O_CREAT if path == "data" else vfs.O_RDONLY,
        )
        assert ctx.libc.syscall("fcntl", fd, 0, 10) == 10
        assert ctx.libc.syscall("fcntl", fd, 0, 10) == 11
        assert ctx.libc.syscall("fcntl", fd, 0, 1) == fd + 1
        with pytest.raises(SyscallError) as info:
            ctx.libc.syscall("fcntl", fd, 0, -1)
        assert info.value.errno == errno.EINVAL


def _errno(call, *args):
    with pytest.raises(SyscallError) as info:
        call(*args)
    return info.value.errno


class TestDescriptorLimits:
    """Descriptor numbers stay in ``[0, RLIMIT_NOFILE)``, natively and
    across kernels, on a CVM file and on a host file."""

    @staticmethod
    def _open(ctx, path):
        return ctx.libc.open(
            ctx.data_path("f") if path == "data" else path,
            vfs.O_RDWR | vfs.O_CREAT if path == "data" else vfs.O_RDONLY,
        )

    @pytest.mark.parametrize("world", ["native", "anception"])
    @pytest.mark.parametrize("path", ["data", "/system/bin/sh"])
    def test_dup2_out_of_range_is_ebadf_and_installs_nothing(
            self, native_ctx, enrolled_ctx, world, path):
        ctx = native_ctx if world == "native" else enrolled_ctx
        fd = self._open(ctx, path)
        table = dict(ctx.task.fd_table)
        for newfd in (-1, RLIMIT_NOFILE, 10**9):
            assert _errno(ctx.libc.syscall, "dup2", fd, newfd) == errno.EBADF
        assert ctx.task.fd_table == table
        last = RLIMIT_NOFILE - 1
        assert ctx.libc.syscall("dup2", fd, last) == last

    @pytest.mark.parametrize("world", ["native", "anception"])
    @pytest.mark.parametrize("path", ["data", "/system/bin/sh"])
    def test_dupfd_minfd_at_the_limit_is_einval(
            self, native_ctx, enrolled_ctx, world, path):
        ctx = native_ctx if world == "native" else enrolled_ctx
        fd = self._open(ctx, path)
        for minfd in (RLIMIT_NOFILE, 10**9):
            assert _errno(ctx.libc.syscall, "fcntl", fd, 0, minfd) \
                == errno.EINVAL
        last = RLIMIT_NOFILE - 1
        assert ctx.libc.syscall("fcntl", fd, 0, last) == last
        assert _errno(ctx.libc.syscall, "fcntl", fd, 0, last) == errno.EMFILE

    @pytest.mark.parametrize("world", ["native", "anception"])
    @pytest.mark.parametrize("path", ["data", "/system/bin/sh"])
    def test_full_table_is_emfile(self, native_ctx, enrolled_ctx, world,
                                  path):
        ctx = native_ctx if world == "native" else enrolled_ctx
        fd = self._open(ctx, path)
        while len(ctx.task.fd_table) < RLIMIT_NOFILE - 3:
            ctx.libc.syscall("dup", fd)
        assert max(ctx.task.fd_table) == RLIMIT_NOFILE - 1
        assert _errno(ctx.libc.syscall, "dup", fd) == errno.EMFILE
        assert _errno(ctx.libc.syscall, "fcntl", fd, 0, 5) == errno.EMFILE
        assert _errno(self._open, ctx, "/system/bin/sh") == errno.EMFILE
        assert len(ctx.task.fd_table) == RLIMIT_NOFILE - 3
        ctx.libc.close(fd)
        assert ctx.libc.syscall("dup", fd + 1) == fd

    def test_refused_remote_duplicates_close_in_the_proxy(
            self, anception_world, enrolled_ctx):
        """A host table that refuses the stub (EMFILE) leaves the proxy
        holding no duplicate it made for it."""
        ctx = enrolled_ctx
        fd = self._open(ctx, "data")
        last = RLIMIT_NOFILE - 1
        assert ctx.libc.syscall("fcntl", fd, 0, last) == last
        lane = anception_world.anception.pool.lane_for(ctx.task)
        guest = lane.proxies.proxy_for(ctx.task).guest_task
        held = set(guest.fd_table)
        assert _errno(ctx.libc.syscall, "fcntl", fd, 0, last) == errno.EMFILE
        assert set(guest.fd_table) == held
        while len(ctx.task.fd_table) < RLIMIT_NOFILE - 3:
            ctx.libc.syscall("dup", fd)
        held = set(guest.fd_table)
        assert _errno(ctx.libc.syscall, "dup", fd) == errno.EMFILE
        assert set(guest.fd_table) == held
        stubs = {desc.proxy_fd for desc in ctx.task.fd_table.values()
                 if desc.__class__ is RemoteFdStub}
        assert stubs == held


class TestAliases:
    @pytest.mark.parametrize("alias,canonical_result", [
        ("stat64", True),
        ("lstat64", True),
    ])
    def test_stat_aliases(self, native_ctx, alias, canonical_result):
        path = native_ctx.data_path("s")
        native_ctx.libc.write_file(path, b"abc")
        st = native_ctx.libc.syscall(alias, path)
        assert st.st_size == 3

    def test_creat_alias(self, native_ctx):
        path = native_ctx.data_path("c")
        fd = native_ctx.libc.syscall("creat", path, 0o600)
        native_ctx.libc.write(fd, b"created")
        assert native_ctx.libc.read_file(path) == b"created"

    def test_llseek_alias(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("l"), vfs.O_RDWR | vfs.O_CREAT
        )
        native_ctx.libc.write(fd, b"0123456789")
        assert native_ctx.libc.syscall("_llseek", fd, 5, vfs.SEEK_SET) == 5

    def test_fdatasync_alias(self, native_ctx):
        fd = native_ctx.libc.open(
            native_ctx.data_path("d"), vfs.O_RDWR | vfs.O_CREAT
        )
        assert native_ctx.libc.syscall("fdatasync", fd) == 0


MODES = ("native", "anception", "write-behind")


def _hello_file(world):
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    path = ctx.data_path("zero.bin")
    fd = ctx.libc.open(path, vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
    ctx.libc.write(fd, b"hello")
    return ctx.libc, fd, path


@pytest.mark.parametrize("mode", MODES)
class TestZeroLengthWrite:
    """A zero-length write to a regular file changes nothing, as on
    Linux: not the size, not the offset, not the bytes."""

    def test_pwrite_past_eof_keeps_the_size(self, tri_worlds, mode):
        libc, fd, path = _hello_file(tri_worlds[mode])
        assert libc.pwrite(fd, b"", 10000) == 0
        assert libc.fstat(fd).st_size == 5
        libc.close(fd)
        assert libc.read_file(path) == b"hello"

    def test_write_after_seek_past_eof_keeps_size_and_offset(
            self, tri_worlds, mode):
        libc, fd, path = _hello_file(tri_worlds[mode])
        assert libc.lseek(fd, 20000) == 20000
        assert libc.write(fd, b"") == 0
        assert libc.fstat(fd).st_size == 5
        assert libc.lseek(fd, 0, vfs.SEEK_CUR) == 20000
        libc.close(fd)
        assert libc.read_file(path) == b"hello"
