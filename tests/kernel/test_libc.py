"""The libc veneer: file helpers, sockets, process control."""

import contextlib
import errno

import pytest

from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.process import Credentials
from repro.obs.bus import TraceBus


@pytest.fixture
def kernel():
    return Machine(total_mb=64).kernel


@pytest.fixture
def libc(kernel):
    task = kernel.spawn_task("app", Credentials(10001))
    task.cwd = "/data/local/tmp"
    return Libc(kernel, task)


class TestFileHelpers:
    def test_write_file_read_file_roundtrip(self, libc):
        libc.write_file("/data/local/tmp/f", b"round-trip")
        assert libc.read_file("/data/local/tmp/f") == b"round-trip"

    def test_write_file_truncates(self, libc):
        libc.write_file("/data/local/tmp/f", b"long-original-content")
        libc.write_file("/data/local/tmp/f", b"short")
        assert libc.read_file("/data/local/tmp/f") == b"short"

    def test_read_file_missing_enoent(self, libc):
        with pytest.raises(SyscallError):
            libc.read_file("/data/local/tmp/missing")

    def test_read_file_large_content(self, libc):
        blob = bytes(range(256)) * 1024  # 256 KiB, forces chunked reads
        libc.write_file("/data/local/tmp/big", blob)
        assert libc.read_file("/data/local/tmp/big") == blob

    def test_relative_paths_resolve_against_cwd(self, libc):
        libc.write_file("rel.txt", b"cwd-relative")
        assert libc.read_file("/data/local/tmp/rel.txt") == b"cwd-relative"

    def test_read_elf(self, libc):
        meta = libc.read_elf("/system/bin/vold")
        assert meta["name"] == "vold"

    def test_listdir(self, libc):
        libc.write_file("/data/local/tmp/a", b"")
        libc.write_file("/data/local/tmp/b", b"")
        entries = libc.listdir("/data/local/tmp")
        assert {"a", "b"} <= set(entries)

    def test_mkdir_and_stat(self, libc):
        libc.mkdir("/data/local/tmp/sub")
        assert libc.stat("/data/local/tmp/sub").is_dir()

    def test_unlink_and_rename(self, libc):
        libc.write_file("/data/local/tmp/x", b"1")
        libc.rename("/data/local/tmp/x", "/data/local/tmp/y")
        libc.unlink("/data/local/tmp/y")
        with pytest.raises(SyscallError):
            libc.read_file("/data/local/tmp/y")

    def test_access(self, libc):
        libc.write_file("/data/local/tmp/f", b"")
        assert libc.access("/data/local/tmp/f", 4) == 0

    def test_fsync(self, libc):
        fd = libc.open("/data/local/tmp/f", vfs.O_WRONLY | vfs.O_CREAT)
        assert libc.fsync(fd) == 0


class TestDescriptors:
    def test_dup_shares_offset(self, libc):
        fd = libc.open("/data/local/tmp/f", vfs.O_RDWR | vfs.O_CREAT)
        libc.write(fd, b"abcdef")
        fd2 = libc.syscall("dup", fd)
        libc.lseek(fd, 0, vfs.SEEK_SET)
        assert libc.read(fd2, 3) == b"abc"
        assert libc.read(fd, 3) == b"def"

    def test_dup2_targets_specific_fd(self, libc):
        fd = libc.open("/data/local/tmp/f", vfs.O_RDWR | vfs.O_CREAT)
        assert libc.syscall("dup2", fd, 42) == 42

    def test_close_invalidates(self, libc):
        fd = libc.open("/data/local/tmp/f", vfs.O_RDWR | vfs.O_CREAT)
        libc.close(fd)
        with pytest.raises(SyscallError):
            libc.read(fd, 1)

    def test_pipe_roundtrip(self, libc):
        read_fd, write_fd = libc.syscall("pipe")
        libc.write(write_fd, b"through-the-pipe")
        assert libc.read(read_fd, 100) == b"through-the-pipe"


class TestMisc:
    def test_uname(self, libc):
        info = libc.syscall("uname")
        assert info["sysname"] == "Linux"
        assert info["machine"] == "armv7l"

    def test_getcwd_chdir(self, libc):
        assert libc.syscall("getcwd") == "/data/local/tmp"
        libc.syscall("chdir", "/data")
        assert libc.syscall("getcwd") == "/data"

    def test_chdir_to_file_enotdir(self, libc):
        libc.write_file("/data/local/tmp/f", b"")
        with pytest.raises(SyscallError):
            libc.syscall("chdir", "/data/local/tmp/f")

    def test_umask_applied_to_creat(self, libc):
        libc.syscall("umask", 0o077)
        libc.write_file("/data/local/tmp/masked", b"", mode=0o666)
        st = libc.stat("/data/local/tmp/masked")
        assert st.st_mode & 0o777 == 0o600

    def test_brk_via_libc(self, libc):
        space = libc.task.address_space
        new_brk = libc.brk(space.brk_page + 2)
        assert new_brk == space.brk_page
        assert space.resident_pages() >= 2

    def test_nanosleep_advances_clock(self, kernel, libc):
        before = kernel.clock.now_ns
        libc.syscall("nanosleep", 0.001)
        assert kernel.clock.now_ns - before >= 1_000_000

    def test_negative_nanosleep_is_einval(self, kernel, libc):
        before = kernel.clock.now_ns
        with pytest.raises(SyscallError) as exc:
            libc.syscall("nanosleep", -0.001)
        assert exc.value.errno == errno.EINVAL
        assert kernel.clock.now_ns - before < 1_000_000

    def test_float_length_charges_the_same_int_dormant_and_captured(self):
        # A float length prices a fractional page count; both charge
        # paths must truncate it the same way, leaving an int clock.
        clocks = []
        for captured in (False, True):
            kernel = Machine(total_mb=64).kernel
            task = kernel.spawn_task("app", Credentials(10001))
            libc = Libc(kernel, task)
            libc.write_file("/data/local/tmp/f", b"x" * 9000)
            fd = libc.open("/data/local/tmp/f", vfs.O_RDONLY)
            capture = (TraceBus.install(kernel.clock).capture() if captured
                       else contextlib.nullcontext())
            with capture, contextlib.suppress(TypeError, SyscallError):
                libc.pread(fd, 4096.5, 0)
            clocks.append(kernel.clock.now_ns)
        assert [type(ns) for ns in clocks] == [int, int]
        assert clocks[0] == clocks[1]
