"""msync write-back of file-backed split mappings (Section III-D)."""

import pytest

from repro.kernel import vfs
from repro.kernel.memory import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    PROT_READ,
    PROT_WRITE,
)
from repro.kernel.process import Credentials
from repro.perf.costs import PAGE_SIZE


ROOT = Credentials(0)


@pytest.fixture
def mapped(anception_world, enrolled_ctx):
    """A file-backed split mapping of a CVM file."""
    path = enrolled_ctx.data_path("mapped.db")
    enrolled_ctx.libc.write_file(path, b"ORIGINAL" + b"\x00" * 100)
    fd = enrolled_ctx.libc.open(path, vfs.O_RDWR)
    base = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE, 0,
                                  fd=fd, offset=0)
    return path, fd, base


class TestWriteBack:
    def test_msync_pushes_modifications_to_cvm_file(self, anception_world,
                                                    enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        enrolled_ctx.libc.syscall("msync", base, 8)
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"MODIFIED"

    def test_without_msync_file_unchanged(self, anception_world,
                                          enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"ORIGINAL"

    def test_partial_msync_at_offset(self, anception_world, enrolled_ctx,
                                     mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base + 4, b"XY")
        enrolled_ctx.libc.syscall("msync", base + 4, 2)
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data[:8]) == b"ORIGXYAL"

    def test_whole_page_msync_never_grows_the_file(self, anception_world,
                                                   enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        enrolled_ctx.task.address_space.write(base + 200, b"past-eof")
        enrolled_ctx.libc.syscall("msync", base, PAGE_SIZE)
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data) == b"MODIFIED" + b"\x00" * 100

    def test_msync_past_eof_writes_nothing(self, anception_world,
                                           enrolled_ctx, mapped):
        path, _fd, base = mapped
        enrolled_ctx.task.address_space.write(base + 200, b"past-eof")
        assert enrolled_ctx.libc.syscall("msync", base + 200, 8) == 0
        inode = anception_world.cvm.kernel.vfs.resolve(path, ROOT)
        assert bytes(inode.data) == b"ORIGINAL" + b"\x00" * 100

    def test_anonymous_msync_still_fine(self, enrolled_ctx):
        base = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE,
                                      MAP_ANONYMOUS)
        enrolled_ctx.task.address_space.write(base, b"anon")
        assert enrolled_ctx.libc.syscall("msync", base, 4) == 0

    def test_reread_after_msync_sees_new_content(self, enrolled_ctx,
                                                 mapped):
        path, fd, base = mapped
        enrolled_ctx.task.address_space.write(base, b"MODIFIED")
        enrolled_ctx.libc.syscall("msync", base, 8)
        assert enrolled_ctx.libc.pread(fd, 8, 0) == b"MODIFIED"


def _remap_anonymous(ctx):
    """Map a CVM file, unmap it, map anonymous memory at the same
    address, write and msync it; return the file's first 16 bytes."""
    path = ctx.data_path("remapped.db")
    ctx.libc.write_file(path, b"A" * PAGE_SIZE)
    fd = ctx.libc.open(path, vfs.O_RDWR)
    base = ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE, 0, fd=fd)
    ctx.libc.munmap(base, PAGE_SIZE)
    ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE,
                  MAP_ANONYMOUS | MAP_FIXED, addr=base)
    ctx.task.address_space.write(base, b"Z" * 16)
    assert ctx.libc.syscall("msync", base, 16) == 0
    return ctx.libc.pread(fd, 16, 0)


class TestUnmappedFileMapping:
    def test_msync_after_munmap_leaves_the_file_alone(self, native_ctx,
                                                      enrolled_ctx):
        assert _remap_anonymous(native_ctx) == b"A" * 16
        assert _remap_anonymous(enrolled_ctx) == b"A" * 16

    def test_table_holds_only_live_mappings(self, anception_world,
                                            enrolled_ctx):
        path = enrolled_ctx.data_path("cycled.db")
        enrolled_ctx.libc.write_file(path, b"C" * PAGE_SIZE)
        fd = enrolled_ctx.libc.open(path, vfs.O_RDWR)
        for _ in range(20):
            base = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE,
                                          0, fd=fd)
            enrolled_ctx.libc.munmap(base, PAGE_SIZE)
        kept = enrolled_ctx.libc.mmap(PAGE_SIZE, PROT_READ | PROT_WRITE, 0,
                                      fd=fd)
        pid = enrolled_ctx.task.pid
        assert [key for key in anception_world.anception._file_mappings
                if key[0] == pid] == [(pid, kept)]
