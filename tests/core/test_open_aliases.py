"""Raw ``openat`` and ``creat`` are opens, at 1 and at 4 lanes.

The native kernel serves both with its open, so the layer rewrites
them to ``open`` before it checks the free host number: the result is
adopted into a new host stub, the read cache sees the truncating open,
and the app's later calls reach the file it opened.  After each case
the proxy's fd table holds only the descriptors the app's host stubs
name.
"""

import pytest

from repro.core.marshal import RemoteFdStub
from repro.kernel import vfs
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


LANES = [pytest.param(cvms, id=f"{cvms}-lane") for cvms in (1, 4)]

TRUNC = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC


def _launch(cvms, **knobs):
    world = AnceptionWorld(cvms=cvms, **knobs)
    running = world.install_and_launch(ScratchApp())
    running.run()
    return world, running.ctx


def _assert_proxy_holds_only_mapped_fds(world, task):
    lane = world.anception.pool.lane_for(task)
    guest = lane.proxies.proxy_for(task).guest_task
    mapped = {desc.proxy_fd for desc in task.fd_table.values()
              if desc.__class__ is RemoteFdStub}
    assert set(guest.fd_table) == mapped


@pytest.mark.parametrize("cvms", LANES)
def test_openat_makes_a_new_descriptor_at_offset_zero(cvms):
    world, ctx = _launch(cvms)
    libc = ctx.libc
    sh = libc.open("/system/bin/sh", vfs.O_RDONLY)
    path = ctx.data_path("alias.bin")
    fd = libc.open(path, TRUNC, 0o644)
    libc.write(fd, b"abc")
    again = libc.syscall("openat", path, vfs.O_RDWR)
    assert (sh, fd, again) == (3, 4, 5)
    assert libc.write(again, b"zz") == 2
    assert libc.pread(fd, 16, 0) == b"zzc"
    _assert_proxy_holds_only_mapped_fds(world, ctx.task)


@pytest.mark.parametrize("cvms", LANES)
def test_creat_returns_a_writable_descriptor(cvms):
    world, ctx = _launch(cvms)
    libc = ctx.libc
    libc.open("/system/bin/sh", vfs.O_RDONLY)
    libc.open(ctx.data_path("alias.bin"), TRUNC, 0o644)
    path = ctx.data_path("made.bin")
    fd = libc.syscall("creat", path, 0o600)
    assert fd == 5
    assert libc.write(fd, b"q") == 1
    libc.close(fd)
    assert libc.read_file(path) == b"q"
    _assert_proxy_holds_only_mapped_fds(world, ctx.task)


@pytest.mark.parametrize("cvms", LANES)
def test_truncating_openat_empties_the_read_cache(cvms):
    world, ctx = _launch(cvms, read_cache=True)
    libc = ctx.libc
    path = ctx.data_path("cached.bin")
    fd = libc.open(path, TRUNC, 0o644)
    libc.write(fd, b"abcdef")
    assert libc.pread(fd, 6, 0) == b"abcdef"  # warms the cache
    again = libc.syscall("openat", path, vfs.O_RDWR | vfs.O_TRUNC)
    assert libc.pread(fd, 6, 0) == b""
    libc.close(again)
    _assert_proxy_holds_only_mapped_fds(world, ctx.task)
