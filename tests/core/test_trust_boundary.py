"""The CVM's object graph reaches no host-private state.

Principles 3-4 say the container cannot address host state.  The
hypervisor enforces that for frames; these tests check it for the
simulator's object graph, walking it by the snapshot audit's rules
(:func:`~repro.core.snapshot.walk_components`) from the guest kernel and
from the CVM's ``AndroidSystem``, after one app launched and wrote a
file through delegation.
"""

import pytest

from repro.core.snapshot import walk_components
from repro.kernel.vfs import O_CREAT, O_RDWR
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


@pytest.fixture
def launched():
    world = AnceptionWorld()
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    fd = ctx.libc.open("boundary.txt", O_CREAT | O_RDWR)
    ctx.libc.write(fd, b"host-private?")
    ctx.libc.close(fd)
    return world, ctx


@pytest.mark.parametrize("root", ["kernel", "android"])
def test_cvm_graph_reaches_neither_host_kernel_nor_app_task(launched, root):
    world, ctx = launched
    host_task = ctx.task
    host_private = {
        id(world.machine.kernel): "host Kernel",
        id(host_task): "app's host Task",
        id(host_task.address_space): "app's host AddressSpace",
    }
    (lane,) = world.anception.pool.lanes
    reached = {id(obj) for obj in walk_components(getattr(lane.cvm, root))}
    # The walk is not vacuous: it finds the app's proxy in the CVM.
    proxy = world.anception.proxies.proxy_for(host_task)
    assert id(proxy.guest_task) in reached
    leaks = sorted(name for key, name in host_private.items()
                   if key in reached)
    assert leaks == []
