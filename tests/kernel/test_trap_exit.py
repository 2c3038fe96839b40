"""The system-call trap leaves the kernel as it found it on every exit.

``Kernel.syscall`` is one frame: it sets ``kernel.current`` for the
call and, under a capture, opens its ``syscall`` span by hand.  Both
must be undone on every way out -- a normal return, a
:class:`SyscallError` from a handler, an errno injected at the
``syscall.error`` fault site, and a nested guest call whose kernel
panics (:class:`KernelCrashed`) under a redirected host call -- with
no capture open and under one.  Under a capture the records one script
emits are pinned: they equal the records the two-frame trap emitted.
"""

import errno
import hashlib
import json

import pytest

from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.kernel.kernel import KernelCrashed
from repro.obs.bus import TraceBus
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


SCRIPT_DIGEST = "26171a4564883027"
"""sha256 prefix of the records :func:`_run_script` captures, taken on
the trap before it became one frame (a ``syscall`` method entering a
``_syscall_body`` helper inside a ``with`` span)."""


def _boot():
    world = AnceptionWorld()
    running = world.install_and_launch(ScratchApp())
    running.run()
    return world, running.ctx


def _guest_panic(kernel, task, args, kwargs):
    """A guest-kernel flaw whose trigger oopses the kernel."""
    kernel.panic("injected oops in fstat")


def _run_script(world, ctx):
    """Drive the trap through each exit; after every step both kernels'
    ``current`` must be what it was before the step.  Returns each
    step's outcome: the result, or the errno raised."""
    libc = ctx.libc
    host = world.kernel
    guest = world.anception.pool.lane_for(ctx.task).cvm.kernel
    outcomes = []

    def step(call, *args):
        before = (host.current, guest.current)
        try:
            outcome = getattr(libc, call)(*args)
        except SyscallError as exc:
            outcome = errno.errorcode[exc.errno]
        assert (host.current, guest.current) == before, call
        outcomes.append(outcome)

    step("getpid")                                   # host, returns
    fd = libc.open(ctx.data_path("trap.bin"),
                   vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC, 0o600)
    step("pwrite", fd, b"trap", 0)                   # crosses, returns
    step("pread", 99, 4, 0)                          # host EBADF
    step("pread", fd, 4, -1)                         # guest EINVAL
    engine = FaultEngine("syscall.error:call=getppid:errno=EPERM")
    engine.arm(world.machine.clock)
    try:
        step("syscall", "getppid")                   # injected EPERM
    finally:
        engine.disarm()
    guest.register_vulnerability("fstat", _guest_panic)
    step("fstat", fd)                                # guest panics: EIO
    assert guest.crashed
    return outcomes


def _check_outcomes(outcomes, ctx):
    assert outcomes == [ctx.task.pid, 4, "EBADF", "EINVAL", "EPERM", "EIO"]


def test_dormant_trap_restores_current_on_every_exit():
    world, ctx = _boot()
    assert world.machine.clock.dormant
    _check_outcomes(_run_script(world, ctx), ctx)


def test_captured_trap_closes_its_span_on_every_exit():
    world, ctx = _boot()
    bus = TraceBus.install(world.machine.clock)
    with bus.capture() as capture:
        outcomes = _run_script(world, ctx)
    _check_outcomes(outcomes, ctx)
    spans = capture.spans("syscall")
    assert spans and all(span["end_ns"] is not None for span in spans)
    errors = [(span["name"], span["kernel"], span["args"].get("error"))
              for span in spans if "error" in span["args"]]
    host, guest = world.kernel.label, world.anception.cvm.kernel.label
    assert errors == [
        ("pread64", host, "SyscallError"),
        ("pread64", guest, "SyscallError"),
        ("pread64", host, "SyscallError"),
        ("getppid", host, "SyscallError"),
        ("fstat", guest, "KernelCrashed"),
        ("fstat", host, "SyscallError"),
    ]
    assert _digest(capture.records) == SCRIPT_DIGEST


def _digest(records):
    """sha256 prefix over every captured record, in order."""
    stream = json.dumps([dict(record) for record in records],
                        sort_keys=True)
    return hashlib.sha256(stream.encode()).hexdigest()[:16]


@pytest.mark.parametrize("captured", [False, True])
def test_a_crashed_kernel_refuses_the_trap_and_keeps_current(captured):
    world, ctx = _boot()
    guest = world.anception.cvm.kernel
    guest.register_vulnerability("fstat", _guest_panic)
    fd = ctx.libc.open(ctx.data_path("f"), vfs.O_RDWR | vfs.O_CREAT)
    bus = TraceBus.install(world.machine.clock)
    if captured:
        with bus.capture():
            with pytest.raises(SyscallError):
                ctx.libc.fstat(fd)
    else:
        with pytest.raises(SyscallError):
            ctx.libc.fstat(fd)
    proxy = world.anception.proxies.proxy_for(ctx.task)
    with pytest.raises(KernelCrashed):
        guest.syscall(proxy.guest_task, "getpid")
    assert (world.kernel.current, guest.current) == (None, None)
