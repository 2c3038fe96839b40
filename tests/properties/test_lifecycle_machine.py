"""The app lifecycle as a state machine: stubs and proxies never disagree.

Hypothesis drives one enrolled app through opens, closes, ``dup``,
``dup2`` and ``fcntl(F_DUPFD)`` on CVM and host descriptors (also at and
past ``RLIMIT_NOFILE``, where a refused call leaves both tables as they
were), reads and writes, forks whose child runs a few calls and exits,
proxy kills (the next crossing respawns the proxy), lane reboots and
snapshot-restore.
It runs in four worlds: one lane and four, write-behind off and on.
After every step it checks the one rule for a proxy's descriptors:

* every ``RemoteFdStub`` names a descriptor of a live proxy that holds
  the file the app opened under that number;
* the proxy holds no descriptor without a stub, except its lazily
  opened ``/dev/binder``;
* file bytes equal a simple per-path model (when nothing is staged).

A lost proxy loses its descriptors, so after a kill or a reboot the
model drops every CVM fd: a later call on one must fail with EBADF and
the next open must reuse the lowest number.  Both loss rules fence
first: a loss drops an acknowledged staged write without an errno
(DESIGN §6), and whether the app should hear of it is not this
machine's question.
"""

import errno

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.core.marshal import RemoteFdStub
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.process import RLIMIT_NOFILE, Credentials
from repro.world import _World
from tests.core.test_recovery import launch_scratch


HOST_PATH = "/system/bin/sh"
NAMES = ("a", "b", HOST_PATH)
F_DUPFD = 0
ROOT = Credentials(0)

FDS = st.integers(3, 6)
EDGE_FDS = st.sampled_from((-1, RLIMIT_NOFILE - 1, RLIMIT_NOFILE, 10**9))
"""Numbers at the ends of the descriptor range and past them."""
DATA = st.binary(min_size=1, max_size=8)
OFFSET = st.none() | st.integers(0, 12)


class Description:
    """One open file description of the model: shared by dups."""

    def __init__(self, path, remote):
        self.path = path
        self.remote = remote
        self.pos = 0


class LifecycleMachine(RuleBasedStateMachine):
    cvms = 1
    write_behind = False

    fd_numbers = Bundle("fd_numbers")
    """Every fd number a call returned, kept after a close or a loss so
    later calls also exercise stale numbers."""

    def __init__(self):
        super().__init__()
        self.world, self.ctx = launch_scratch(self.cvms, self.write_behind,
                                              recovery=True)
        self.host_bytes = bytes(
            self.world.kernel.vfs.resolve(HOST_PATH, ROOT).data)
        self.files = {}
        """CVM path -> the bytes the app wrote there."""
        self.fds = {}
        """The app's host fd -> its :class:`Description`."""

    # -- one call, checked against the model ------------------------------

    def _path(self, name):
        return name if name == HOST_PATH else self.ctx.data_path(name)

    @staticmethod
    def _lowest_free(fds, lowest=3):
        fd = max(3, lowest)
        while fd in fds:
            fd += 1
        return fd

    @staticmethod
    def _refused(call, *args, code=errno.EBADF):
        with pytest.raises(SyscallError) as info:
            call(*args)
        assert info.value.errno == code

    def _open(self, libc, fds, name):
        path = self._path(name)
        remote = name != HOST_PATH
        flags = vfs.O_RDWR | vfs.O_CREAT if remote else vfs.O_RDONLY
        expected = self._lowest_free(fds)
        assert libc.open(path, flags) == expected
        fds[expected] = Description(path, remote)
        if remote:
            self.files.setdefault(path, b"")
        return expected

    def _close(self, libc, fds, fd):
        if fd not in fds:
            self._refused(libc.close, fd)
            return
        assert libc.close(fd) == 0
        del fds[fd]

    def _write(self, libc, fds, fd, data, offset):
        desc = fds.get(fd)
        if desc is None:
            self._refused(libc.write, fd, data)
            return
        if not desc.remote:
            return  # the host file is open read-only
        at = desc.pos if offset is None else offset
        if offset is None:
            assert libc.write(fd, data) == len(data)
            desc.pos += len(data)
        else:
            assert libc.pwrite(fd, data, offset) == len(data)
        content = self.files[desc.path].ljust(at, b"\x00")
        self.files[desc.path] = (content[:at] + data
                                 + content[at + len(data):])

    def _read(self, libc, fds, fd, length, offset):
        desc = fds.get(fd)
        if desc is None:
            self._refused(libc.pread, fd, length, 0)
            return
        content = self.files[desc.path] if desc.remote else self.host_bytes
        at = desc.pos if offset is None else offset
        if offset is None:
            assert libc.read(fd, length) == content[at:at + length]
            desc.pos += len(content[at:at + length])
        else:
            assert libc.pread(fd, length, offset) == content[at:at + length]

    def _lose_cvm_fds(self):
        self.fds = {fd: desc for fd, desc in self.fds.items()
                    if not desc.remote}

    def _lane(self):
        return self.world.anception.pool.lane_for(self.ctx.task)

    # -- rules -----------------------------------------------------------

    @initialize(target=fd_numbers)
    def open_one_of_each(self):
        """Start with a CVM and a host descriptor, so that calls which
        cross kernels come up in short programs."""
        return multiple(*(self._open(self.ctx.libc, self.fds, name)
                          for name in ("a", HOST_PATH)))

    @rule(target=fd_numbers, name=st.sampled_from(NAMES))
    def open(self, name):
        return self._open(self.ctx.libc, self.fds, name)

    @rule(fd=fd_numbers)
    def close(self, fd):
        self._close(self.ctx.libc, self.fds, fd)

    @rule(target=fd_numbers, fd=fd_numbers,
          minfd=st.none() | st.integers(0, 12) | EDGE_FDS)
    def dup(self, fd, minfd):
        """``dup``, or ``fcntl(F_DUPFD, minfd)`` when ``minfd`` is drawn.

        A ``minfd`` outside the range is EINVAL, and a duplicate with
        no number free below ``RLIMIT_NOFILE`` is EMFILE."""
        call = ("dup", fd) if minfd is None else ("fcntl", fd, F_DUPFD, minfd)
        if fd not in self.fds:
            self._refused(self.ctx.libc.syscall, *call)
            return multiple()
        if minfd is not None and not 0 <= minfd < RLIMIT_NOFILE:
            self._refused(self.ctx.libc.syscall, *call, code=errno.EINVAL)
            return multiple()
        expected = self._lowest_free(self.fds, minfd or 3)
        if expected >= RLIMIT_NOFILE:
            self._refused(self.ctx.libc.syscall, *call, code=errno.EMFILE)
            return multiple()
        assert self.ctx.libc.syscall(*call) == expected
        self.fds[expected] = self.fds[fd]
        return expected

    @rule(fd=fd_numbers, newfd=EDGE_FDS)
    def dup2_to_the_range_ends(self, fd, newfd):
        """``dup2`` to a number out of range is EBADF; to the last
        number in range it succeeds."""
        if newfd == RLIMIT_NOFILE - 1:
            self.dup2(fd, newfd)
        else:
            self._refused(self.ctx.libc.syscall, "dup2", fd, newfd)

    @rule(fd=fd_numbers, newfd=fd_numbers)
    def dup2(self, fd, newfd):
        if fd not in self.fds:
            self._refused(self.ctx.libc.syscall, "dup2", fd, newfd)
            return
        assert self.ctx.libc.syscall("dup2", fd, newfd) == newfd
        self.fds[newfd] = self.fds[fd]

    @rule(fd=fd_numbers, data=DATA, offset=OFFSET)
    def write(self, fd, data, offset):
        self._write(self.ctx.libc, self.fds, fd, data, offset)

    @rule(fd=fd_numbers, length=st.integers(1, 16), offset=OFFSET)
    def read(self, fd, length, offset):
        self._read(self.ctx.libc, self.fds, fd, length, offset)

    @rule(data=st.data())
    def fork(self, data):
        """The child inherits the parent's descriptors, runs, exits."""
        kernel = self.world.kernel
        child = kernel.pids.require(self.ctx.libc.fork())
        libc = self.world.libc_for(child)
        fds = dict(self.fds)
        self._check(child, fds)
        for _ in range(data.draw(st.integers(0, 3), label="calls")):
            call = data.draw(st.sampled_from(("open", "close", "write",
                                              "read")), label="call")
            if call == "open":
                self._open(libc, fds, data.draw(st.sampled_from(NAMES)))
            elif call == "close":
                self._close(libc, fds, data.draw(FDS))
            elif call == "write":
                self._write(libc, fds, data.draw(FDS), data.draw(DATA),
                            data.draw(OFFSET))
            else:
                self._read(libc, fds, data.draw(FDS),
                           data.draw(st.integers(1, 16)), data.draw(OFFSET))
            self._check(child, fds)
        libc.syscall("exit", 0)

    @rule()
    def kill_proxy(self):
        """Kill the proxy; the next crossing respawns it."""
        self.ctx.libc.fence()
        lane = self._lane()
        guest = lane.proxies.proxy_for(self.ctx.task).guest_task
        lane.cvm.kernel.reap_task(guest, exit_code=-9)
        self.ctx.libc.stat(self.ctx.data_dir)
        assert lane.proxies.proxy_for(self.ctx.task).guest_task is not guest
        self._lose_cvm_fds()

    @rule()
    def reboot_lane(self):
        self.ctx.libc.fence()
        self.world.anception.reboot_cvm(self._lane())
        self._lose_cvm_fds()

    @rule()
    def snapshot_restore(self):
        self.world = _World.restore(self.world.snapshot())
        self.ctx = self.world.zygote.launched[-1].ctx

    # -- invariants --------------------------------------------------------

    def _check(self, task, fds):
        """Stubs, proxy descriptors and the model agree for ``task``."""
        lane = self.world.anception.pool.lane_for(task)
        guest = lane.proxies.proxy_for(task).guest_task
        assert guest.is_alive()
        assert set(task.fd_table) == set(fds)
        stubs = {fd: desc.proxy_fd for fd, desc in task.fd_table.items()
                 if desc.__class__ is RemoteFdStub}
        assert set(stubs) == {fd for fd, desc in fds.items() if desc.remote}
        for fd, proxy_fd in stubs.items():
            held = guest.fd_table.get(proxy_fd)
            assert getattr(held, "path", None) == fds[fd].path, (fd, held)
        for proxy_fd, held in guest.fd_table.items():
            if proxy_fd not in stubs.values():
                assert held.path == "/dev/binder", (proxy_fd, held)

    @invariant()
    def stubs_name_descriptors_the_proxy_holds(self):
        self._check(self.ctx.task, self.fds)

    @invariant()
    def file_bytes_match_the_model(self):
        lane = self._lane()
        if lane.write_behind is not None and lane.write_behind.windows:
            return  # staged bytes land at the next fence
        for path, content in self.files.items():
            inode = lane.cvm.kernel.vfs.resolve(path, ROOT)
            assert bytes(inode.data) == content, path


MACHINE_SETTINGS = settings(max_examples=12, stateful_step_count=20,
                            deadline=None)
"""Examples and steps per world: the four worlds together stay within
a few seconds of tier-1."""


@MACHINE_SETTINGS
class OneLane(LifecycleMachine):
    pass


@MACHINE_SETTINGS
class FourLanes(LifecycleMachine):
    cvms = 4


@MACHINE_SETTINGS
class WriteBehind(LifecycleMachine):
    write_behind = True


@MACHINE_SETTINGS
class FourLanesWriteBehind(LifecycleMachine):
    cvms = 4
    write_behind = True


MACHINES = [OneLane, FourLanes, WriteBehind, FourLanesWriteBehind]

TestOneLane = OneLane.TestCase
TestFourLanes = FourLanes.TestCase
TestWriteBehind = WriteBehind.TestCase
TestFourLanesWriteBehind = FourLanesWriteBehind.TestCase


def _replay(machine_class, steps):
    machine = machine_class()
    try:
        machine.stubs_name_descriptors_the_proxy_holds()
        for name, *args in steps:
            getattr(machine, name)(*args)
            machine.stubs_name_descriptors_the_proxy_holds()
            machine.file_bytes_match_the_model()
    finally:
        machine.teardown()


@pytest.mark.parametrize("machine_class", MACHINES,
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("steps", [
    pytest.param([("open", "a"), ("kill_proxy",), ("open", "a")],
                 id="respawn-then-reopen"),
    pytest.param([("open", "a"), ("open", HOST_PATH), ("dup2", 4, 3)],
                 id="dup2-host-over-cvm"),
])
def test_known_minimal_failures(machine_class, steps):
    """The two smallest programs that failed before a lost proxy lost
    its descriptors and dup2 closed a remote ``newfd`` in its proxy."""
    _replay(machine_class, steps)
