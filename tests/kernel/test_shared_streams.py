"""Pipes and sockets: shared descriptors and positional calls.

Descriptors that ``dup`` or ``fork`` copy share one open pipe end or
socket, which is released only when the last of them closes.  A pipe
or socket has no file position, so ``pread64``, ``pwrite64`` and
``lseek`` fail with ESPIPE.  ``fstat`` reports a FIFO or a socket, and
``fsync`` fails with EINVAL, as on Linux.  Each case runs natively,
under synchronous delegation and under async delegation.
"""

import errno
import stat

import pytest

from repro.errors import SyscallError
from repro.kernel.libc import Libc
from repro.kernel.net import AF_INET, SOCK_STREAM

from tests.conftest import ScratchApp
from tests.differential.catalogue import SCRIPTS
from tests.differential.harness import run_modes


MODES = ("native", "anception", "write-behind")


class EchoServer:
    def handle_data(self, conn, data):
        return b"echo:" + data


def _launch(world):
    running = world.install_and_launch(ScratchApp())
    running.run()
    return running.ctx.libc


def _errno(call, *args):
    with pytest.raises(SyscallError) as exc:
        call(*args)
    return exc.value.errno


@pytest.mark.parametrize("mode", MODES)
class TestSharedEnds:
    def test_child_exit_keeps_the_parents_pipe(self, tri_worlds, mode):
        world = tri_worlds[mode]
        libc = _launch(world)
        rfd, wfd = libc.pipe()
        child = world.kernel.pids.require(libc.fork())
        Libc(world.kernel, child).exit(0)
        assert libc.write(wfd, b"hi") == 2
        assert libc.read(rfd, 8) == b"hi"

    def test_closing_a_dup_keeps_the_pipe(self, tri_worlds, mode):
        libc = _launch(tri_worlds[mode])
        rfd, wfd = libc.pipe()
        libc.close(libc.syscall("dup", rfd))
        assert libc.write(wfd, b"hi") == 2
        assert libc.read(rfd, 8) == b"hi"

    def test_closing_every_read_end_breaks_the_pipe(self, tri_worlds,
                                                    mode):
        libc = _launch(tri_worlds[mode])
        rfd, wfd = libc.pipe()
        dup = libc.syscall("dup", rfd)
        libc.close(rfd)
        assert libc.write(wfd, b"x") == 1
        libc.close(dup)
        assert _errno(libc.write, wfd, b"hi") == errno.EPIPE

    def test_closing_a_dup_keeps_the_socket(self, tri_worlds, mode):
        world = tri_worlds[mode]
        world.internet.register_server(("echo.example", 7), EchoServer())
        libc = _launch(world)
        sock = libc.socket(AF_INET, SOCK_STREAM, 0)
        libc.connect(sock, ("echo.example", 7))
        libc.close(libc.syscall("dup", sock))
        assert libc.send(sock, b"ping") == 4
        assert libc.recv(sock, 64) == b"echo:ping"


def _streams(world):
    """(libc, pipe read end, pipe write end, connected socket)."""
    world.internet.register_server(("echo.example", 7), EchoServer())
    libc = _launch(world)
    rfd, wfd = libc.pipe()
    sock = libc.socket(AF_INET, SOCK_STREAM, 0)
    libc.connect(sock, ("echo.example", 7))
    return libc, rfd, wfd, sock


@pytest.mark.parametrize("mode", MODES)
class TestStreamMetadata:
    def test_fstat_reports_a_fifo_and_a_socket(self, tri_worlds, mode):
        libc, rfd, wfd, sock = _streams(tri_worlds[mode])
        uid = libc.task.credentials.euid
        for fd, mode_bits in ((rfd, stat.S_IFIFO | 0o600),
                              (wfd, stat.S_IFIFO | 0o600),
                              (sock, stat.S_IFSOCK | 0o777)):
            st = libc.fstat(fd)
            assert (st.st_mode, st.st_uid, st.st_size, st.st_nlink) == \
                (mode_bits, uid, 0, 1)
        assert stat.S_ISFIFO(libc.fstat(rfd).st_mode)
        assert stat.S_ISSOCK(libc.fstat(sock).st_mode)

    def test_fsync_on_a_stream_is_einval(self, tri_worlds, mode):
        libc, rfd, wfd, sock = _streams(tri_worlds[mode])
        for fd in (rfd, wfd, sock):
            assert _errno(libc.fsync, fd) == errno.EINVAL
            assert _errno(libc.fdatasync, fd) == errno.EINVAL
        # the streams still work afterwards
        assert libc.write(wfd, b"hi") == 2
        assert libc.read(rfd, 8) == b"hi"


def test_positional_calls_on_streams_fail_espipe(tri_worlds):
    script = SCRIPTS["stream-positional"]["script"]
    halves = run_modes(tri_worlds, script, ScratchApp)
    for mode in MODES:
        outcomes = {step: (status, value)
                    for step, _kind, status, value in halves[mode][0]}
        for step in range(2, 8):
            assert outcomes[step] == ("errno", "ESPIPE"), (mode, step)
        assert outcomes[8] == ("errno", "EINVAL"), mode


def test_espipe_charges_no_page_cost(native_ctx):
    libc = native_ctx.libc
    clock = libc.kernel.clock
    rfd, _wfd = libc.pipe()
    spent = []
    for length in (1, 64 * 4096):
        before = clock.now_ns
        assert _errno(libc.pread, rfd, length, 0) == errno.ESPIPE
        spent.append(clock.now_ns - before)
    assert spent[0] == spent[1]
