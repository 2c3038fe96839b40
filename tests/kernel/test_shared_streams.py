"""Pipes and sockets: shared descriptors and positional calls.

Descriptors that ``dup`` or ``fork`` copy share one open pipe end or
socket, which is released only when the last of them closes.  A pipe
or socket has no file position, so ``pread64``, ``pwrite64`` and
``lseek`` fail with ESPIPE.  Each case runs natively, under synchronous
delegation and under async delegation.
"""

import errno

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
