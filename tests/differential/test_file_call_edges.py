"""File-call edges native and every delegation mode must agree on.

Edges of the read/write calls, each run native, with synchronous
delegation, with write-behind (``async_delegation=True``) and with the
host read cache (``read_cache=True``); outcomes (results *and* errnos)
and final VFS trees must be identical in all four:

* a negative ``pread``/``pwrite`` offset is EINVAL, as on Linux, and
  leaves the file as it was;
* a call that moves more bytes than the channel's shared-page window
  returns what native returns.  Whatever its size, a call is one ring
  descriptor whose bytes cross the window page by page: a ``read``,
  ``write``, ``pread`` or ``pwrite`` of a file, a ``writev`` segment,
  a batch window's merged write, a pipe ``read`` and a socket ``send``;
* a batch whose call raises keeps the writes queued before that call,
  as native ran them first.
"""

import errno

import pytest

from repro.android.app import App, AppManifest
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.net import AF_INET, SOCK_STREAM
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld, NativeWorld

from tests.differential.harness import (
    H,
    P,
    data_kernel,
    run_modes,
    vfs_tree,
)


class EdgeApp(App):
    manifest = AppManifest("com.diff.edges", permissions=("INTERNET",))

    def main(self, ctx):
        return {"ok": True}


TRUNC = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC

BIG = 40_000
"""Bytes in an oversized call: more than the default 32 KB window."""


def _pattern(size, salt):
    """``size`` bytes that differ page to page, so a misplaced or
    reordered piece shows."""
    return bytes((index // 7 + salt) % 251 for index in range(size))


NEGATIVE_OFFSET_SCRIPT = [
    ("open", P("neg.bin"), TRUNC, 0o644),
    ("write", H(0), b"abcdef"),
    ("pread", H(0), 6, 0),           # warms the read cache
    ("pwrite", H(0), b"XY", -2),
    ("pread", H(0), 4, -2),
    ("pwrite", H(0), b"XY", -1 << 40),
    ("pread", H(0), 6, 0),           # unchanged: abcdef
    ("fstat", H(0)),
    ("fence", H(0)),
    ("close", H(0)),
]

OVERSIZED_SCRIPT = [
    ("open", P("big.bin"), TRUNC, 0o644),
    ("pwrite", H(0), _pattern(BIG, 1), 0),
    ("fstat", H(0)),                 # a deferred failure would show here
    ("pread", H(0), BIG, 0),
    ("write", H(0), _pattern(BIG, 2)),   # at offset 0: pwrite moved none
    ("pread", H(0), 90_000, 100),    # short: the file ends first
    ("lseek", H(0), 5_000, 0),
    ("read", H(0), 70_000),          # short, from the shared offset
    ("read", H(0), 10),              # at EOF
    ("pwrite", H(0), bytearray(_pattern(3 * BIG, 3)), 12_345),
    ("pread", H(0), 2 * BIG, 20_000),
    ("lseek", H(0), 0, 0),
    ("read", H(0), 4 * BIG),
    ("fstat", H(0)),
    ("fence", H(0)),
    ("close", H(0)),
]


WRITEV_SCRIPT = [
    ("open", P("vec.bin"), TRUNC, 0o644),
    ("writev", H(0), [b"a" * BIG, b"b" * 10]),
    ("lseek", H(0), 0, 0),
    ("readv", H(0), [BIG, 10]),
    ("fstat", H(0)),
    ("fence", H(0)),
    ("close", H(0)),
]

PIPE_SCRIPT = [
    ("pipe",),
    ("write", H(0, 1), _pattern(BIG, 7)),
    ("read", H(0, 0), BIG),
    ("close", H(0, 1)),
    ("close", H(0, 0)),
]

ECHO = ("echo.example", 7)

SEND_SCRIPT = [
    ("socket", AF_INET, SOCK_STREAM, 0),
    ("connect", H(0), ECHO),
    ("send", H(0), _pattern(BIG, 8)),
    ("recv", H(0), 2 * BIG),
    ("close", H(0)),
]


class EchoServer:
    def handle_data(self, conn, data):
        return b"echo:" + data


@pytest.fixture
def four_worlds():
    worlds = {
        "native": NativeWorld(),
        "sync": AnceptionWorld(),
        "async": AnceptionWorld(async_delegation=True),
        "read-cache": AnceptionWorld(read_cache=True),
    }
    for world in worlds.values():
        world.internet.register_server(ECHO, EchoServer())
    return worlds


def _assert_all_agree(halves):
    native = halves["native"]
    for mode, half in halves.items():
        assert half[0] == native[0], f"outcomes diverge ({mode} vs native)"
        assert half[1] == native[1], f"final VFS diverges ({mode} vs native)"


def test_negative_offset_is_einval_in_every_mode(four_worlds):
    halves = run_modes(four_worlds, NEGATIVE_OFFSET_SCRIPT, EdgeApp)
    _assert_all_agree(halves)
    outcomes = halves["native"][0]
    assert [outcome[2:] for outcome in outcomes[3:7]] == [
        ("errno", "EINVAL"), ("errno", "EINVAL"), ("errno", "EINVAL"),
        ("ok", b"abcdef"),
    ]


def test_calls_larger_than_the_window_match_native(four_worlds):
    halves = run_modes(four_worlds, OVERSIZED_SCRIPT, EdgeApp)
    _assert_all_agree(halves)
    outcomes = halves["native"][0]
    assert all(outcome[2] == "ok" for outcome in outcomes)
    assert outcomes[1][3] == BIG
    assert len(outcomes[5][3]) == BIG - 100
    assert len(outcomes[7][3]) == BIG - 5_000


def test_oversized_writev_segment_matches_native(four_worlds):
    halves = run_modes(four_worlds, WRITEV_SCRIPT, EdgeApp)
    _assert_all_agree(halves)
    outcomes = halves["native"][0]
    assert outcomes[1][2:] == ("ok", BIG + 10)
    assert outcomes[3][2:] == ("ok", (b"a" * BIG, b"b" * 10))


def test_merged_batch_write_larger_than_the_window_matches_native(
        four_worlds):
    """A batch window merges ten 4 KB writes to one fd into one
    descriptor of more than 40 KB."""
    halves = {}
    for mode, world in four_worlds.items():
        running = world.install_and_launch(EdgeApp())
        running.run()
        ctx = running.ctx
        libc = ctx.libc
        fd = libc.open(ctx.data_path("batch.bin"), TRUNC, 0o644)
        chunks = [_pattern(4096, salt) for salt in range(10)]
        results = libc.syscall_batch([("write", fd, chunk)
                                      for chunk in chunks])
        libc.fence(fd)
        read_back = libc.pread(fd, 50_000, 0)
        libc.close(fd)
        anception = getattr(world, "anception", None)
        if anception is not None:
            anception.async_fence(libc.task)
        halves[mode] = ((results, read_back),
                        vfs_tree(data_kernel(world), ctx.data_dir))
    _assert_all_agree(halves)
    assert halves["native"][0] == ([4096] * 10, b"".join(chunks))


def test_batch_keeps_the_writes_before_a_raising_call(four_worlds):
    """A batch whose second call fails with EBADF raises it, and the
    write queued before that call lands, as native ran it first."""
    halves = {}
    for mode, world in four_worlds.items():
        running = world.install_and_launch(EdgeApp())
        running.run()
        ctx = running.ctx
        libc = ctx.libc
        fd = libc.open(ctx.data_path("batch-raise.bin"), TRUNC, 0o644)
        with pytest.raises(SyscallError) as info:
            libc.syscall_batch([("write", fd, b"aa"), ("write", 99, b"x"),
                                ("write", fd, b"bb")])
        libc.fence(fd)
        read_back = libc.pread(fd, 16, 0)
        libc.close(fd)
        anception = getattr(world, "anception", None)
        if anception is not None:
            anception.async_fence(libc.task)
        halves[mode] = ((info.value.errno, read_back),
                        vfs_tree(data_kernel(world), ctx.data_dir))
    _assert_all_agree(halves)
    assert halves["native"][0] == (errno.EBADF, b"aa")


def test_pipe_read_larger_than_the_window_matches_native(four_worlds):
    halves = run_modes(four_worlds, PIPE_SCRIPT, EdgeApp)
    _assert_all_agree(halves)
    outcomes = halves["native"][0]
    assert outcomes[1][2:] == ("ok", BIG)
    assert outcomes[2][2:] == ("ok", _pattern(BIG, 7))


def test_socket_send_larger_than_the_window_matches_native(four_worlds):
    halves = run_modes(four_worlds, SEND_SCRIPT, EdgeApp)
    _assert_all_agree(halves)
    outcomes = halves["native"][0]
    assert outcomes[2][2:] == ("ok", BIG)
    assert outcomes[3][2:] == ("ok", b"echo:" + _pattern(BIG, 8))


def test_oversized_calls_ride_one_doorbell_pair():
    """An oversized call is one descriptor behind one doorbell pair."""
    world = AnceptionWorld()
    running = world.install_and_launch(EdgeApp())
    running.run()
    libc = running.ctx.libc
    fd = libc.open(running.ctx.data_path("big.bin"), TRUNC, 0o644)
    hypervisor = world.anception.channel.hypervisor
    for call in (lambda: libc.pwrite(fd, _pattern(BIG, 4), 0),
                 lambda: libc.pread(fd, BIG, 0)):
        before = hypervisor.interrupt_count, hypervisor.hypercall_count
        call()
        assert (hypervisor.interrupt_count, hypervisor.hypercall_count) \
            == (before[0] + 1, before[1] + 1)


def test_oversized_calls_round_trip_through_the_crypto_fs():
    """Under the crypto FS an oversized call is encrypted or decrypted
    whole, at its own offset."""
    from repro.core.crypto_fs import TransparentCryptoFS

    world = AnceptionWorld()
    crypto = TransparentCryptoFS(world.anception)
    running = world.install_and_launch(EdgeApp())
    running.run()
    crypto.enable_for(running.ctx.task)
    libc = running.ctx.libc
    path = running.ctx.data_path("vault.bin")
    fd = libc.open(path, TRUNC, 0o644)
    first, second = _pattern(BIG, 5), _pattern(BIG + 3_000, 6)
    assert libc.write(fd, first) == BIG
    assert libc.pwrite(fd, second, 10_000) == BIG + 3_000
    assert libc.pread(fd, 2 * BIG, 0) == first[:10_000] + second
    libc.lseek(fd, 4_000, 0)
    assert libc.read(fd, BIG) == (first[:10_000] + second)[4_000:BIG + 4_000]
    stored = world.anception.cvm.kernel.vfs.resolve(path, Credentials(0))
    assert bytes(stored.data[:BIG]) != first[:BIG]
