"""File-call edges native and every delegation mode must agree on.

Two edges of the positional and sequential read/write calls, each run
native, with synchronous delegation, with write-behind
(``async_delegation=True``) and with the host read cache
(``read_cache=True``); outcomes (results *and* errnos) and final VFS
trees must be identical in all four:

* a negative ``pread``/``pwrite`` offset is EINVAL, as on Linux, and
  leaves the file as it was;
* a ``read``, ``write``, ``pread`` or ``pwrite`` larger than the
  channel's shared-page window returns what native returns: the layer
  splits it into pieces that each fit one ring descriptor.
"""

import pytest

from repro.android.app import App, AppManifest
from repro.kernel import vfs
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld, NativeWorld

from tests.differential.harness import H, P, run_modes


class EdgeApp(App):
    manifest = AppManifest("com.diff.edges")

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


@pytest.fixture
def four_worlds():
    return {
        "native": NativeWorld(),
        "sync": AnceptionWorld(),
        "async": AnceptionWorld(async_delegation=True),
        "read-cache": AnceptionWorld(read_cache=True),
    }


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


def test_oversized_calls_ride_one_doorbell_pair():
    """Every piece of a split call shares one doorbell pair."""
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
    """Under the crypto FS the pieces run one at a time, each encrypted
    or decrypted at its own offset."""
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
