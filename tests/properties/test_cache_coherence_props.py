"""Page-cache coherence: every cached page equals the live CVM bytes.

The host page cache (``core/page_cache.py``) is only a latency
optimisation if what it holds is always what the CVM would return.
Hypothesis drives two CVM files — one opened ``O_APPEND`` — through
positional and streaming writes, vectored writes, truncation (grow and
shrink), ``sendfile``, reads, seeks, fences, ``O_TRUNC`` reopens,
unlink and rename, on a 16-page cache so eviction and read-ahead
interleave with write-through.  After *every* op:

* each cached ``(ino, page)`` equals ``data[page*4096:(page+1)*4096]``
  of the proxy-side inode, and
* each known file size equals the inode's live size.

The check reads the cache and the proxy's inode directly, so it sees a
stale page even when no later read happens to land on it.  It runs with
and without async delegation, where write-through runs at window drain.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SyscallError
from repro.kernel import vfs
from repro.perf.costs import PAGE_SIZE
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


PAGE = PAGE_SIZE
MAX_PAGES = 20
SLOT_FLAGS = (vfs.O_RDWR | vfs.O_CREAT,
              vfs.O_RDWR | vfs.O_CREAT | vfs.O_APPEND)

_slot = st.integers(0, 1)
_near = st.integers(0, 3 * PAGE)
_offset = st.one_of(
    _near,
    st.integers(0, MAX_PAGES).map(lambda page: page * PAGE),
    st.integers(0, MAX_PAGES * PAGE),
)
_length = st.one_of(st.integers(0, 3 * PAGE), st.just(PAGE), st.just(0))

_ARGS = {
    "pwrite": (_offset, _length),
    # a positional write that starts ``gap`` bytes past the live EOF
    "pwrite_past_eof": (st.integers(0, 2 * PAGE), _length),
    "write": (_length,),
    "writev": (st.lists(st.integers(0, PAGE + 3), min_size=1,
                        max_size=3),),
    "ftruncate": (_offset,),
    "sendfile": (_near, _length),
    "pread": (_near, _length),
    # a positional read that starts ``back`` bytes before the live EOF
    "pread_tail": (st.integers(1, 2 * PAGE), _length),
    "read": (_length,),
    "lseek": (_offset,),
    "fence": (),
    "reopen": (),
    "unlink": (),
    "rename": (),
}
# Positional writes and reads are drawn three times as often as the
# rest: they are what the range write-through serves.
_NAMES = sorted(_ARGS) + ["pwrite", "pwrite_past_eof", "pread",
                          "pread_tail"] * 2
_op = st.sampled_from(_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), _slot, *_ARGS[name]))

_scripts = st.lists(_op, min_size=12, max_size=50)


class _Files:
    """Two file slots, the live inodes behind them, and a payload tag."""

    def __init__(self, world):
        running = world.install_and_launch(ScratchApp())
        running.run()
        self.ctx = running.ctx
        self.libc = running.ctx.libc
        self.layer = world.anception
        self.paths = [self.ctx.data_path(f"slot{i}.bin") for i in (0, 1)]
        self.fds = [None, None]
        self.inodes = {}
        self.tag = 0
        for slot in (0, 1):
            self.reopen(slot)

    def reopen(self, slot):
        """(Re)open a slot's path with ``O_TRUNC``, closing its old fd."""
        if self.fds[slot] is not None:
            self.libc.close(self.fds[slot])
            self.fds[slot] = None
        fd = self.libc.open(self.paths[slot],
                            SLOT_FLAGS[slot] | vfs.O_TRUNC, 0o644)
        self.fds[slot] = fd
        inode = self.layer._remote_file(self.ctx.task, fd).inode
        self.inodes[inode.ino] = inode

    def _live_size(self, fd):
        """The proxy-side size, read without a syscall (or a fence)."""
        return len(self.layer._remote_file(self.ctx.task, fd).inode.data)

    def payload(self, length):
        self.tag = self.tag % 250 + 1
        return bytes([self.tag]) * length

    def apply(self, op):
        name, slot = op[0], op[1]
        libc, fd = self.libc, self.fds[slot]
        if name == "pwrite":
            libc.pwrite(fd, self.payload(op[3]), op[2])
        elif name == "pwrite_past_eof":
            libc.pwrite(fd, self.payload(op[3]),
                        self._live_size(fd) + op[2])
        elif name == "write":
            libc.write(fd, self.payload(op[2]))
        elif name == "writev":
            libc.writev(fd, [self.payload(n) for n in op[2]])
        elif name == "ftruncate":
            libc.ftruncate(fd, op[2])
        elif name == "sendfile":
            libc.sendfile(fd, self.fds[1 - slot], op[2], op[3])
        elif name == "pread":
            libc.pread(fd, op[3], op[2])
        elif name == "pread_tail":
            libc.pread(fd, op[3], max(0, self._live_size(fd) - op[2]))
        elif name == "read":
            libc.read(fd, op[2])
        elif name == "lseek":
            libc.lseek(fd, op[2])
        elif name == "fence":
            libc.fence(fd)
        elif name == "reopen":
            self.reopen(slot)
        elif name == "unlink":
            libc.unlink(self.paths[slot])
        elif name == "rename":
            libc.rename(self.paths[slot], self.paths[1 - slot])


def _incoherent(cache, inodes):
    """Every way the cache disagrees with the live inodes, as strings."""
    problems = []
    for (ino, index), page in cache._pages.items():
        live = inodes[ino].data[index * PAGE:(index + 1) * PAGE]
        if page != live:
            problems.append(f"ino {ino} page {index}: cached "
                            f"{len(page)} B, live {len(live)} B")
    for ino, size in cache._sizes.items():
        if size != len(inodes[ino].data):
            problems.append(f"ino {ino}: cached size {size}, "
                            f"live {len(inodes[ino].data)}")
    return problems


def _check_script(world, operations):
    files = _Files(world)
    cache = world.anception.page_cache
    for step, op in enumerate(operations):
        try:
            files.apply(op)
        except SyscallError:
            pass
        problems = _incoherent(cache, files.inodes)
        assert not problems, (step, op, problems)


class TestCacheCoherence:
    @given(operations=_scripts)
    @settings(max_examples=150, deadline=None)
    def test_sync_cache_matches_live_bytes(self, operations):
        _check_script(AnceptionWorld(read_cache=True, cache_pages=16),
                      operations)

    @given(operations=_scripts)
    @settings(max_examples=150, deadline=None)
    def test_async_cache_matches_live_bytes(self, operations):
        _check_script(AnceptionWorld(read_cache=True, cache_pages=16,
                                     async_delegation=True),
                      operations)

    def test_growing_pwrite_refreshes_the_short_tail_page(self):
        # The old tail page is outside the written range; skipping it
        # leaves a 1994-byte page where the grown file has 4096.
        _check_script(
            AnceptionWorld(read_cache=True, cache_pages=16),
            [("ftruncate", 0, 1994), ("pread", 0, 0, 100),
             ("pwrite", 0, PAGE + 10, 100), ("pread", 0, 0, PAGE)],
        )

    def test_sendfile_into_a_cached_file_refreshes_it(self):
        _check_script(
            AnceptionWorld(read_cache=True, cache_pages=16),
            [("pwrite", 0, 0, PAGE), ("pread", 0, 0, 8),
             ("pwrite", 1, 0, PAGE), ("sendfile", 0, 0, PAGE)],
        )
