"""Write-through budget: how many cached pages a mutation re-copies.

The page cache's write-through cost is deterministic work, so it is
pinned as a count rather than timed: ``write_through_pages`` is the
number of cached pages a mutation re-snapshotted.  On a file with 32
cached pages, a ``pwrite64`` re-copies only the cached pages it wrote,
plus the old tail page when it grew the file; ``write`` and
``ftruncate`` still re-snapshot the whole inode.  A return to
whole-file re-copies for positional writes fails here as a perf
regression.  Each case runs with synchronous delegation and with
write-behind, where the refresh happens when the window drains.
"""

import pytest

from repro.kernel import vfs
from repro.perf.costs import PAGE_SIZE
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


PAGE = PAGE_SIZE
CACHED = 32


@pytest.fixture(params=["sync", "write-behind"])
def warm(request):
    """(libc, fd, cache) for a file of 32 pages, every page cached."""
    world = AnceptionWorld(read_cache=True,
                           async_delegation=request.param == "write-behind")
    running = world.install_and_launch(ScratchApp())
    running.run()
    libc = running.ctx.libc
    fd = libc.open(running.ctx.data_path("budget.bin"),
                   vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC, 0o644)
    for page in range(CACHED):
        libc.write(fd, b"w" * (PAGE if page < CACHED - 1 else PAGE - 2000))
    cache = world.anception.page_cache
    for page in range(CACHED):
        libc.pread(fd, PAGE, page * PAGE)
    assert len(cache) == CACHED
    return libc, fd, cache


def _recopied(warm, call, *args):
    libc, fd, cache = warm
    before = cache.write_through_pages
    getattr(libc, call)(fd, *args)
    libc.fence(fd)
    return cache.write_through_pages - before


def _pin(got, want, what):
    assert got == want, (
        f"write-through perf regression: {what} re-copied {got} cached "
        f"pages, budget {want}")


def test_aligned_pwrite_recopies_one_page(warm):
    _pin(_recopied(warm, "pwrite", b"a" * PAGE, 5 * PAGE), 1,
         "aligned 4 KB pwrite64")


def test_unaligned_pwrite_recopies_two_pages(warm):
    _pin(_recopied(warm, "pwrite", b"u" * PAGE, 5 * PAGE + 100), 2,
         "unaligned 4 KB pwrite64")


def test_growing_pwrite_adds_the_old_tail_page(warm):
    # Past EOF: its own pages were never cached, the short tail was.
    _pin(_recopied(warm, "pwrite", b"g" * 100, (CACHED + 2) * PAGE), 1,
         "pwrite64 past EOF")
    cache = warm[2]
    (ino,) = {ino for ino, _page in cache._pages}
    assert cache.peek(ino, (CACHED - 1) * PAGE, PAGE) \
        == b"w" * (PAGE - 2000) + b"\0" * 2000


def test_growing_pwrite_over_the_tail_counts_it_once(warm):
    _pin(_recopied(warm, "pwrite", b"t" * (2 * PAGE), (CACHED - 2) * PAGE),
         2, "pwrite64 over the tail page")


def test_write_recopies_every_cached_page(warm):
    libc, fd, _cache = warm
    libc.lseek(fd, 5 * PAGE)
    _pin(_recopied(warm, "write", b"s" * PAGE), CACHED, "4 KB write")


def test_ftruncate_recopies_every_cached_page(warm):
    _pin(_recopied(warm, "ftruncate", CACHED * PAGE), CACHED,
         "growing ftruncate")
