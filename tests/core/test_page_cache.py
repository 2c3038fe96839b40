"""The host-side page cache for delegated reads (repro.core.page_cache).

Unit tests pin the page arithmetic (tail pages, all-or-nothing lookup,
LRU eviction, write-through refresh); layer tests pin the contract the
delegation layer relies on — a warm hit costs ``cache_hit_ns`` and rings
no doorbell, a cold miss is byte- and nanosecond-identical to the
classic redirect, and every mutation path invalidates before the next
lookup can run.
"""

import pytest

from repro.android.app import App, AppManifest
from repro.core.page_cache import HostPageCache
from repro.kernel import vfs
from repro.perf.costs import PAGE_SIZE
from repro.world import AnceptionWorld


PAGE = PAGE_SIZE
WINDOW = 8 * PAGE


class CacheApp(App):
    manifest = AppManifest("com.cache.probe", permissions=("INTERNET",))

    def main(self, ctx):
        return {"ok": True}


@pytest.fixture
def cache_world():
    return AnceptionWorld(read_cache=True)


@pytest.fixture
def cache_ctx(cache_world):
    running = cache_world.install_and_launch(CacheApp())
    running.run()
    return running.ctx


def _stage(ctx, name, pages, fill=None):
    """Create a file of ``pages`` distinct 4096B pages; return its fd."""
    fd = ctx.libc.open(
        ctx.data_path(name), vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC
    )
    for i in range(pages):
        block = fill if fill is not None else bytes([0x41 + i]) * PAGE
        ctx.libc.write(fd, block)
    return fd


class TestUnitFillAndLookup:
    def test_miss_until_filled_then_exact_bytes(self):
        cache = HostPageCache()
        data = bytes(range(256)) * 32  # 8192 B, two pages
        assert cache.lookup(7, 0, PAGE) is None
        assert cache.misses == 1
        cache.fill_window(7, data, 0, PAGE, WINDOW)
        assert cache.lookup(7, 0, PAGE) == data[:PAGE]
        assert cache.lookup(7, 100, 300) == data[100:400]
        assert cache.hits == 2

    def test_lookup_spanning_pages_and_short_tail(self):
        cache = HostPageCache()
        data = b"x" * (PAGE + 100)  # tail page is 100 bytes
        cache.fill_window(5, data, 0, len(data), WINDOW)
        assert cache.lookup(5, PAGE - 50, 200) == data[PAGE - 50:PAGE + 150]
        # EOF-clamped: asking for more than exists returns what exists,
        # exactly like the CVM-side pread would.
        assert cache.lookup(5, PAGE, PAGE) == data[PAGE:]
        assert cache.lookup(5, len(data) + 10, PAGE) == b""

    def test_all_or_nothing_when_a_middle_page_is_cold(self):
        cache = HostPageCache()
        data = b"y" * (3 * PAGE)
        cache.fill_window(9, data, 0, 3 * PAGE, 0)
        cache.drop_range(9, PAGE, PAGE)  # page 1 gone
        assert cache.lookup(9, 0, 3 * PAGE) is None
        assert cache.lookup(9, 0, PAGE) == data[:PAGE]

    def test_readahead_is_window_bounded(self):
        cache = HostPageCache()
        data = b"z" * (32 * PAGE)
        demanded, ahead = cache.fill_window(3, data, 0, PAGE, WINDOW)
        assert demanded == 1
        assert ahead == WINDOW // PAGE
        # the last read-ahead page is warm; the one after it is cold
        assert cache.peek(3, (WINDOW // PAGE) * PAGE, PAGE) == b"z" * PAGE
        assert cache.lookup(3, (1 + WINDOW // PAGE) * PAGE, PAGE) is None

    def test_lru_evicts_oldest_page_first(self):
        cache = HostPageCache(max_pages=4)
        data = b"e" * (6 * PAGE)
        cache.fill_window(1, data, 0, 6 * PAGE, 0)
        assert len(cache) == 4
        assert cache.evicted_pages == 2
        # pages 0 and 1 were pushed out; 2..5 remain
        assert cache.lookup(1, 0, PAGE) is None
        assert cache.lookup(1, 2 * PAGE, PAGE) == b"e" * PAGE
        # touching page 2 protects it from the next eviction
        cache.fill_window(2, b"n" * PAGE, 0, PAGE, 0)
        assert cache.peek(1, 2 * PAGE, PAGE) is not None

    def test_refresh_updates_in_place_and_drops_truncated_tail(self):
        cache = HostPageCache()
        data = b"a" * (3 * PAGE)
        cache.fill_window(4, data, 0, 3 * PAGE, 0)
        shorter = b"b" * (PAGE + 10)
        touched = cache.refresh_ino(4, shorter)
        assert touched == 3
        assert cache.invalidated_pages == 1  # page 2 fell past EOF
        assert cache.lookup(4, 0, PAGE) == b"b" * PAGE
        assert cache.lookup(4, PAGE, PAGE) == b"b" * 10
        assert cache.lookup(4, 2 * PAGE, PAGE) == b""  # past new EOF

    def test_range_refresh_recopies_only_overlapping_cached_pages(self):
        cache = HostPageCache()
        data = bytearray(b"a" * (4 * PAGE))
        cache.fill_window(4, data, 0, 4 * PAGE, 0)
        data[PAGE + 10:PAGE + 20] = b"x" * 10
        assert cache.refresh_ino(4, data, PAGE + 10, 10) == 1
        assert cache.write_through_pages == 1
        assert cache.peek(4, PAGE, PAGE) == bytes(data[PAGE:2 * PAGE])
        # a zero-length write still names the page at its offset
        assert cache.refresh_ino(4, data, 3 * PAGE, 0) == 1

    def test_growing_range_refresh_adds_the_old_tail_page(self):
        cache = HostPageCache()
        data = bytearray(b"a" * (PAGE + 100))
        cache.fill_window(4, data, 0, PAGE, WINDOW)
        data.extend(b"\0" * (3 * PAGE - len(data)))
        data[2 * PAGE + 5:2 * PAGE + 9] = b"grow"
        # page 2 was never cached; page 1, the short old tail, was
        assert cache.refresh_ino(4, data, 2 * PAGE + 5, 4) == 1
        assert cache.peek(4, PAGE, PAGE) == bytes(data[PAGE:2 * PAGE])

    def test_shrinking_range_refresh_takes_the_whole_inode_path(self):
        cache = HostPageCache()
        cache.fill_window(4, b"a" * (3 * PAGE), 0, 3 * PAGE, 0)
        assert cache.refresh_ino(4, b"b" * 10, 0, 10) == 3
        assert cache.invalidated_pages == 2
        assert cache.lookup(4, 0, PAGE) == b"b" * 10

    def test_refresh_is_a_noop_for_unknown_inodes(self):
        cache = HostPageCache()
        assert cache.refresh_ino(99, b"whatever") == 0
        assert len(cache) == 0

    def test_invalidate_and_clear_forget_everything(self):
        cache = HostPageCache()
        cache.fill_window(1, b"q" * PAGE, 0, PAGE, 0)
        cache.fill_window(2, b"r" * PAGE, 0, PAGE, 0)
        assert cache.invalidate_ino(1) == 1
        assert not cache.knows(1)
        assert cache.knows(2)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not cache.knows(2)

    def test_stats_shape_and_hit_rate(self):
        cache = HostPageCache(max_pages=8)
        cache.fill_window(1, b"s" * PAGE, 0, PAGE, 0)
        cache.lookup(1, 0, PAGE)
        cache.lookup(1, PAGE, PAGE)  # b"" EOF hit
        cache.lookup(2, 0, PAGE)  # miss
        stats = cache.stats()
        assert stats["pages"] == 1
        assert stats["max_pages"] == 8
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == round(2 / 3, 4)

    def test_rejects_a_zero_page_cache(self):
        with pytest.raises(ValueError):
            HostPageCache(max_pages=0)


class TestNoAliasing:
    """Fills and write-throughs read the live file bytes, not a copy.

    The layer hands ``fill_window`` and ``refresh_ino`` the proxy-side
    inode's own ``bytearray``; the cache must copy each page it keeps,
    so a later in-place mutation of the file can only reach the cache
    through a refresh.
    """

    @staticmethod
    def _pages_are_bytes(cache):
        return all(type(page) is bytes for page in cache._pages.values())

    def test_fill_then_mutate_serves_the_filled_bytes(self):
        cache = HostPageCache()
        live = bytearray(b"a" * PAGE + b"b" * PAGE + b"c" * 100)
        assert cache.fill_window(5, live, 0, PAGE, WINDOW) == (1, 2)
        live[:] = b"z" * len(live)
        assert cache.lookup(5, 0, 2 * PAGE + 100) == \
            b"a" * PAGE + b"b" * PAGE + b"c" * 100
        assert self._pages_are_bytes(cache)

    def test_refresh_then_mutate_serves_the_refreshed_bytes(self):
        cache = HostPageCache()
        live = bytearray(b"a" * (2 * PAGE))
        cache.fill_window(5, live, 0, PAGE, WINDOW)
        live[PAGE:] = b"r" * PAGE
        assert cache.refresh_ino(5, live) == 2
        live[:] = b"z" * len(live)
        live.extend(b"tail")
        assert cache.lookup(5, 0, 3 * PAGE) == b"a" * PAGE + b"r" * PAGE
        assert self._pages_are_bytes(cache)

    def test_layer_fill_does_not_alias_the_proxy_inode(
            self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "alias.bin", 2)
        assert cache_ctx.libc.pread(fd, PAGE, 0) == b"A" * PAGE  # fill
        layer = cache_world.anception
        task = cache_ctx.task
        inode = layer._remote_file(task, fd).inode
        inode.data[:] = b"z" * len(inode.data)  # behind the cache's back
        assert cache_ctx.libc.pread(fd, PAGE, PAGE) == b"B" * PAGE
        assert self._pages_are_bytes(layer._lane(task).page_cache)
        cache_ctx.libc.close(fd)


class TestLayerColdAndWarm:
    def test_warm_pread_costs_cache_hit_not_a_ring_trip(
            self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "warm.bin", 2)
        clock = cache_ctx.kernel.clock
        costs = cache_world.machine.costs
        with clock.measure() as cold:
            first = cache_ctx.libc.pread(fd, PAGE, 0)
        with clock.measure() as warm:
            second = cache_ctx.libc.pread(fd, PAGE, 0)
        assert first == second == bytes([0x41]) * PAGE
        assert warm.elapsed_ns < cold.elapsed_ns / 10
        # warm = null-call floor + one page's cache-hit charge
        assert warm.elapsed_ns <= 2 * (
            costs.cache_hit_ns + costs.syscall_base_ns
        )
        cache_ctx.libc.close(fd)

    def test_warm_hit_rings_no_doorbell(self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "quiet.bin", 1)
        cache_ctx.libc.pread(fd, PAGE, 0)  # fill
        hypervisor = cache_world.anception.cvm.hypervisor
        irqs = hypervisor.interrupt_count
        hypercalls = hypervisor.hypercall_count
        cache_ctx.libc.pread(fd, PAGE, 0)  # warm
        assert hypervisor.interrupt_count == irqs
        assert hypervisor.hypercall_count == hypercalls
        cache_ctx.libc.close(fd)

    def test_cold_miss_is_nanosecond_identical_to_cache_off(self):
        def cold_read_ns(read_cache):
            world = AnceptionWorld(read_cache=read_cache)
            running = world.install_and_launch(CacheApp())
            running.run()
            ctx = running.ctx
            fd = _stage(ctx, "parity.bin", 4)
            with ctx.kernel.clock.measure() as span:
                data = ctx.libc.pread(fd, PAGE, 0)
            ctx.libc.close(fd)
            return span.elapsed_ns, data

        on_ns, on_data = cold_read_ns(True)
        off_ns, off_data = cold_read_ns(False)
        assert on_ns == off_ns
        assert on_data == off_data

    def test_readahead_makes_the_next_page_warm(
            self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "ahead.bin", 4)
        cache_ctx.libc.pread(fd, PAGE, 0)  # miss fills page 0 + window
        hypervisor = cache_world.anception.cvm.hypervisor
        irqs = hypervisor.interrupt_count
        assert cache_ctx.libc.pread(fd, PAGE, PAGE) == bytes([0x42]) * PAGE
        assert hypervisor.interrupt_count == irqs
        stats = cache_world.anception.page_cache.stats()
        assert stats["readahead_pages"] >= 3
        cache_ctx.libc.close(fd)

    def test_sequential_reads_advance_the_shared_offset(
            self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "seq.bin", 3)
        cache_ctx.libc.pread(fd, PAGE, 0)  # fill all three pages
        cache_ctx.libc.lseek(fd, 0)
        assert cache_ctx.libc.read(fd, PAGE) == bytes([0x41]) * PAGE
        assert cache_ctx.libc.read(fd, PAGE) == bytes([0x42]) * PAGE
        # lseek goes through the ring; the cache must keep serving the
        # post-seek position correctly.
        cache_ctx.libc.lseek(fd, 2 * PAGE)
        assert cache_ctx.libc.read(fd, PAGE) == bytes([0x43]) * PAGE
        cache_ctx.libc.close(fd)

    def test_warm_readv_serves_the_whole_vector(
            self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "vec.bin", 4)
        cache_ctx.libc.pread(fd, 4 * PAGE, 0)  # fill
        cache_ctx.libc.lseek(fd, 0)
        hypervisor = cache_world.anception.cvm.hypervisor
        irqs = hypervisor.interrupt_count
        chunks = cache_ctx.libc.readv(fd, [PAGE] * 4)
        assert hypervisor.interrupt_count == irqs
        assert chunks == [bytes([0x41 + i]) * PAGE for i in range(4)]
        cache_ctx.libc.close(fd)


class TestLayerCoherence:
    def test_write_through_updates_cached_bytes(self, cache_ctx):
        fd = _stage(cache_ctx, "wt.bin", 1)
        cache_ctx.libc.pread(fd, PAGE, 0)  # fill
        cache_ctx.libc.pwrite(fd, b"PATCH", 10)
        data = cache_ctx.libc.pread(fd, PAGE, 0)
        assert data[10:15] == b"PATCH"
        assert data[:10] == bytes([0x41]) * 10
        cache_ctx.libc.close(fd)

    def test_ftruncate_shrinks_what_the_cache_serves(self, cache_ctx):
        fd = _stage(cache_ctx, "trunc.bin", 2)
        cache_ctx.libc.pread(fd, 2 * PAGE, 0)  # fill both pages
        cache_ctx.libc.ftruncate(fd, 100)
        assert cache_ctx.libc.pread(fd, 2 * PAGE, 0) == bytes([0x41]) * 100
        cache_ctx.libc.close(fd)

    def test_unlink_then_recreate_never_serves_stale_pages(self, cache_ctx):
        fd = _stage(cache_ctx, "stale.bin", 1)
        cache_ctx.libc.pread(fd, PAGE, 0)  # fill
        cache_ctx.libc.close(fd)
        cache_ctx.libc.unlink(cache_ctx.data_path("stale.bin"))
        fd = _stage(cache_ctx, "stale.bin", 1, fill=b"N" * PAGE)
        assert cache_ctx.libc.pread(fd, PAGE, 0) == b"N" * PAGE
        cache_ctx.libc.close(fd)

    def test_o_trunc_reopen_refreshes_the_snapshot(self, cache_ctx):
        fd = _stage(cache_ctx, "retrunc.bin", 1)
        cache_ctx.libc.pread(fd, PAGE, 0)  # fill
        cache_ctx.libc.close(fd)
        fd = cache_ctx.libc.open(
            cache_ctx.data_path("retrunc.bin"),
            vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
        )
        cache_ctx.libc.write(fd, b"fresh")
        assert cache_ctx.libc.pread(fd, PAGE, 0) == b"fresh"
        cache_ctx.libc.close(fd)

    def test_cvm_reboot_drops_every_page(self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "reboot.bin", 2)
        cache_ctx.libc.pread(fd, PAGE, 0)
        cache = cache_world.anception.page_cache
        assert len(cache) > 0
        cache_world.anception.reboot_cvm()
        assert len(cache) == 0
        assert not cache._sizes

    def test_stats_surface_through_the_layer(self, cache_world, cache_ctx):
        fd = _stage(cache_ctx, "stats.bin", 1)
        cache_ctx.libc.pread(fd, PAGE, 0)
        cache_ctx.libc.pread(fd, PAGE, 0)
        cache_ctx.libc.close(fd)
        stats = cache_world.anception.stats()["read_cache"]
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_cache_off_layer_reports_none(self, anception_world):
        assert anception_world.anception.page_cache is None
        assert anception_world.anception.stats()["read_cache"] is None
