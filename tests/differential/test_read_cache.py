"""Read-cache transparency: cache-on == cache-off == native.

The page cache is a pure latency optimisation; these tests pin the
correctness half of that claim.  The same op script runs native, with
the classic every-read-delegates layer, and with the cache enabled —
outcomes (results *and* errnos) and final VFS trees must be identical.
The chaos half replays the ``cache.stale`` / ``cache.evict`` sites and
proves the invalidate-and-refetch recovery is invisible to the app and
byte-for-byte deterministic.
"""

from repro.android.app import App, AppManifest
from repro.faults.chaos import chaos_report_json, run_chaos
from repro.kernel import vfs
from repro.world import AnceptionWorld, NativeWorld

from tests.differential.harness import (
    H,
    P,
    data_kernel,
    run_script,
    vfs_tree,
)


class CacheDiffApp(App):
    manifest = AppManifest(
        "com.diff.cache",
        permissions=("INTERNET",),
        initial_data={"seed.txt": b"identical-seed"},
    )

    def main(self, ctx):
        return {"ok": True}


TRUNC = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC

READ_HEAVY_SCRIPT = [
    ("open", P("hot.bin"), TRUNC, 0o644),
    ("write", H(0), b"A" * 4096),
    ("write", H(0), b"B" * 4096),
    ("pread", H(0), 4096, 0),        # cold miss, fills + read-ahead
    ("pread", H(0), 4096, 0),        # warm hit
    ("pread", H(0), 4096, 4096),     # read-ahead page, warm
    ("pread", H(0), 200, 4000),      # spans the page boundary
    ("pwrite", H(0), b"PATCH", 10),  # write-through
    ("pread", H(0), 32, 0),          # must see the patch
    ("lseek", H(0), 0, 0),
    ("read", H(0), 4096),            # sequential via shared offset
    ("read", H(0), 4096),
    ("ftruncate", H(0), 100),        # shrink under the cache
    ("pread", H(0), 4096, 0),        # EOF-clamped to 100 bytes
    ("pread", H(0), 64, 4096),       # read past EOF: empty
    ("fstat", H(0)),
    ("close", H(0)),
    ("unlink", P("hot.bin")),        # path invalidation
    ("open", P("hot.bin"), TRUNC, 0o644),
    ("write", H(18), b"N" * 512),
    ("pread", H(18), 512, 0),        # must be the new bytes
    ("open", P("src.bin"), TRUNC, 0o644),
    ("write", H(21), b"S" * 600),
    ("sendfile", H(18), H(21), 0, 600),  # grows the cached file
    ("pread", H(18), 1200, 0),       # must see the sent bytes
    ("close", H(21)),
    ("close", H(18)),
    ("read_file", P("seed.txt")),
]


def _run_in(world, script):
    running = world.install_and_launch(CacheDiffApp())
    running.run()
    ctx = running.ctx
    outcomes = run_script(ctx, script)
    return outcomes, vfs_tree(data_kernel(world), ctx.data_dir)


class TestThreeWayIdentity:
    def test_read_heavy_script_identical_everywhere(self):
        native = _run_in(NativeWorld(), READ_HEAVY_SCRIPT)
        cache_off = _run_in(AnceptionWorld(), READ_HEAVY_SCRIPT)
        cache_on = _run_in(
            AnceptionWorld(read_cache=True), READ_HEAVY_SCRIPT
        )
        assert cache_on[0] == cache_off[0] == native[0], \
            "outcome streams diverge"
        assert cache_on[1] == cache_off[1] == native[1], \
            "final VFS state diverges"

    def test_sendfile_into_a_cached_file_identical_everywhere(self):
        # sendfile mutates its out_fd like a write: a warm page of the
        # output file must not outlive it.
        script = [
            ("open", P("out.bin"), TRUNC, 0o644),
            ("open", P("in.bin"), TRUNC, 0o644),
            ("pwrite", H(0), b"A" * 4096, 0),
            ("write", H(1), b"B" * 4096),
            ("pread", H(0), 8, 0),           # warms the output file
            ("sendfile", H(0), H(1), 0, 4096),
            ("pread", H(0), 8, 0),
            ("close", H(1)),
            ("close", H(0)),
        ]
        native = _run_in(NativeWorld(), script)
        cache_off = _run_in(AnceptionWorld(), script)
        cache_on = _run_in(AnceptionWorld(read_cache=True), script)
        assert native[0][6] == (6, "pread", "ok", b"B" * 8)
        assert cache_on == cache_off == native

    def test_tiny_cache_thrash_is_still_identical(self):
        # A 2-page cache under a 4-page working set evicts constantly;
        # eviction must never change what a read returns.
        script = [("open", P("thrash.bin"), TRUNC, 0o644)]
        script += [("write", H(0), bytes([0x50 + i]) * 4096)
                   for i in range(4)]
        script += [("pread", H(0), 4096, 4096 * (i % 4))
                   for i in range(12)]
        script += [("close", H(0))]
        cache_off = _run_in(AnceptionWorld(), script)
        cache_on = _run_in(
            AnceptionWorld(read_cache=True, cache_pages=2), script
        )
        assert cache_on == cache_off

    def test_fd_translated_metadata_calls_identical(self):
        # The fd-first marshalling sweep: every call here carries a host
        # fd in args[0] that must be rewritten to the proxy's fd.
        script = [
            ("open", P("meta.bin"), TRUNC, 0o600),
            ("write", H(0), b"m" * 4096),
            ("ftruncate", H(0), 1000),
            ("fstat", H(0)),
            ("fchmod", H(0), 0o640),
            ("fstat", H(0)),
            ("fdatasync", H(0)),
            ("pread", H(0), 100, 950),
            ("close", H(0)),
            ("stat", P("meta.bin")),
        ]
        native = _run_in(NativeWorld(), script)
        redirected = _run_in(AnceptionWorld(read_cache=True), script)
        assert native == redirected

    def test_fchown_requires_root_in_both_worlds(self):
        # Unprivileged fchown must fail with the same errno either way.
        script = [
            ("open", P("own.bin"), TRUNC, 0o600),
            ("fchown", H(0), 4242, 4242),
            ("fstat", H(0)),
            ("close", H(0)),
        ]
        native = _run_in(NativeWorld(), script)
        redirected = _run_in(AnceptionWorld(read_cache=True), script)
        assert native == redirected
        assert native[0][1][2] == "errno"
        assert native[0][1][3] == "EPERM"


STALE_PLAN = "cache.stale:every=2:call=pread64;cache.evict:nth=3"


def _chaos_probe(ctx):
    """A read-heavy stream the cache-fault sites can strike."""
    fd = ctx.libc.open(ctx.data_path("prey.bin"), TRUNC, 0o644)
    for i in range(4):
        ctx.libc.write(fd, bytes([0x60 + i]) * 4096)
    results = []
    for i in range(8):
        results.append(ctx.libc.pread(fd, 4096, 4096 * (i % 4)))
    ctx.libc.close(fd)
    return results


class TestChaosReplay:
    def test_stale_faults_are_invisible_to_the_app(self):
        # Under cache.stale/cache.evict fire, every read still returns
        # exactly what a clean cache-off world returns.
        def capture(ctx):
            capture.results = _chaos_probe(ctx)

        chaotic = run_chaos(capture, seed=5, faults=STALE_PLAN,
                            read_cache=True)
        assert chaotic.status == "ok"
        fired = chaotic.faults["fired_by_site"]
        assert fired.get("cache.stale", 0) >= 1
        assert any(entry[0] == "cache-invalidate"
                   for entry in chaotic.recovery_log)
        chaotic_results = capture.results

        clean = run_chaos(capture, seed=5, faults="cache.stale:nth=999",
                          read_cache=False)
        assert clean.status == "ok"
        assert chaotic_results == capture.results

    def test_chaos_replay_is_byte_identical(self):
        def probe(ctx):
            _chaos_probe(ctx)

        first = run_chaos(probe, seed=11, faults=STALE_PLAN,
                          read_cache=True)
        second = run_chaos(probe, seed=11, faults=STALE_PLAN,
                          read_cache=True)
        assert chaos_report_json(first) == chaos_report_json(second)
