"""Hot-path rebuild properties: the fast engine is the same engine.

The slab-pooled/slotted/fast-pathed hot path (PR 9) is a pure host-side
speedup, so two families of properties pin it:

* **Seed-world equivalence** — the simulated behavior of every gated
  workload (fileops/batchio/writeburst/fleet, at 1 and 4 CVMs) is
  digested as (elapsed sim ns, charge count, sha256 of the charge
  stream a bus capture records) and compared against the digests captured on the
  pre-rebuild engine.  Any drift — one extra charge, one nanosecond, one
  reordered reason string — fails; zero-copy buffers and dormant fast
  paths must be invisible to simulated time.  ``STEADY_DIGESTS`` pins
  the bus-counted steady-state census (syscalls and simulated ns of one
  replay after a warm-up) of the three micro-burst workloads.
* **Slab aliasing safety** — a recycled slab releases every exported
  view, so a reference held past its window raises ``ValueError``
  instead of silently observing recycled bytes, across arbitrary
  acquire/view/recycle interleavings.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.sqlite import Database
from repro.kernel.process import Credentials
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.runner import TRACE_WORKLOADS, _iterate, boot_obs_world
from repro.perf.slab import DEFAULT_SLAB_BYTES, SlabPool, zeros
from repro.perf.sqlite_bench import _SqliteBenchApp
from repro.workloads.antutu import DatabaseIOWorkload
from repro.world import AnceptionWorld

from tests.differential.harness import data_kernel


# Captured on the pre-rebuild (seed) engine with _digest() below; the
# rebuilt hot path must reproduce every field exactly.
SEED_DIGESTS = {
    ("fileops", 1): (15832016, 802, "6e2cfeacc126ffc4"),
    ("fileops", 4): (15832016, 802, "15dc1f010b38cb48"),
    ("batchio", 1): (15720002, 2320, "19d2fe5ee656f1c3"),
    ("batchio", 4): (15720002, 2320, "96dc91844dcdcaef"),
    ("writeburst", 1): (12300804, 1776, "3b8910aa670330ba"),
    ("writeburst", 4): (12300804, 1776, "d7a4c4394c4cc041"),
    ("fleet", 1): (19230263208, 30336, "0220113bb1ba74a9"),
    ("fleet", 4): (19230263208, 30336, "351c133f39302be6"),
    # Captured on the two-copy window code, before write-behind and the
    # binder ring became one DeferredWindows primitive.
    ("binderburst", 1): (495566086, 659, "a9556aafbb57f939"),
    ("binderburst", 4): (495566086, 659, "a9556aafbb57f939"),
}


def _boot(workload, cvms=1):
    """The seed world; only binderburst turns the binder ring on."""
    return boot_obs_world(read_cache=True, write_behind=True,
                          binder_ring=workload == "binderburst", cvms=cvms)


def _digest(workload, cvms):
    """(elapsed sim ns, charge count, charge-stream sha) for a workload.

    Two captured steady-state iterations (after one warm-up inside
    ``boot_obs_world``'s fresh world) for the app workloads; the fleet
    driver runs once against the whole world.  A bus capture is open for
    the whole window, so the digest covers the *instrumented* code path —
    the one the dormant fast paths must never diverge from.
    """
    world, ctx = _boot(workload, cvms)
    fn = TRACE_WORKLOADS[workload]
    clock = world.clock
    with TraceBus.install(clock).capture() as capture:
        start = clock.now_ns
        if getattr(fn, "needs_world", False):
            fn(world)
        else:
            _iterate(ctx, workload, 1)
            _iterate(ctx, workload, 1)
        elapsed = clock.now_ns - start
    charges = capture.charges()
    sha = hashlib.sha256(repr(charges).encode()).hexdigest()[:16]
    return elapsed, len(charges), sha


@pytest.mark.parametrize(("workload", "cvms"), sorted(SEED_DIGESTS))
def test_sim_digest_matches_seed_world(workload, cvms):
    assert _digest(workload, cvms) == SEED_DIGESTS[(workload, cvms)]


def test_dormant_run_elapses_identical_sim_time():
    """The untraced (fast-path) run charges the same simulated time.

    The charge *stream* only exists under a bus capture, but elapsed simulated
    time is observable either way — the dormant integer-add fast paths
    must land on the same nanosecond as the instrumented walk.
    """
    for workload in ("fileops", "batchio", "writeburst", "binderburst"):
        world, ctx = _boot(workload)
        start = world.clock.now_ns
        _iterate(ctx, workload, 1)
        _iterate(ctx, workload, 1)
        elapsed = world.clock.now_ns - start
        assert elapsed == SEED_DIGESTS[(workload, 1)][0], workload


# (syscalls per iteration, simulated ns per iteration) of one steady-state
# iteration: after one warm-up replay, a further replay counted under a
# bus capture.  SEED_DIGESTS covers two traced iterations instead, so
# this is a different stream; the values were captured on the engine
# benchmark harness this census replaced.
STEADY_DIGESTS = {
    "fileops": (67, 8_024_135),
    "batchio": (145, 7_860_001),
    "writeburst": (136, 6_150_402),
}


def _steady_census(workload):
    world, ctx = boot_obs_world(read_cache=True, write_behind=True)
    _iterate(ctx, workload, 1)
    metrics = MetricsRegistry()
    bus = TraceBus.install(world.clock)
    bus.subscribe(metrics.observe_record)
    try:
        with bus.capture():
            start = world.clock.now_ns
            _iterate(ctx, workload, 1)
            sim_ns = world.clock.now_ns - start
    finally:
        bus.unsubscribe(metrics.observe_record)
    return metrics.syscalls_total.total(), sim_ns


@pytest.mark.parametrize("workload", sorted(STEADY_DIGESTS))
def test_steady_state_census_matches_pin(workload):
    assert _steady_census(workload) == STEADY_DIGESTS[workload]


# -- app-level stream: UI frames, app compute, sqlite rows ---------------------

# Captured with _app_digest() below before the UI frame, compute and
# sqlite row paths were flattened; no SEED_DIGESTS workload reaches them.
APP_STREAM_DIGEST = (50343848, 881, "292c3a1d7168fe59")


def _app_stream(ctx):
    """One window, 50 frames interleaved with compute, 500 sqlite rows."""
    ctx.create_window("pin")
    for index in range(50):
        ctx.submit_frame(bytes([index]) * 64)
        ctx.compute(100 + index)
    db = Database(ctx.libc, ctx.data_path("pin.db"))
    db.create_table("rows")
    db.begin()
    for index in range(500):
        db.insert("rows", index.to_bytes(2, "little") * 13)
    db.commit()
    db.checkpoint()
    db.close()


def _app_digest(traced):
    """(elapsed sim ns, charge count, charge-stream sha) of the stream.

    Untraced runs report only the elapsed time: the charge stream exists
    only under a bus capture.
    """
    world, ctx = boot_obs_world()
    clock = world.clock
    start = clock.now_ns
    if not traced:
        _app_stream(ctx)
        return clock.now_ns - start
    with TraceBus.install(clock).capture() as capture:
        _app_stream(ctx)
    elapsed = clock.now_ns - start
    charges = capture.charges()
    sha = hashlib.sha256(repr(charges).encode()).hexdigest()[:16]
    return elapsed, len(charges), sha


def test_app_stream_digest_matches_pin():
    assert _app_digest(traced=True) == APP_STREAM_DIGEST


def test_dormant_app_stream_elapses_identical_sim_time():
    assert _app_digest(traced=False) == APP_STREAM_DIGEST[0]


# -- sqlite file bytes ----------------------------------------------------------

# (size, blake2b-128) of the database file each app leaves behind in the
# paper configuration, captured before the sqlite tail cursor: E4's
# 10,000-row transaction after its checkpoint, and AnTuTu's DatabaseIO
# test (eight checkpointed 500-row transactions and a full scan).
DB_FILE_DIGESTS = {
    "e4_sqlite": (286720, "c887de7d76c3e8f272671c0d88d404c3"),
    "antutu_db": (126976, "061a0069f6ff48ef83c30fac192d6903"),
}


def _db_file_digest(app, name):
    world = AnceptionWorld()
    running = world.install_and_launch(app)
    running.run()
    path = running.ctx.data_path(name)
    data = bytes(data_kernel(world).vfs.resolve(path, Credentials(0)).data)
    return len(data), hashlib.blake2b(data, digest_size=16).hexdigest()


def test_e4_sqlite_file_digest_matches_pin():
    assert _db_file_digest(_SqliteBenchApp(), "bench.db") \
        == DB_FILE_DIGESTS["e4_sqlite"]


def test_antutu_db_file_digest_matches_pin():
    assert _db_file_digest(DatabaseIOWorkload(), "antutu.db") \
        == DB_FILE_DIGESTS["antutu_db"]


# -- slab-pool reuse / aliasing safety ----------------------------------------

_SLAB_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DEFAULT_SLAB_BYTES + 512),
        st.binary(min_size=0, max_size=64),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=50, deadline=None)
@given(ops=_SLAB_OPS, pool_free=st.integers(min_value=1, max_value=4))
def test_recycled_views_never_observe_reuse(ops, pool_free):
    """No live memoryview ever reads a recycled slab's bytes.

    Random acquire/render/view/recycle interleavings: every view taken
    before a recycle must raise ``ValueError`` afterwards (released,
    not aliased), and views over a reused slab must read back exactly
    the bytes rendered for *this* window, never a predecessor's.
    """
    pool = SlabPool(max_free=pool_free)
    dead_views = []
    for size, payload in ops:
        slab = pool.acquire(size)
        assert len(slab.buf) >= size
        fill = (payload * (size // max(len(payload), 1) + 1))[:size] \
            if payload else bytes(size)
        slab.buf[:size] = fill
        view = pool.view(slab, size)
        assert view.obj is slab.buf  # zero-copy: a window, not a copy
        assert bytes(view) == fill
        pool.recycle(slab)
        dead_views.append(view)
        for stale in dead_views:
            with pytest.raises(ValueError):
                stale.tobytes()
    assert pool.recycled == len(ops)
    assert len(pool._free) <= pool_free


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(min_value=0, max_value=DEFAULT_SLAB_BYTES),
                        min_size=1, max_size=8))
def test_zeros_views_are_zero_and_sized(lengths):
    for length in lengths:
        view = zeros(length)
        assert view.nbytes == length
        assert not any(bytes(view))


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=256),
                      min_size=2, max_size=8))
def test_concurrent_windows_never_share_a_slab(sizes):
    """Slabs acquired while others are live are distinct buffers."""
    pool = SlabPool()
    live = [pool.acquire(size) for size in sizes]
    bufs = {id(slab.buf) for slab in live}
    assert len(bufs) == len(live)
    for slab in live:
        pool.recycle(slab)
