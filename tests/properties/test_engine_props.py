"""Hot-path rebuild properties: the fast engine is the same engine.

The slotted/fast-pathed hot path is a pure host-side speedup, so two
families of properties pin it:

* **Seed-world equivalence** — the simulated behavior of every gated
  workload (fileops/batchio/writeburst/fleet, at 1 and 4 CVMs) is
  digested as (elapsed sim ns, charge count, sha256 of the charge
  stream a bus capture records) and compared against the digests captured on the
  pre-rebuild engine.  Any drift — one extra charge, one nanosecond, one
  reordered reason string — fails; zero-copy buffers and dormant fast
  paths must be invisible to simulated time.  ``STEADY_DIGESTS`` pins
  the bus-counted steady-state census (syscalls and simulated ns of one
  replay after a warm-up) of the three micro-burst workloads.
* **Wire ownership** — every synchronous submit's wire is a fresh
  buffer that only its ring descriptor refers to: no two calls share
  one, rendering a later call never changes an earlier wire, and a
  window of them pops off the ring as the very buffers pushed.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.sqlite import Database
from repro.core.channel import AnceptionChannel
from repro.core.marshal import marshal_call, marshal_call_into, zeros
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.runner import TRACE_WORKLOADS, _iterate, boot_obs_world
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
    # Captured on the host binder crossing before it was flattened.
    ("ui", 1): (25743722, 123, "47ece0a821d1c7c7"),
    ("ui", 4): (25743722, 123, "47ece0a821d1c7c7"),
}


def _boot(workload, cvms=1):
    """The seed world; only binderburst turns the binder ring on."""
    return boot_obs_world(read_cache=True, async_delegation=True,
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
    for workload in ("fileops", "batchio", "writeburst", "binderburst",
                     "ui"):
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
    world, ctx = boot_obs_world(read_cache=True, async_delegation=True)
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


# -- wire ownership -----------------------------------------------------------

_ARGS = st.lists(
    st.one_of(
        st.integers(min_value=-2**31, max_value=2**31),
        st.binary(max_size=256),
        st.binary(max_size=64).map(memoryview),
        st.text(max_size=16),
    ),
    max_size=4,
).map(tuple)

_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["write", "pwrite64", "read", "open", "fstat",
                         "lseek"]),
        _ARGS,
        st.dictionaries(st.sampled_from(["flags", "mode"]),
                        st.integers(min_value=0, max_value=0o777),
                        max_size=2),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=50, deadline=None)
@given(calls=_CALLS)
def test_each_wire_is_owned_and_survives_its_window(calls):
    """Every synchronous wire is its own buffer, untouched until it pops.

    Each ``marshal_call_into`` wire is a distinct object holding exactly
    ``marshal_call``'s bytes; rendering the later calls of the window
    changes none of the earlier wires; and the window, pushed onto a
    dormant ring, pops with every payload the very buffer that was
    pushed, its bytes unchanged.
    """
    machine = Machine(total_mb=64)
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    channel = AnceptionChannel(hypervisor, machine.costs, num_pages=4)
    ring = channel.submit_ring
    assert machine.clock.faults is None and machine.clock.dormant
    wires, rendered = [], []
    for name, args, kwargs in calls:
        wire, size = marshal_call_into(name, args, kwargs)
        assert (bytes(wire), size) == marshal_call(name, args, kwargs)
        wires.append(wire)
        rendered.append(bytes(wire))
    assert len({id(wire) for wire in wires}) == len(wires)
    assert [bytes(wire) for wire in wires] == rendered
    seqs = [ring.push(name, wire)
            for (name, _args, _kwargs), wire in zip(calls, wires)]
    for seq, wire, expected in zip(seqs, wires, rendered):
        descriptor = ring.pop()
        assert descriptor.seq == seq
        assert descriptor.payload is wire
        assert bytes(descriptor.payload) == expected
    assert ring.pop() is None
    assert channel.integrity_failures == 0


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(min_value=0, max_value=40_000),
                        min_size=1, max_size=8))
def test_zeros_views_are_zero_and_sized(lengths):
    for length in lengths:
        view = zeros(length)
        assert view.nbytes == length
        assert not any(bytes(view))
