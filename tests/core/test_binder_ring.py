"""Batched binder delegation: windows, fences, and the deferred ledger.

These pin the tentpole's contract points: staging is invisible in an
unfaulted run, a full window drains itself behind one doorbell pair, a
reply-carrying call fences every staged oneway first, a deferred
delivery errno surfaces exactly once at the right barrier, the oneway
lane swallows service-side errors in every mode, large parcels ride
the bulk-copy path, and a CVM reboot clears every staged remnant.
"""

import errno

import pytest

from repro.android.app import App, AppManifest
from repro.android.binder import Transaction
from repro.core.anception import BINDER_RING_DEPTH
from repro.core.marshal import encoded_size
from repro.core.recovery import RecoveryLog
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.world import AnceptionWorld

from tests.recorders import record_deliveries


class RingApp(App):
    manifest = AppManifest("com.test.binderring")

    def main(self, ctx):
        return {"ok": True}


@pytest.fixture
def ring_world():
    return AnceptionWorld(binder_ring=True)


@pytest.fixture
def ring_ctx(ring_world):
    running = ring_world.install_and_launch(RingApp())
    running.run()
    return running.ctx


def _arm(world, plan):
    engine = FaultEngine(FaultPlan.parse(plan), seed=0)
    engine.arm(world.clock)
    return engine


def _doorbells(anception):
    stats = anception.channel.stats()
    return stats["hypercalls"] + stats["interrupts"]


class TestOptIn:
    def test_library_default_is_off(self):
        world = AnceptionWorld()
        assert world.anception.binder_ring is None
        assert world.anception.stats()["binder_ring"] is None

    def test_depth_defaults_and_override(self):
        default = AnceptionWorld(binder_ring=True)
        assert default.anception.binder_ring.depth == min(
            BINDER_RING_DEPTH, default.anception.channel.ring_depth
        )
        shallow = AnceptionWorld(binder_ring=True, binder_ring_depth=3)
        assert shallow.anception.binder_ring.depth == 3

    def test_off_means_sync_forwarding(self, monkeypatch):
        world = AnceptionWorld()
        running = world.install_and_launch(RingApp())
        running.run()
        ctx = running.ctx
        deliveries = record_deliveries(monkeypatch)
        assert ctx.call_service_oneway("location", "get_fix", {}) is None
        # Nothing staged anywhere: the call already executed in the CVM.
        assert len(deliveries.on(world.anception.cvm.kernel)) == 1


class TestStaging:
    def test_oneway_returns_optimistic_none(self, ring_world, ring_ctx):
        assert ring_ctx.call_service_oneway(
            "location", "get_fix", {}) is None
        ring = ring_world.anception.binder_ring
        assert ring.enqueued == 1
        assert ring.stats()["pending"] == 1
        assert ring.drains == 0

    def test_staged_oneway_has_not_reached_the_service(
            self, ring_world, ring_ctx, monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        ring_ctx.call_service_oneway("power", "acquire_wakelock", {})
        assert deliveries == []
        ring_world.anception.async_fence(ring_ctx.libc.task)
        assert [entry[2:] for entry in deliveries] == [
            ("power", "acquire_wakelock")]

    def test_full_window_drains_itself(self, ring_world):
        world = AnceptionWorld(binder_ring=True, binder_ring_depth=4)
        running = world.install_and_launch(RingApp())
        running.run()
        ctx = running.ctx
        ring = world.anception.binder_ring
        for _ in range(4):
            ctx.call_service_oneway("location", "get_fix", {})
        assert ring.drains == 0
        ctx.call_service_oneway("location", "get_fix", {})
        # The fifth enqueue hit the depth bound: the first four drained
        # as one window and the fifth is now staged alone.
        assert ring.drains == 1
        assert ring.stats()["pending"] == 1
        assert ring.max_depth_seen == 4

    def test_window_rides_one_doorbell_pair(self, ring_world, ring_ctx):
        anception = ring_world.anception
        for _ in range(8):
            ring_ctx.call_service_oneway("location", "get_fix", {})
        before = _doorbells(anception)
        anception.async_fence(ring_ctx.libc.task)
        after = _doorbells(anception)
        # Eight staged transactions drained for (far) fewer doorbells
        # than eight per-call round trips (2 per call = 16).
        assert 0 < after - before <= 4
        assert anception.channel.stats()["submit_ring"]["binder_pushed"] == 8

    def test_payload_snapshot_at_enqueue(self, ring_world, ring_ctx):
        payload = {"tag": "before"}
        ring_ctx.call_service_oneway("power", "acquire_wakelock", payload)
        payload["tag"] = "after"
        ring_world.anception.async_fence(ring_ctx.libc.task)
        service = ring_world.anception.cvm.android.service("power")
        pid = ring_world.anception.proxies.proxy_for(
            ring_ctx.libc.task).pid
        assert (pid, "before") in service.wakelocks

    def test_missing_target_raises_at_call_site(self, ring_world, ring_ctx):
        with pytest.raises(SyscallError) as exc:
            ring_ctx.call_service_oneway("nosuchservice", "m", {})
        assert exc.value.errno == errno.ENOENT
        assert ring_world.anception.binder_ring.enqueued == 0

    def test_service_side_error_is_swallowed(self, ring_world, ring_ctx):
        assert ring_ctx.call_service_oneway(
            "location", "no_such_method", {}) is None
        ring_world.anception.async_fence(ring_ctx.libc.task)
        driver = ring_world.anception.cvm.android.binder_driver
        assert driver.oneway_errors == 1
        # No delivery error is ledgered: the transaction WAS delivered.
        assert ring_world.anception.binder_ring.deferred_errors == 0


class TestFences:
    def test_sync_call_fences_staged_oneways_first(
            self, ring_world, ring_ctx, monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        for _ in range(3):
            ring_ctx.call_service_oneway("location", "get_fix", {})
        ring_ctx.call_service("power", "acquire_wakelock", {})
        log = [(target, method) for _pid, target, method
               in deliveries.on(ring_world.anception.cvm.kernel)]
        assert log == [("location", "get_fix")] * 3 + [
            ("power", "acquire_wakelock")
        ]
        assert ring_world.anception.binder_ring.stats()["pending"] == 0

    def test_explicit_fence_settles_the_lane(self, ring_world, ring_ctx):
        ring_ctx.call_service_oneway("location", "get_fix", {})
        assert ring_ctx.libc.fence() == 0
        ring = ring_world.anception.binder_ring
        assert ring.stats()["pending"] == 0
        assert ring.fences >= 1

    def test_wait_input_fences_staged_oneways(self, ring_world, ring_ctx):
        ring_ctx.create_window("w")
        ring_world.ui.set_focus_by_task(ring_ctx.task)
        ring_world.type_text("evt")
        ring_ctx.call_service_oneway("location", "get_fix", {})
        assert ring_ctx.wait_input().text == "evt"
        assert ring_world.anception.binder_ring.stats()["pending"] == 0

    def test_file_io_does_not_fence_binder(self, ring_world, ring_ctx):
        from repro.kernel import vfs

        ring_ctx.call_service_oneway("location", "get_fix", {})
        fd = ring_ctx.libc.open(
            ring_ctx.data_path("f.bin"), vfs.O_RDWR | vfs.O_CREAT
        )
        ring_ctx.libc.write(fd, b"unrelated")
        ring_ctx.libc.close(fd)
        # Oneway binder traffic does not order against file I/O.
        assert ring_world.anception.binder_ring.stats()["pending"] == 1


class TestDeferredErrors:
    def test_dropped_oneway_surfaces_at_next_reply(
            self, ring_world, ring_ctx):
        engine = _arm(ring_world, "binder.drop:nth=1")
        try:
            ring_ctx.call_service_oneway("location", "get_fix", {})
            with pytest.raises(SyscallError) as exc:
                ring_ctx.call_service("location", "get_fix", {})
            assert exc.value.errno == errno.EIO
        finally:
            engine.disarm()

    def test_deferred_errno_surfaces_exactly_once(
            self, ring_world, ring_ctx):
        engine = _arm(ring_world, "binder.drop:nth=1:errno=ENOBUFS")
        try:
            ring_ctx.call_service_oneway("location", "get_fix", {})
            with pytest.raises(SyscallError) as exc:
                ring_ctx.libc.fence()
            assert exc.value.errno == errno.ENOBUFS
            # Ledger popped: the same error never surfaces twice.
            assert ring_ctx.libc.fence() == 0
            assert ring_ctx.call_service("location", "get_fix", {})
        finally:
            engine.disarm()

    def test_error_ledger_is_per_target(self, ring_world, ring_ctx):
        engine = _arm(ring_world, "binder.drop:nth=1")
        try:
            ring_ctx.call_service_oneway("location", "get_fix", {})
            ring_ctx.call_service_oneway("power", "acquire_wakelock", {})
            # The sync call targets power; location's drop is not its
            # error, so the reply comes back clean...
            assert ring_ctx.call_service("power", "release_wakelock", {})
            # ...and location's deferred errno waits for its own barrier.
            with pytest.raises(SyscallError):
                ring_ctx.call_service("location", "get_fix", {})
        finally:
            engine.disarm()

    def test_reboot_clears_staged_windows_and_ledger(
            self, ring_world, ring_ctx):
        engine = _arm(ring_world, "binder.drop:nth=1")
        try:
            ring_ctx.call_service_oneway("location", "get_fix", {})
            ring_ctx.libc.fence()
        except SyscallError:
            pass
        finally:
            engine.disarm()
        ring_ctx.call_service_oneway("location", "get_fix", {})
        ring_world.anception.reboot_cvm()
        ring = ring_world.anception.binder_ring
        assert ring.stats()["pending"] == 0
        assert not ring.errors
        assert ring_ctx.libc.fence() == 0


class TestBulkParcels:
    def test_large_parcel_counts_bulk_path(self, ring_world, ring_ctx):
        reply = ring_ctx.call_service(
            "location", "get_fix", {"blob": "x" * 8192}
        )
        assert reply["accuracy_m"] == 12.0
        assert ring_world.anception.binder_ring.bulk_parcels >= 1

    def test_large_oneway_parcel_counts_bulk_path(
            self, ring_world, ring_ctx):
        ring_ctx.call_service_oneway(
            "location", "request_updates", {"blob": "y" * 8192}
        )
        ring_world.anception.async_fence(ring_ctx.libc.task)
        assert ring_world.anception.binder_ring.bulk_parcels >= 1

    def test_small_parcel_stays_inline(self, ring_world, ring_ctx):
        ring_ctx.call_service("location", "get_fix", {"blob": "x" * 64})
        assert ring_world.anception.binder_ring.bulk_parcels == 0


class TestTransactionLogBounds:
    def test_log_is_bounded_with_drop_count(self):
        log = RecoveryLog(limit=4)
        for i in range(10):
            log.append((i, "svc", "m"))
        assert log.dropped == 6
        assert list(log) == [(i, "svc", "m") for i in range(6, 10)]

    def test_wrap_keeps_len_total_dropped_and_order(self):
        log = RecoveryLog(limit=4)
        for i in range(10):
            log.append(i)
        assert (len(log.entries), log.total, log.dropped) == (4, 10, 6)
        assert list(log) == [6, 7, 8, 9]
        assert log[0] == 6 and log[-1] == 9
        assert 5 not in log and 6 in log

    def test_payload_size_is_marshal_sized(self):
        payload = {"blob": "x" * 112}
        txn = Transaction("location", "get_fix", payload)
        assert txn.payload_size == encoded_size(payload)
        assert encoded_size(txn) == txn.payload_size + 16


class TestObservability:
    def test_binder_counters_flow_through_metrics(self):
        from repro.obs.runner import run_traced

        result = run_traced("binderburst", logcat=False, binder_ring=True)
        ring = result.world.anception.stats()["binder_ring"]
        assert ring["enqueued"] == 24  # binderburst's two 12-oneway bursts
        assert ring["drains"] >= 2
        assert ring["fences"] >= 2
        # The window-depth histogram sees every submit and every drain.
        depth = result.metrics.snapshot()["histograms"]["binder_window_depth"]
        assert depth["count"] == ring["enqueued"] + ring["drains"]

    def test_observation_is_free(self):
        from repro.obs.runner import run_traced

        observed = run_traced("binderburst", logcat=False, binder_ring=True)
        blind = run_traced("binderburst", logcat=False, binder_ring=True,
                           observe=False)
        assert observed.elapsed_ns == blind.elapsed_ns


class TestStats:
    def test_stats_block_shape(self, ring_world, ring_ctx):
        ring_ctx.call_service_oneway("location", "get_fix", {})
        ring_ctx.call_service("location", "get_fix", {})
        stats = ring_world.anception.stats()["binder_ring"]
        for key in ("depth", "enqueued", "drains", "fences",
                    "deferred_errors", "bulk_parcels", "dropped",
                    "reordered", "max_depth_seen", "pending"):
            assert key in stats, key
        assert stats["enqueued"] == 1
        assert stats["drains"] == 1
        assert stats["pending"] == 0


_PARCEL_MODES = {
    "sync": {},
    "async": {"async_delegation": True, "binder_ring": True},
}


@pytest.fixture(params=sorted(_PARCEL_MODES))
def parcel_ctx(request):
    world = AnceptionWorld(**_PARCEL_MODES[request.param])
    running = world.install_and_launch(RingApp())
    running.run()
    return running.ctx


class TestParcelsCrossByValue:
    """A CVM service never holds the app's objects, nor the app the
    service's: both directions of a delegated binder call copy."""

    def test_request_mutated_after_a_oneway_send(self, parcel_ctx):
        text = ["before"]
        parcel_ctx.call_service_oneway("clipboard", "set_clip",
                                       {"text": text})
        text[0] = "after"
        reply = parcel_ctx.call_service("clipboard", "get_clip", {})
        assert reply == {"text": ["before"]}

    def test_nested_request_mutated_after_a_sync_send(self, parcel_ctx):
        inner = {"items": [1, 2]}
        parcel_ctx.call_service("clipboard", "set_clip", {"text": inner})
        inner["items"].append(3)
        reply = parcel_ctx.call_service("clipboard", "get_clip", {})
        assert reply == {"text": {"items": [1, 2]}}

    def test_reply_mutation_does_not_reach_the_service(self, parcel_ctx):
        parcel_ctx.call_service("clipboard", "set_clip", {"text": ["a"]})
        reply = parcel_ctx.call_service("clipboard", "get_clip", {})
        reply["text"].append("x")
        assert parcel_ctx.call_service("clipboard", "get_clip",
                                       {}) == {"text": ["a"]}


class TestStagedParcelSize:
    @pytest.mark.parametrize("payload", [
        {}, {"blob": "x" * 120}, {"nested": {"k": [1, 2.5, None, True]}},
        {"bytes": b"\x00" * 5000}, ["list", "payload"], {"text": "é"},
    ])
    def test_payload_bytes_match_the_parcel(self, ring_world, ring_ctx,
                                            payload):
        ring_ctx.call_service_oneway("location", "get_fix", payload)
        ring = ring_world.anception.binder_ring
        (window,) = ring.windows.values()
        entry = window.entries[-1]
        staged = entry.args[2]
        assert entry.payload_bytes == staged.payload_size
        assert entry.payload_bytes == encoded_size(payload)
