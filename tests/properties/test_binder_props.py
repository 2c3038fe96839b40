"""Batched <-> sync equivalence properties for binder delegation.

Hypothesis generates binder scripts — sync and oneway transactions
across two system services and two cooperating apps, with explicit
fences and deliberate bad targets/methods mixed in — and every script
must produce identical replies, errnos, and normalized service
deliveries in all three modes: native, synchronous delegation, and batched
binder delegation.  A second group pins determinism under the
``binder.*`` fault sites: the same (workload, plan, seed) chaos run
serializes byte-identically on replay.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SyscallError
from repro.android.app import App, AppManifest
from repro.faults.chaos import chaos_report_json, run_chaos
from repro.world import AnceptionWorld, NativeWorld

from tests.recorders import record_deliveries


_SERVICES = (
    ("location", "get_fix"),
    ("location", "request_updates"),
    ("power", "acquire_wakelock"),
    ("power", "release_wakelock"),
)

_op = st.one_of(
    st.tuples(st.just("sync"), st.integers(0, 1),
              st.sampled_from(_SERVICES),
              st.integers(0, 200)),
    st.tuples(st.just("oneway"), st.integers(0, 1),
              st.sampled_from(_SERVICES),
              st.integers(0, 200)),
    st.tuples(st.just("fence"), st.integers(0, 1)),
    st.tuples(st.just("badmethod"), st.integers(0, 1),
              st.sampled_from(("sync", "oneway"))),
    st.tuples(st.just("badtarget"), st.integers(0, 1),
              st.sampled_from(("sync", "oneway"))),
    st.tuples(st.just("peer"), st.integers(0, 1)),
)

_scripts = st.lists(_op, min_size=1, max_size=20)


class _BinderPeerApp(App):
    """A second enrolled app exporting an echo endpoint."""

    def __init__(self, package):
        self._manifest = AppManifest(package)

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        ctx.export_service(
            lambda method, payload, sender: {"echo": method}
        )
        return {"ok": True}


class _BinderOpsApp(App):
    """Interpret one generated script; two apps drive two services."""

    def __init__(self, package, operations, peer_package):
        self._manifest = AppManifest(package)
        self.operations = operations
        self.peer_package = peer_package

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        outcomes = []

        def record(call):
            try:
                outcomes.append(("ok", call()))
            except SyscallError as exc:
                outcomes.append(("err", exc.errno))

        for op in self.operations:
            name = op[0]
            if name == "sync":
                target, method = op[2]
                payload = {"blob": "x" * op[3]}
                record(lambda: ctx.call_service(target, method, payload))
            elif name == "oneway":
                target, method = op[2]
                payload = {"blob": "x" * op[3]}
                record(lambda: ctx.call_service_oneway(
                    target, method, payload))
            elif name == "fence":
                record(lambda: ctx.libc.fence())
            elif name == "badmethod":
                if op[2] == "sync":
                    record(lambda: ctx.call_service(
                        "location", "no_such_method", {}))
                else:
                    record(lambda: ctx.call_service_oneway(
                        "location", "no_such_method", {}))
            elif name == "badtarget":
                if op[2] == "sync":
                    record(lambda: ctx.call_service("nosuch", "m", {}))
                else:
                    record(lambda: ctx.call_service_oneway(
                        "nosuch", "m", {}))
            elif name == "peer":
                record(lambda: ctx.call_app(
                    self.peer_package, "ping", {"n": 1}))
        record(lambda: ctx.libc.fence())
        return outcomes


_counter = [0]


def _fresh_package():
    _counter[0] += 1
    return f"com.binderprop.app{_counter[0]}"


def _run_in(world, package, peer_package, operations):
    world.install_and_launch(_BinderPeerApp(peer_package)).run()
    running = world.install_and_launch(
        _BinderOpsApp(package, operations, peer_package)
    )
    result = running.run()
    anception = getattr(world, "anception", None)
    if anception is not None:
        anception.async_fence(running.ctx.libc.task)
    return result


def _service_log(deliveries, world):
    """System-service deliveries, as (target, method) pairs.

    Under Anception those execute in the CVM's driver; natively they
    share the host driver with ``app:*`` traffic (which stays on the
    host in every mode), so the native log is filtered to the
    system-service targets.
    """
    anception = getattr(world, "anception", None)
    kernel = (anception.cvm.kernel if anception is not None
              else world.kernel)
    return [(target, method) for _pid, target, method
            in deliveries.on(kernel)
            if not target.startswith("app:")]


class TestBatchedSyncEquivalence:
    @given(operations=_scripts)
    @settings(max_examples=25, deadline=None)
    def test_three_modes_agree(self, operations):
        package, peer = _fresh_package(), _fresh_package()
        worlds = {
            "native": NativeWorld(),
            "sync": AnceptionWorld(),
            "batched": AnceptionWorld(binder_ring=True),
        }
        results = {}
        logs = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            deliveries = record_deliveries(monkeypatch)
            for mode, world in worlds.items():
                deliveries.clear()
                results[mode] = _run_in(world, package, peer, operations)
                logs[mode] = _service_log(deliveries, world)
        assert results["native"] == results["sync"]
        assert results["sync"] == results["batched"]
        # Delegated-service transaction order is also mode-invariant:
        # fences and reply-carrying calls preserve submission order.
        assert logs["native"] == logs["sync"]
        assert logs["sync"] == logs["batched"]

    @given(operations=_scripts, depth=st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_window_depth_never_changes_results(self, operations, depth):
        package, peer = _fresh_package(), _fresh_package()
        shallow = _run_in(
            AnceptionWorld(binder_ring=True, binder_ring_depth=depth),
            package, peer, operations,
        )
        deep = _run_in(
            AnceptionWorld(binder_ring=True), package, peer, operations
        )
        assert shallow == deep


def _chaos_replayed(workload, faults, **kwargs):
    first = run_chaos(workload, seed=3, faults=faults, **kwargs)
    second = run_chaos(workload, seed=3, faults=faults, **kwargs)
    return first, chaos_report_json(first), chaos_report_json(second)


class TestBinderFaultDeterminism:
    def test_binder_drop_replays_byte_identically(self):
        result, a, b = _chaos_replayed(
            "binderburst", "binder.drop:nth=2", binder_ring=True
        )
        assert a == b
        # A dropped oneway surfaces as a deferred errno at the next
        # fence/reply barrier, never as a hang.
        assert result.status in ("ok", "syscall-error")

    def test_binder_drop_custom_errno_surfaces(self):
        result, a, b = _chaos_replayed(
            "binderburst", "binder.drop:nth=1:errno=ENOBUFS",
            binder_ring=True,
        )
        assert a == b
        assert result.status == "syscall-error"
        assert "ENOBUFS" in result.error

    def test_binder_reorder_replays_byte_identically(self):
        result, a, b = _chaos_replayed(
            "binderburst", "binder.reorder:nth=1", binder_ring=True
        )
        assert a == b
        assert result.stats["binder_ring"]["reordered"] >= 1

    def test_binder_reply_loss_recovers_and_replays(self):
        result, a, b = _chaos_replayed(
            "binderburst", "binder.reply-loss:nth=1", binder_ring=True
        )
        assert a == b
        assert result.status == "ok"
        assert any(
            entry[0] == "binder-reap-poll" for entry in result.recovery_log
        ), result.recovery_log
