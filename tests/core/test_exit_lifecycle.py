"""App exit flushes its deferred windows, then leaves no per-pid state.

``Kernel.reap_task`` calls the layer's exit hook before anything is
torn down: the app's staged writes and oneway transactions drain
through its still-live proxy (as a ``close`` fence would drain them), and
then every per-pid entry — fd table, windows, ledgers, proxy record,
placement — goes.  A staged write must never outlive its app to drain
later, from a sibling's fence, into a dead proxy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.app import App, AppManifest
from repro.kernel import vfs
from repro.kernel.kernel import KernelCrashed
from repro.obs.bus import TraceBus
from repro.world import AnceptionWorld

from tests.recorders import record_deliveries


def _app(index):
    class ExitApp(App):
        manifest = AppManifest(f"com.test.exit{index}")

        def main(self, ctx):
            return {"ok": True}

    return ExitApp()


def _launch(world, index):
    running = world.install_and_launch(_app(index))
    running.run()
    return running


def _cvm_deliveries(deliveries, world):
    """How many binder deliveries ran in the world's CVMs."""
    return sum(entry[0] != world.kernel.label for entry in deliveries)


def assert_no_per_pid_state(layer, pids):
    """No lane, ledger, table or map of ``layer`` remembers ``pids``."""
    pids = set(pids)
    assert not pids & set(layer.fd_tables)
    assert not pids & {pid for pid, _base in layer._file_mappings}
    for lane in layer.pool.lanes:
        assert not pids & set(layer.pool.pids_on(lane))
        assert not pids & set(lane.proxies._by_host_pid)
        assert not pids & {pid for pid, _addr in lane.shm_attach_map}
        assert not any(descriptor.pending.task.pid in pids
                       for descriptor in lane.channel.submit_ring._queue)
        for windows in (lane.write_behind, lane.binder_ring):
            if windows is None:
                continue
            assert not pids & set(windows.windows)
            assert not pids & {pid for pid, _key in windows.errors}


class TestExitFlushesWindows:
    def test_staged_write_is_durable_after_exit(self):
        world = AnceptionWorld(async_delegation=True)
        app = _launch(world, 0)
        sibling = _launch(world, 1)
        path = app.ctx.data_path("last-words")
        fd = app.ctx.libc.open(path, vfs.O_RDWR | vfs.O_CREAT)
        assert app.ctx.libc.write(fd, b"hello") == 5
        assert world.anception.write_behind.stats()["pending"] == 1
        pid = app.task.pid
        app.ctx.libc.exit(0)
        # The sibling's next redirected call is a fence; it must find
        # nothing of the dead app's left to drain.
        sibling.ctx.libc.open(sibling.ctx.data_path("other"),
                              vfs.O_RDWR | vfs.O_CREAT)
        assert world.cvm.read_out_file(path) == b"hello"
        assert world.anception.write_behind.errors_for(pid) == {}
        assert pid not in world.anception.fd_tables
        assert_no_per_pid_state(world.anception, [pid])

    def test_sigkill_flushes_like_exit(self):
        world = AnceptionWorld(async_delegation=True)
        app = _launch(world, 0)
        path = app.ctx.data_path("killed")
        fd = app.ctx.libc.open(path, vfs.O_RDWR | vfs.O_CREAT)
        app.ctx.libc.write(fd, b"durable")
        pid = app.task.pid
        app.ctx.libc.kill(pid, 9)
        assert not app.task.is_alive()
        assert world.cvm.read_out_file(path) == b"durable"
        assert_no_per_pid_state(world.anception, [pid])

    def test_exit_on_a_crashed_container_still_reaps(self):
        world = AnceptionWorld(async_delegation=True)
        app = _launch(world, 0)
        fd = app.ctx.libc.open(app.ctx.data_path("lost"),
                               vfs.O_RDWR | vfs.O_CREAT)
        app.ctx.libc.write(fd, b"staged")
        with pytest.raises(KernelCrashed):
            world.cvm.kernel.panic("test crash")
        pid = app.task.pid
        # Recovery is off: the drain cannot reach the dead container,
        # and that EIO must not stop the exit.
        app.ctx.libc.exit(0)
        assert not app.task.is_alive()
        assert_no_per_pid_state(world.anception, [pid])

    def test_staged_oneway_is_delivered_at_exit(self, monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        world = AnceptionWorld(binder_ring=True)
        app = _launch(world, 0)
        _launch(world, 1)
        assert app.ctx.call_service_oneway("location", "get_fix", {}) is None
        assert _cvm_deliveries(deliveries, world) == 0
        pid = app.task.pid
        app.ctx.libc.exit(0)
        assert _cvm_deliveries(deliveries, world) == 1
        assert world.anception.binder_ring.stats()["pending"] == 0
        assert world.anception.binder_ring.errors_for(pid) == {}
        assert_no_per_pid_state(world.anception, [pid])

    def test_exit_with_windows_off_charges_nothing(self):
        world = AnceptionWorld()
        app = _launch(world, 0)
        fd = app.ctx.libc.open(app.ctx.data_path("f"),
                               vfs.O_RDWR | vfs.O_CREAT)
        app.ctx.libc.write(fd, b"sync")
        pid = app.task.pid
        with TraceBus.install(world.clock).capture() as capture:
            app.ctx.libc.exit(0)
        charges = {reason for reason, _ in capture.charges()}
        assert not any(reason.startswith("anception:") for reason in charges)
        assert_no_per_pid_state(world.anception, [pid])

    def test_proxy_dies_with_its_app(self):
        world = AnceptionWorld(async_delegation=True, binder_ring=True)
        app = _launch(world, 0)
        proxy_task = world.anception.proxies.proxy_for(app.task).guest_task
        app.ctx.libc.exit(3)
        assert not proxy_task.is_alive()
        assert proxy_task.exit_code == 3
        assert world.anception.stats()["proxies"] == 0


def _window_cycles(world, cycles):
    """Launch, open a window and exit ``cycles`` times in one world."""
    ui = world.ui
    for index in range(cycles):
        app = _launch(world, index)
        app.ctx.create_window(f"w{index}")
        app.ctx.libc.exit(0)
        focused = ui.focused_window
        assert focused is None or focused.owner_task.is_alive()
    return len(ui.windows), len(ui._first_window)


class TestExitClosesWindows:
    """Reaping a task on the host destroys its windows in the UI stack."""

    def test_window_count_does_not_grow_with_exit_cycles(self):
        short = _window_cycles(AnceptionWorld(), 5)
        long = _window_cycles(AnceptionWorld(), 20)
        assert short == long

    def test_reaped_app_leaves_no_window(self):
        world = AnceptionWorld()
        app = _launch(world, 0)
        app.ctx.create_window("gone")
        task = app.task
        assert world.ui.window_of(task) is not None
        app.ctx.libc.exit(0)
        assert world.ui.window_of(task) is None
        assert all(w.owner_task is not task
                   for w in world.ui.windows.values())


def _put(model, offset, data):
    """Apply one positioned write to the expected file contents."""
    if offset > len(model):
        model += bytes(offset - len(model))
    model[offset:offset + len(data)] = data


_op = st.one_of(
    st.tuples(st.just("write"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("pwrite"), st.binary(min_size=1, max_size=64),
              st.integers(min_value=0, max_value=128)),
    st.tuples(st.just("oneway")),
    st.tuples(st.just("fsync")),
)


class TestNoStateOutlivesItsApp:
    @given(cvms=st.sampled_from((1, 3)),
           scripts=st.lists(st.lists(_op, max_size=8), min_size=1,
                            max_size=4),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_every_app_exited_leaves_no_per_pid_state(self, cvms, scripts,
                                                      order):
        with pytest.MonkeyPatch.context() as monkeypatch:
            deliveries = record_deliveries(monkeypatch)
            self._exit_every_app(deliveries, cvms, scripts, order)

    @staticmethod
    def _exit_every_app(deliveries, cvms, scripts, order):
        world = AnceptionWorld(async_delegation=True, binder_ring=True,
                               cvms=cvms)
        apps, files = [], []
        oneways = 0
        for index, script in enumerate(scripts):
            app = _launch(world, index)
            lane = world.anception.pool.lane_for(app.task)
            libc = app.ctx.libc
            path = app.ctx.data_path("data.bin")
            fd = libc.open(path, vfs.O_RDWR | vfs.O_CREAT)
            model, position = bytearray(), 0
            for op in script:
                if op[0] == "write":
                    libc.write(fd, op[1])
                    _put(model, position, op[1])
                    position += len(op[1])
                elif op[0] == "pwrite":
                    _name, data, offset = op
                    libc.pwrite(fd, data, offset)
                    _put(model, offset, data)
                elif op[0] == "oneway":
                    app.ctx.call_service_oneway("location", "get_fix", {})
                    oneways += 1
                else:
                    libc.fsync(fd)
            apps.append(app)
            files.append((lane, path, bytes(model)))
        pids = [app.task.pid for app in apps]
        order.shuffle(apps)
        for app in apps:
            app.ctx.libc.exit(0)
        layer = world.anception
        assert_no_per_pid_state(layer, pids)
        for lane, path, data in files:
            assert lane.cvm.read_out_file(path) == data
        assert _cvm_deliveries(deliveries, world) == oneways
