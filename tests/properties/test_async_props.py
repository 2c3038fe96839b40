"""Async <-> sync equivalence properties for write-behind delegation.

Hypothesis generates op scripts — write/pwrite/read/pread/writev/readv/
ftruncate/fsync/fence/close interleavings across two descriptors — and
every script must produce byte-identical results, errnos, and final
file contents in all three modes: native, synchronous delegation, and
write-behind.  A second group pins determinism under fault plans: the
same (workload, plan, seed) chaos run serializes byte-identically on
replay, with the write-behind sites armed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.app import App, AppManifest
from repro.errors import SyscallError
from repro.faults.chaos import chaos_report_json, run_chaos
from repro.kernel import vfs
from repro.world import AnceptionWorld, NativeWorld


_SLOTS = 2

_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, _SLOTS - 1),
              st.binary(min_size=0, max_size=48)),
    st.tuples(st.just("pwrite"), st.integers(0, _SLOTS - 1),
              st.binary(min_size=1, max_size=32),
              st.integers(0, 64)),
    st.tuples(st.just("read"), st.integers(0, _SLOTS - 1),
              st.integers(1, 48)),
    st.tuples(st.just("pread"), st.integers(0, _SLOTS - 1),
              st.integers(1, 32), st.integers(0, 64)),
    st.tuples(st.just("writev"), st.integers(0, _SLOTS - 1),
              st.lists(st.binary(min_size=1, max_size=16),
                       min_size=1, max_size=4)),
    st.tuples(st.just("readv"), st.integers(0, _SLOTS - 1),
              st.lists(st.integers(1, 16), min_size=1, max_size=4)),
    st.tuples(st.just("ftruncate"), st.integers(0, _SLOTS - 1),
              st.integers(0, 96)),
    st.tuples(st.just("fsync"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("fdatasync"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("fence"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("lseek"), st.integers(0, _SLOTS - 1),
              st.integers(0, 64)),
    st.tuples(st.just("close"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("reopen"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("rename"), st.integers(0, _SLOTS - 1)),
)

_scripts = st.lists(_op, min_size=1, max_size=24)


class _AsyncOpsApp(App):
    """Interpret one generated script against two file slots.

    Slot state (open fd or closed; current path after renames) evolves
    identically in every world because the interpretation depends only
    on the script — so outcome streams compare with ``==``.
    """

    def __init__(self, package, operations):
        self._manifest = AppManifest(package)
        self.operations = operations

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        fds = [None] * _SLOTS
        paths = [ctx.data_path(f"slot{i}.bin") for i in range(_SLOTS)]
        outcomes = []

        def record(call):
            try:
                outcomes.append(("ok", call()))
            except SyscallError as exc:
                outcomes.append(("err", exc.errno))

        def ensure_open(slot):
            if fds[slot] is None:
                fds[slot] = ctx.libc.open(
                    paths[slot], vfs.O_RDWR | vfs.O_CREAT, 0o644
                )

        for op in self.operations:
            name, slot = op[0], op[1]
            if name == "close":
                if fds[slot] is not None:
                    record(lambda: ctx.libc.close(fds[slot]))
                    fds[slot] = None
                continue
            if name == "reopen":
                if fds[slot] is not None:
                    record(lambda: ctx.libc.close(fds[slot]))
                fds[slot] = None
                ensure_open(slot)
                continue
            if name == "rename":
                if fds[slot] is not None:
                    # Keep renames unambiguous: only closed slots move.
                    continue
                new_path = paths[slot] + ".r"
                record(lambda: ctx.libc.rename(paths[slot], new_path))
                if outcomes[-1][0] == "ok":
                    paths[slot] = new_path
                continue
            ensure_open(slot)
            fd = fds[slot]
            if name == "write":
                record(lambda: ctx.libc.write(fd, op[2]))
            elif name == "pwrite":
                record(lambda: ctx.libc.pwrite(fd, op[2], op[3]))
            elif name == "read":
                record(lambda: ctx.libc.read(fd, op[2]))
            elif name == "pread":
                record(lambda: ctx.libc.pread(fd, op[2], op[3]))
            elif name == "writev":
                record(lambda: ctx.libc.writev(fd, op[2]))
            elif name == "readv":
                record(lambda: tuple(ctx.libc.readv(fd, op[2])))
            elif name == "ftruncate":
                record(lambda: ctx.libc.ftruncate(fd, op[2]))
            elif name == "fsync":
                record(lambda: ctx.libc.fsync(fd))
            elif name == "fdatasync":
                record(lambda: ctx.libc.fdatasync(fd))
            elif name == "fence":
                record(lambda: ctx.libc.fence(fd))
            elif name == "lseek":
                record(lambda: ctx.libc.lseek(fd, op[2]))

        for slot in range(_SLOTS):
            if fds[slot] is not None:
                record(lambda: ctx.libc.close(fds[slot]))
                fds[slot] = None
        finals = []
        for slot in range(_SLOTS):
            try:
                finals.append(ctx.libc.read_file(paths[slot]))
            except SyscallError as exc:
                finals.append(("err", exc.errno))
        return outcomes, finals


_counter = [0]


def _fresh_package():
    _counter[0] += 1
    return f"com.asyncprop.app{_counter[0]}"


def _run_in(world, package, operations):
    return world.install_and_launch(_AsyncOpsApp(package, operations)).run()


class TestAsyncSyncEquivalence:
    @given(operations=_scripts)
    @settings(max_examples=30, deadline=None)
    def test_three_modes_agree(self, operations):
        package = _fresh_package()
        native = _run_in(NativeWorld(), package, operations)
        sync = _run_in(AnceptionWorld(), package, operations)
        async_ = _run_in(
            AnceptionWorld(async_delegation=True), package, operations
        )
        assert native == sync
        assert sync == async_

    @given(operations=_scripts, depth=st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_window_depth_never_changes_results(self, operations, depth):
        package = _fresh_package()
        shallow = _run_in(
            AnceptionWorld(async_delegation=True, write_behind_depth=depth),
            package, operations,
        )
        deep = _run_in(
            AnceptionWorld(async_delegation=True), package, operations
        )
        assert shallow == deep


def _chaos_replayed(workload, faults, **kwargs):
    first = run_chaos(workload, seed=3, faults=faults, **kwargs)
    second = run_chaos(workload, seed=3, faults=faults, **kwargs)
    return first, chaos_report_json(first), chaos_report_json(second)


class TestFaultPlanDeterminism:
    def test_ring_corrupt_replays_byte_identically(self):
        result, a, b = _chaos_replayed(
            "writeburst", "ring.corrupt:nth=2", async_delegation=True
        )
        assert a == b
        assert result.status == "ok"  # recovery retried the window

    def test_cache_stale_replays_byte_identically(self):
        result, a, b = _chaos_replayed(
            "writeburst", "cache.stale:nth=1",
            async_delegation=True, read_cache=True,
        )
        assert a == b

    def test_wb_error_surfaces_deterministically(self):
        result, a, b = _chaos_replayed(
            "writeburst", "wb.error:nth=2:errno=ENOSPC", async_delegation=True
        )
        assert a == b
        assert result.status == "syscall-error"
        assert "ENOSPC" in result.error

    def test_wb_reap_loss_recovers_and_replays(self):
        result, a, b = _chaos_replayed(
            "writeburst", "wb.reap-loss:nth=1", async_delegation=True
        )
        assert a == b
        assert result.status == "ok"
        assert any(
            entry[0] == "wb-reap-poll" for entry in result.recovery_log
        ), result.recovery_log
