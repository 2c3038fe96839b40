"""The write-behind fence's fast exit is exact.

``_wb_fence`` returns at once when its lane has nothing staged, nothing
ledgered, no overlap window open and no lane time ahead of the host.
The property: over drawn scripts of staged writes, reads, fences and
binder traffic, on one lane and on two, every fence that returns
without entering ``_settle`` is one whose slow path would have been a
no-op — no pending window, no lane backlog, no ledger entry
for its fd — and every fence whose lane is in that state does take the
exit.
"""

from hypothesis import given, settings, strategies as st

from repro.core.anception import AnceptionLayer
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


_op = st.one_of(
    st.tuples(st.just("write"), st.binary(min_size=1, max_size=48)),
    st.tuples(st.just("pwrite"), st.binary(min_size=1, max_size=48),
              st.integers(0, 8192)),
    st.tuples(st.just("ftruncate"), st.integers(0, 8192)),
    st.tuples(st.just("pread"), st.integers(1, 4096), st.integers(0, 8192)),
    st.tuples(st.just("read"), st.integers(1, 4096)),
    st.tuples(st.just("fsync")),
    st.tuples(st.just("fence")),
    st.tuples(st.just("wb_fence")),
    st.tuples(st.just("oneway"), st.text(max_size=16)),
    st.tuples(st.just("binder"), st.text(max_size=16)),
)

_scripts = st.lists(_op, min_size=1, max_size=24)


class _FenceOracle:
    """Wraps one layer's ``_wb_fence`` and ``_settle`` and checks every
    fence against the slow path's no-op conditions."""

    def __init__(self, layer):
        self.layer = layer
        self.fast_exits = 0
        self.slow_fences = 0
        self._settled = False
        layer._settle = self._settle
        layer._wb_fence = self._wb_fence

    def _settle(self, lane, windows, task, name):
        if windows is lane.write_behind:
            self._settled = True
        return AnceptionLayer._settle(self.layer, lane, windows, task, name)

    def _wb_fence(self, task, name, args=(), lane=None):
        layer = self.layer
        if lane is None:
            lane = layer.pool.lane_for(task)
        wb = lane.write_behind
        clock = layer.machine.clock
        pending = wb.pending_windows()
        overlap = clock._overlap_lane is not None
        backlog = 0 if overlap else clock.lane_backlog_ns(lane.cvm.lane)
        fd = args[0] if args and isinstance(args[0], int) else None
        ledgered = fd is not None and (task.pid, fd) in wb.errors
        idle = (not wb.windows and not wb.errors and not overlap
                and clock._lane_busy.get(lane.cvm.lane, 0) <= clock._now_ns)
        self._settled = False
        try:
            return AnceptionLayer._wb_fence(layer, task, name, args, lane)
        finally:
            if self._settled:
                self.slow_fences += 1
                assert not idle, f"{name}: an idle lane took the slow path"
            else:
                self.fast_exits += 1
                assert not pending, f"{name}: fast exit left a window staged"
                assert not overlap, f"{name}: fast exit inside an overlap"
                assert backlog == 0, f"{name}: fast exit skipped a wait"
                assert not ledgered, f"{name}: fast exit kept an errno"


def _run(operations, cvms, faults):
    world = AnceptionWorld(async_delegation=True, read_cache=True,
                           binder_ring=True, cvms=cvms)
    ctx = world.install_and_launch(ScratchApp()).ctx
    libc = ctx.libc
    layer = world.anception
    fd = libc.open(ctx.data_path("fence.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    libc.pwrite(fd, b"A" * 4096, 0)  # staged
    oracle = _FenceOracle(layer)
    if faults is not None:
        FaultEngine(faults, seed=0).arm(world.clock)
    for op in operations:
        name = op[0]
        try:
            if name == "write":
                libc.write(fd, op[1])
            elif name == "pwrite":
                libc.pwrite(fd, op[1], op[2])
            elif name == "ftruncate":
                libc.ftruncate(fd, op[1])
            elif name == "pread":
                libc.pread(fd, op[1], op[2])
            elif name == "read":
                libc.read(fd, op[1])
            elif name == "fsync":
                libc.fsync(fd)
            elif name == "fence":
                libc.fence(fd)
            elif name == "wb_fence":
                layer.wb_fence(libc.task, fd)
            elif name == "oneway":
                ctx.call_service_oneway("clipboard", "set_clip",
                                        {"text": op[1]})
            else:
                ctx.call_service("clipboard", "get_clip", {})
        except SyscallError:
            pass
    return oracle


class TestFenceFastExit:
    @given(operations=_scripts, cvms=st.sampled_from((1, 2)),
           faults=st.sampled_from((None, "wb.error:nth=2",
                                   "wb.error:nth=5")))
    @settings(max_examples=40, deadline=None)
    def test_fast_exit_is_exact(self, operations, cvms, faults):
        _run(operations, cvms, faults)

    def test_reads_after_a_drain_take_the_fast_exit(self):
        oracle = _run([("pwrite", b"B" * 8, 0), ("fsync",), ("pread", 8, 0),
                       ("pread", 8, 0), ("fsync",)], cvms=1, faults=None)
        # The first fsync drains the staged write; every later fence
        # finds nothing staged.
        assert oracle.slow_fences == 1
        assert oracle.fast_exits == 3
