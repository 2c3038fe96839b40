"""Canned traced workloads for the ``anception trace/metrics`` commands.

Each workload runs a short, deterministic call stream on a freshly
booted :class:`~repro.world.AnceptionWorld` app — the same streams the
Table I microbenchmarks time, reduced to a handful of calls so the
resulting trace is readable in Perfetto.  ``run_traced`` can also run
with observation off, which is how the side-effect-freedom guarantee is
tested: elapsed simulated time is identical either way.
"""

from __future__ import annotations

from repro.android.app import App, AppManifest
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.obs.bus import LogcatSink, TraceBus
from repro.obs.export import make_trace_id
from repro.obs.metrics import MetricsRegistry
from repro.workloads.fleet import workload_fleet
from repro.world import AnceptionWorld


class _ObsApp(App):
    manifest = AppManifest("com.obs.trace")

    def main(self, ctx):
        return {"status": "ready"}


def _workload_getpid(ctx):
    for _ in range(4):
        ctx.libc.getpid()


def _workload_write4k(ctx):
    fd = ctx.libc.open(
        ctx.data_path("obs-write.bin"), vfs.O_WRONLY | vfs.O_CREAT
    )
    ctx.libc.write(fd, b"w" * 4096)
    ctx.libc.close(fd)


def _workload_read4k(ctx):
    fd = ctx.libc.open(
        ctx.data_path("obs-read.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    ctx.libc.write(fd, b"r" * 4096)
    ctx.libc.pread(fd, 4096, 0)
    ctx.libc.close(fd)


def _workload_binder(ctx):
    ctx.call_service("location", "get_fix", {"blob": "x" * 112})


def _workload_fileops(ctx):
    """A file-heavy stream (the chaos harness's default prey).

    Every step opens, uses, and closes its own descriptors, so a fault
    that costs the CVM its open files mid-stream (proxy kill, container
    reboot) stays contained to the step it hit.
    """
    for i in range(6):
        fd = ctx.libc.open(
            ctx.data_path(f"chaos-{i}.bin"),
            vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
        )
        ctx.libc.write(fd, bytes([0x40 + i]) * 512)
        ctx.libc.pread(fd, 256, 0)
        ctx.libc.close(fd)
    ctx.libc.mkdir(ctx.data_path("chaos-dir"))
    ctx.libc.rename(
        ctx.data_path("chaos-0.bin"), ctx.data_path("chaos-dir/moved.bin")
    )
    ctx.libc.stat(ctx.data_path("chaos-dir/moved.bin"))
    ctx.libc.unlink(ctx.data_path("chaos-1.bin"))
    fd = ctx.libc.open(ctx.data_path("chaos-2.bin"), vfs.O_RDONLY)
    ctx.libc.read(fd, 512)
    ctx.libc.close(fd)
    ctx.libc.listdir(ctx.data_path("chaos-dir"))


def _workload_ipc(ctx):
    """Pipes and System V shared memory across the delegation boundary."""
    read_fd, write_fd = ctx.libc.pipe()
    ctx.libc.write(write_fd, b"chaos-pipe-payload")
    ctx.libc.read(read_fd, 64)
    ctx.libc.close(write_fd)
    ctx.libc.close(read_fd)
    shmid = ctx.libc.shmget(0x51, 8192)
    addr = ctx.libc.shmat(shmid)
    ctx.libc.shmdt(addr)


def _workload_table1(ctx):
    """One pass over the Table I rows: null call, 4K write/read, binder."""
    _workload_getpid(ctx)
    _workload_write4k(ctx)
    _workload_read4k(ctx)
    _workload_binder(ctx)


def _workload_batchio(ctx):
    """Exercise the ring's batched paths: writev, readv, syscall_batch.

    A 64-entry writev rides one doorbell pair instead of 64; the readv
    pulls the same bytes back; the closing ``syscall_batch`` window
    coalesces eight consecutive same-fd writes into one descriptor.
    """
    fd = ctx.libc.open(
        ctx.data_path("batch.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    buffers = [bytes([0x61 + (i % 26)]) * 64 for i in range(64)]
    ctx.libc.writev(fd, buffers)
    ctx.libc.lseek(fd, 0)
    ctx.libc.readv(fd, [64] * 64)
    ctx.libc.syscall_batch(
        [("write", fd, f"tail-{i}".encode()) for i in range(8)]
    )
    ctx.libc.close(fd)


def _workload_writeburst(ctx):
    """A write burst with a fence mid-stream and an fsync at the end.

    With write-behind on, the burst stages into async windows (visible
    as ``wb-submit``/``wb-drain`` records) and the fence/fsync show the
    drain-and-wait barrier; with it off the same stream degenerates to
    the classic per-call shape — the traces diff cleanly.
    """
    fd = ctx.libc.open(
        ctx.data_path("burst.bin"),
        vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC,
    )
    block = b"b" * 4096
    for _ in range(48):
        ctx.libc.write(fd, block)
    ctx.libc.fence(fd)
    for _ in range(16):
        ctx.libc.write(fd, block)
    ctx.libc.fsync(fd)
    ctx.libc.pread(fd, 4096, 0)
    ctx.libc.close(fd)


def _workload_binderburst(ctx):
    """A burst of oneway service calls with a sync reply mid-stream.

    With the binder ring on, the oneways stage into batched windows
    (visible as ``binder-submit``/``binder-drain`` records) and the
    reply-carrying calls show the fence-on-reply barrier; the closing
    large parcel rides the shared-memory bulk-parcel path.  With the
    ring off the same stream degenerates to per-call redirection — the
    traces diff cleanly.
    """
    for _ in range(12):
        ctx.call_service_oneway("location", "get_fix", {"blob": "x" * 96})
    ctx.call_service("location", "get_fix", {"blob": "x" * 96})
    for _ in range(12):
        ctx.call_service_oneway("sensor", "read_accelerometer", {})
    ctx.call_service("location", "get_fix", {"blob": "x" * 8192})
    ctx.libc.fence()


def _ui_echo(method, payload, sender_task):
    """The ``ui`` workload's exported endpoint: a pid-free reply."""
    return {"echo": method}


def _workload_ui(ctx):
    """The host-pinned binder paths: UI frames, a window call, app IPC.

    None of these calls crosses into the CVM (Sections III-A and
    III-D): a window, 16 frames, a display query, a oneway frame, and a
    call to the app's own exported endpoint (re-exported each pass, an
    idempotent registration).
    """
    ctx.create_window("obs-ui")
    for index in range(16):
        ctx.submit_frame(bytes([index]) * 64)
    ctx.call_service("window", "get_display_info")
    ctx.call_service_oneway("window", "submit_frame", {"pixels": b"oneway"})
    ctx.export_service(_ui_echo)
    ctx.call_app(ctx.package, "ping", {"k": 1})


TRACE_WORKLOADS = {
    "table1": _workload_table1,
    "getpid": _workload_getpid,
    "write4k": _workload_write4k,
    "read4k": _workload_read4k,
    "binder": _workload_binder,
    "fileops": _workload_fileops,
    "ipc": _workload_ipc,
    "batchio": _workload_batchio,
    "writeburst": _workload_writeburst,
    "binderburst": _workload_binderburst,
    "ui": _workload_ui,
    "fleet": workload_fleet,
}


def _reset_workload(ctx, workload):
    """Undo the one non-idempotent effect so iterations replay cleanly.

    ``fileops`` leaves ``chaos-dir/moved.bin`` behind and its ``mkdir``
    would fail with EEXIST on replay; everything else opens with
    O_TRUNC and is idempotent.  The cleanup calls are part of every
    iteration's call stream, so the steady-state digests cover them.
    """
    if workload == "fileops":
        try:
            ctx.libc.unlink(ctx.data_path("chaos-dir/moved.bin"))
        except SyscallError:
            pass
        try:
            ctx.libc.rmdir(ctx.data_path("chaos-dir"))
        except SyscallError:
            pass


def _iterate(ctx, workload, n):
    """Replay ``workload`` ``n`` times on one app context."""
    fn = TRACE_WORKLOADS[workload]
    for _ in range(n):
        _reset_workload(ctx, workload)
        fn(ctx)


def boot_obs_world(app=None, **knobs):
    """Boot an AnceptionWorld with an enrolled app; returns (world, ctx).

    ``app`` defaults to the trace harness's own app; ``knobs`` are
    :class:`~repro.core.anception.AnceptionLayer`'s keyword arguments,
    passed through unchanged.  The shared setup for :func:`run_traced`,
    the chaos harness, the snapshot commands and the tests that replay
    workload bodies with :func:`_iterate` against a pre-booted world.
    """
    world = AnceptionWorld(**knobs)
    running = world.install_and_launch(_ObsApp() if app is None else app)
    running.run()
    return world, running.ctx


def warm_or_boot(world=None, app=None, **knobs):
    """``(world, ctx)`` for a runner: boot a fresh world with ``knobs``,
    or warm-start on ``world`` (typically snapshot-restored) and its
    most recently launched app.  A warm-started world carries its own
    configuration, so passing knobs with it is a ``TypeError``."""
    if world is None:
        return boot_obs_world(app, **knobs)
    if knobs:
        raise TypeError(f"knobs {sorted(knobs)} need a fresh boot; "
                        "a warm-started world carries its own")
    return world, world.zygote.launched[-1].ctx


def capture_run(world, body, observe=True, sinks=()):
    """Run ``body()`` on ``world``, under a bus capture when ``observe``.

    Returns ``(elapsed_ns, records, metrics)``: the simulated time the
    body took, and the records it emitted with a :class:`MetricsRegistry`
    fed from them (both empty when not observing).  ``sinks`` are extra
    bus subscribers attached only for the capture.
    """
    metrics = MetricsRegistry()
    clock = world.clock
    if not observe:
        start_ns = clock.now_ns
        body()
        return clock.now_ns - start_ns, [], metrics
    bus = TraceBus.install(clock)
    sinks = (metrics.observe_record, *sinks)
    for sink in sinks:
        bus.subscribe(sink)
    try:
        with bus.capture() as capture:
            start_ns = clock.now_ns
            body()
            elapsed_ns = clock.now_ns - start_ns
    finally:
        for sink in sinks:
            bus.unsubscribe(sink)
    return elapsed_ns, capture.records, metrics


class TraceResult:
    """Everything one traced run produced."""

    def __init__(self, workload, seed, trace_id, elapsed_ns, records,
                 metrics, world):
        self.workload = workload
        self.seed = seed
        self.trace_id = trace_id
        self.elapsed_ns = elapsed_ns
        self.records = records
        self.metrics = metrics
        self.world = world


def run_traced(workload, seed=0, observe=True, logcat=True, world=None,
               **knobs):
    """Boot an Anception world, run ``workload`` under the bus.

    ``observe=False`` runs the identical stream with no capture active —
    the observability-is-free baseline.  ``logcat`` mirrors span records
    into the host kernel's log device as ``trace:`` lines.  ``knobs``
    configure the fresh world (see :func:`boot_obs_world`).

    Workloads that set ``needs_world = True`` (the fleet driver) are
    called with the booted world instead of a single app context: they
    install and run their own population of apps.

    ``world`` warm-starts the run on an already-booted (typically
    snapshot-restored) world instead of paying a fresh boot.
    """
    fn = TRACE_WORKLOADS.get(workload)
    if fn is None:
        known = ", ".join(sorted(TRACE_WORKLOADS))
        raise ValueError(f"unknown workload {workload!r} (known: {known})")
    world, ctx = warm_or_boot(world, **knobs)
    target = world if getattr(fn, "needs_world", False) else ctx
    sinks = ()
    log_device = world.machine.kernel.log_device
    if logcat and log_device is not None:
        sinks = (LogcatSink(log_device, kinds=("syscall", "world-switch",
                                               "binder-txn")),)
    elapsed_ns, records, metrics = capture_run(
        world, lambda: fn(target), observe, sinks)
    return TraceResult(
        workload=workload,
        seed=seed,
        trace_id=make_trace_id(workload, seed),
        elapsed_ns=elapsed_ns,
        records=records,
        metrics=metrics,
        world=world,
    )
