"""Warm migration: ``AnceptionLayer.migrate`` moves an app between lanes.

The pin is differential, the same shape as restore≡boot: an app
migrated mid-flight — with open remote fds, cached pages, and a
*pending* (staged, undrained) write-behind window — must be
indistinguishable from a twin app on a second world that never moved.
Migration reuses the snapshot module's per-app slice, so these tests
are also the :func:`app_slice`/:func:`apply_app_slice` integration
pins.
"""

import pytest

from repro.core.snapshot import AppSliceError, app_slice, vfs_digest
from repro.errors import SimulationError
from repro.faults.engine import FaultEngine
from repro.obs.runner import boot_obs_world


def _boot():
    return boot_obs_world(cvms=4, read_cache=True, async_delegation=True,
                          binder_ring=True)


def _stage(ctx):
    """Open a file, warm the cache, and leave a wb entry pending."""
    libc = ctx.libc
    fd = libc.open(ctx.data_path("ledger.bin"), 0o102, 0o600)
    libc.write(fd, b"A" * 4096)
    libc.lseek(fd, 0, 0)
    libc.read(fd, 4096)          # pulls pages into the host cache
    libc.write(fd, b"B" * 100)   # stages an undrained wb entry
    return fd


def _finish(world, ctx, fd):
    libc = ctx.libc
    world.anception.async_fence(libc.task)
    libc.lseek(fd, 0, 0)
    data = libc.read(fd, 4096)
    libc.close(fd)
    return data


def _pending(lane, task):
    """Staged write-behind entries ``task`` has on ``lane`` (a drained
    task has no window at all)."""
    window = lane.write_behind.windows.get(task.pid)
    return 0 if window is None else len(window.entries)


def _other_lane(layer, lane):
    return layer.pool.lane_by_id((lane.cvm_id + 1) % len(layer.pool.lanes))


class TestMovedEqualsNeverMoved:
    def test_migrated_app_matches_unmigrated_twin(self):
        moved_world, moved_ctx = _boot()
        still_world, still_ctx = _boot()
        moved_fd = _stage(moved_ctx)
        still_fd = _stage(still_ctx)

        task = moved_ctx.libc.task
        layer = moved_world.anception
        source = layer._lane(task)
        pending = _pending(source, task)
        assert pending > 0, "staging left no pending wb entry"
        target = _other_lane(layer, source)

        assert layer.migrate(task, target) is True
        assert layer.pool.lane_for(task) is target

        # The pending window traveled intact, undrained.
        window = target.write_behind.windows[task.pid]
        assert len(window.entries) == pending
        assert source.write_behind.windows.get(task.pid) is None
        # So did the app's cached pages.
        assert len(target.page_cache) > 0

        # The app itself cannot tell: reads and final tree match the
        # twin that never moved.
        moved = _finish(moved_world, moved_ctx, moved_fd)
        still = _finish(still_world, still_ctx, still_fd)
        assert moved == still
        still_lane = still_world.anception._lane(still_ctx.libc.task)
        assert (vfs_digest(target.cvm.kernel, task.cwd)
                == vfs_digest(still_lane.cvm.kernel,
                              still_ctx.libc.task.cwd))

    def test_fd_offsets_survive_migration(self):
        world, ctx = _boot()
        libc = ctx.libc
        fd = libc.open(ctx.data_path("off.bin"), 0o102, 0o600)
        libc.write(fd, b"0123456789")
        libc.lseek(fd, 4, 0)
        world.anception.async_fence(libc.task)

        layer = world.anception
        source = layer._lane(libc.task)
        layer.migrate(libc.task, _other_lane(layer, source))

        assert libc.read(fd, 3) == b"456"
        libc.close(fd)

    def test_deferred_errnos_travel(self):
        # A deferred write-behind errno recorded on the source lane must
        # surface on the target exactly as it would have at home.
        world, ctx = _boot()
        libc = ctx.libc
        fd = libc.open(ctx.data_path("err.bin"), 0o102, 0o600)
        libc.write(fd, b"payload")
        layer = world.anception
        source = layer._lane(libc.task)
        import errno

        from repro.errors import SyscallError

        source.write_behind.errors[(libc.task.pid, fd)] = SyscallError(
            errno.EIO, "synthetic deferred error", call="write"
        )
        layer.migrate(libc.task, _other_lane(layer, source))
        with pytest.raises(SyscallError) as excinfo:
            libc.close(fd)
        assert excinfo.value.errno == errno.EIO


class TestMigratedWindowDrainsAtLaneFence:
    """A migrated window drains at the target's next lane-scoped fence.

    The twin test above drains through the cross-lane ``async_fence``;
    here the first call after the move is a plain ``pread`` or
    ``fsync``, whose fence is the target lane's own ``_wb_fence``.  The
    window arrives by ``apply_app_slice``, not by an enqueue, so a
    fence that tracked staging by counting enqueues would miss it and
    serve the stale cached page.
    """

    @pytest.mark.parametrize("first", ["pread", "fsync"])
    def test_first_call_after_the_move_fences(self, first):
        world, ctx = _boot()
        libc = ctx.libc
        fd = libc.open(ctx.data_path("fence.bin"), 0o102, 0o600)
        libc.pwrite(fd, b"A" * 4096, 0)
        assert libc.pread(fd, 4096, 0) == b"A" * 4096  # cached
        libc.pwrite(fd, b"B" * 100, 0)  # staged over the cached page
        layer = world.anception
        task = libc.task
        source = layer._lane(task)
        assert _pending(source, task) == 1
        target = _other_lane(layer, source)

        assert layer.migrate(task, target) is True
        assert _pending(target, task) == 1
        if first == "fsync":
            assert libc.fsync(fd) == 0
            assert _pending(target, task) == 0
        assert libc.pread(fd, 100, 0) == b"B" * 100
        assert target.write_behind.pending_windows() == []


class TestCounters:
    def test_migrations_are_counted(self):
        world, ctx = _boot()
        layer = world.anception
        task = ctx.libc.task
        source = layer._lane(task)
        layer.migrate(task, _other_lane(layer, source))
        assert layer.pool.stats()["migrations"] == 1

    def test_migrate_accepts_int_target(self):
        world, ctx = _boot()
        layer = world.anception
        task = ctx.libc.task
        target = _other_lane(layer, layer._lane(task))
        assert layer.migrate(task, target.cvm_id) is True
        assert layer.pool.lane_for(task) is target

    def test_same_lane_migration_is_a_noop(self):
        world, ctx = _boot()
        layer = world.anception
        task = ctx.libc.task
        assert layer.migrate(task, layer._lane(task)) is False
        assert layer.pool.stats()["migrations"] == 0

    def test_migration_lands_in_the_recovery_log(self):
        world, ctx = _boot()
        layer = world.anception
        task = ctx.libc.task
        source = layer._lane(task)
        layer.migrate(task, _other_lane(layer, source))
        kinds = [entry[0] for entry in layer.recovery_log]
        assert "migrate" in kinds


class TestRefusals:
    def test_unknown_pid_raises(self):
        world, _ctx = _boot()
        system_server = world.machine.kernel.pids.get(1)  # never enrolled
        with pytest.raises(SimulationError, match="pid 1 not enrolled"):
            world.anception.migrate(system_server, 1)

    def test_live_shm_attachment_skips_migration(self):
        world, ctx = _boot()
        libc = ctx.libc
        shmid = libc.shmget(0x5151, 8192, 0o1000 | 0o600)
        addr = libc.shmat(shmid)
        layer = world.anception
        task = libc.task
        source = layer._lane(task)
        assert layer.migrate(task, _other_lane(layer, source)) is False
        assert layer.pool.lane_for(task) is source
        assert layer.recovery_log[-1][0] == "migrate-skip"
        assert layer.pool.stats()["migrations"] == 0
        libc.shmdt(addr)

    def test_slice_refuses_shm_holder(self):
        world, ctx = _boot()
        libc = ctx.libc
        shmid = libc.shmget(0x5252, 8192, 0o1000 | 0o600)
        addr = libc.shmat(shmid)
        layer = world.anception
        with pytest.raises(AppSliceError, match="shm"):
            app_slice(layer, libc.task)
        libc.shmdt(addr)

    def test_non_file_fd_skips_migration(self):
        world, ctx = _boot()
        libc = ctx.libc
        libc.pipe()
        layer = world.anception
        task = libc.task
        source = layer._lane(task)
        assert layer.migrate(task, _other_lane(layer, source)) is False
        assert layer.pool.lane_for(task) is source
        assert layer.recovery_log[-1][0] == "migrate-skip"
        assert "non-file" in layer.recovery_log[-1][1]

    def test_migrate_loss_fault_aborts_the_move(self):
        world, ctx = _boot()
        fd = _stage(ctx)
        libc = ctx.libc
        layer = world.anception
        task = libc.task
        source = layer._lane(task)
        pending = _pending(source, task)
        engine = FaultEngine("pool.migrate-loss:nth=1", seed=0)
        engine.arm(world.clock)
        try:
            assert layer.migrate(task, _other_lane(layer, source)) is False
        finally:
            engine.disarm()
        assert layer.pool.lane_for(task) is source
        assert layer.pool.stats()["migrations"] == 0
        assert layer.recovery_log[-1][0] == "migrate-abort"
        # The app is intact on its source lane: its staged write is
        # still pending there and drains at the next fence.
        assert _pending(source, task) == pending
        layer.async_fence(task)
        libc.lseek(fd, 4096, 0)
        assert libc.read(fd, 100) == b"B" * 100
        libc.close(fd)

    def test_skip_leaves_source_state_untouched(self):
        world, ctx = _boot()
        fd = _stage(ctx)
        libc = ctx.libc
        shmid = libc.shmget(0x5353, 8192, 0o1000 | 0o600)
        addr = libc.shmat(shmid)
        layer = world.anception
        task = libc.task
        source = layer._lane(task)
        pending = _pending(source, task)
        layer.migrate(task, _other_lane(layer, source))
        assert _pending(source, task) == pending
        libc.shmdt(addr)
        # The staged write still drains at home: the B-run sits at 4096
        # (the read in _stage advanced the offset before the write).
        world.anception.async_fence(task)
        libc.lseek(fd, 4096, 0)
        assert libc.read(fd, 100) == b"B" * 100
        libc.close(fd)
