"""Batched delegation: vectored I/O, batch windows, doorbell coalescing.

The headline invariant of the ring transport refactor: a 64-entry
vectored call pays ONE doorbell pair where the naive transport paid 64,
while a lone redirected call keeps its classic two-world-switch shape
(pinned separately in test_invariants.py).
"""

import errno

import pytest

from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.obs.bus import TraceBus
from repro.world import AnceptionWorld


def _open_scratch(ctx, name, flags=vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC):
    return ctx.libc.open(ctx.data_path(name), flags)


class TestVectoredWrites:
    def test_writev_64_entries_rides_one_doorbell_pair(self,
                                                       anception_world,
                                                       enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        fd = _open_scratch(enrolled_ctx, "v.bin")
        irq_before = hypervisor.interrupt_count
        hyp_before = hypervisor.hypercall_count
        total = enrolled_ctx.libc.writev(
            fd, [b"x" * 16 for _ in range(64)]
        )
        assert total == 64 * 16
        # >= 4x fewer doorbells than one-pair-per-call is the acceptance
        # floor; the ring does far better: exactly one pair.
        assert hypervisor.interrupt_count == irq_before + 1
        assert hypervisor.hypercall_count == hyp_before + 1

    def test_writev_data_round_trips(self, enrolled_ctx):
        fd = _open_scratch(enrolled_ctx, "rt.bin")
        buffers = [bytes([0x41 + i]) * 8 for i in range(5)]
        assert enrolled_ctx.libc.writev(fd, buffers) == 40
        enrolled_ctx.libc.lseek(fd, 0)
        assert enrolled_ctx.libc.read(fd, 40) == b"".join(buffers)
        enrolled_ctx.libc.close(fd)

    def test_readv_returns_per_entry_chunks(self, enrolled_ctx):
        fd = _open_scratch(enrolled_ctx, "rv.bin")
        enrolled_ctx.libc.write(fd, b"abcdefghij")
        enrolled_ctx.libc.lseek(fd, 0)
        chunks = enrolled_ctx.libc.readv(fd, [4, 4, 2])
        assert chunks == [b"abcd", b"efgh", b"ij"]

    def test_readv_rides_one_doorbell_pair(self, anception_world,
                                           enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        fd = _open_scratch(enrolled_ctx, "rvd.bin")
        enrolled_ctx.libc.write(fd, b"z" * 256)
        enrolled_ctx.libc.lseek(fd, 0)
        irq_before = hypervisor.interrupt_count
        enrolled_ctx.libc.readv(fd, [16] * 16)
        assert hypervisor.interrupt_count == irq_before + 1

    def test_empty_vectors_touch_nothing(self, anception_world,
                                         enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        fd = _open_scratch(enrolled_ctx, "e.bin")
        irq_before = hypervisor.interrupt_count
        assert enrolled_ctx.libc.writev(fd, []) == 0
        assert enrolled_ctx.libc.readv(fd, []) == []
        assert hypervisor.interrupt_count == irq_before

    def test_writev_matches_sequential_writes_byte_for_byte(
            self, anception_world, enrolled_ctx):
        buffers = [bytes([0x61 + i]) * 32 for i in range(8)]
        fd_v = _open_scratch(enrolled_ctx, "vec.bin")
        enrolled_ctx.libc.writev(fd_v, buffers)
        fd_s = _open_scratch(enrolled_ctx, "seq.bin")
        for buf in buffers:
            enrolled_ctx.libc.write(fd_s, buf)
        enrolled_ctx.libc.lseek(fd_v, 0)
        enrolled_ctx.libc.lseek(fd_s, 0)
        assert enrolled_ctx.libc.read(fd_v, 256) \
            == enrolled_ctx.libc.read(fd_s, 256)

    def test_writev_stops_at_first_error_like_native(self, enrolled_ctx):
        read_only = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("seed.txt"), vfs.O_RDONLY
        )
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.writev(read_only, [b"a", b"b"])
        # the surfaced errno is the FIRST failure, not ECANCELED
        assert "ECANCELED" not in str(exc.value)

    def test_vector_longer_than_ring_depth_flushes_in_windows(self):
        world = AnceptionWorld(ring_depth=4)
        from tests.conftest import ScratchApp

        running = world.install_and_launch(ScratchApp())
        running.run()
        ctx = running.ctx
        fd = _open_scratch(ctx, "deep.bin")
        hypervisor = world.cvm.hypervisor
        irq_before = hypervisor.interrupt_count
        assert ctx.libc.writev(fd, [b"q" * 8 for _ in range(10)]) == 80
        flushes = hypervisor.interrupt_count - irq_before
        # 10 descriptors through a 4-deep ring: backpressure flushes,
        # but still far fewer doorbells than 10 pairs
        assert 1 <= flushes <= 4
        ctx.libc.lseek(fd, 0)
        assert ctx.libc.read(fd, 80) == b"q" * 80


class TestDoorbellCoalescing:
    def test_coalesced_doorbells_counted(self, anception_world,
                                         enrolled_ctx):
        channel = anception_world.anception.channel
        fd = _open_scratch(enrolled_ctx, "c.bin")
        before = channel.stats()["coalesced_doorbells"]
        enrolled_ctx.libc.writev(fd, [b"k" * 8 for _ in range(8)])
        after = channel.stats()["coalesced_doorbells"]
        assert after >= before + 2  # submit IRQ + completion hypercall

    def test_coalesced_event_on_the_bus(self, anception_world,
                                        enrolled_ctx):
        fd = _open_scratch(enrolled_ctx, "cb.bin")
        bus = TraceBus.install(anception_world.clock)
        with bus.capture() as capture:
            enrolled_ctx.libc.writev(fd, [b"m" * 8 for _ in range(8)])
        events = capture.events("doorbell-coalesced")
        assert len(events) == 2
        assert {e["args"]["coalesced"] for e in events} == {8}
        directions = {e["args"]["direction"] for e in events}
        assert directions == {"host->guest", "guest->host"}

    def test_single_call_is_not_counted_coalesced(self, anception_world,
                                                  enrolled_ctx):
        channel = anception_world.anception.channel
        before = channel.stats()["coalesced_doorbells"]
        enrolled_ctx.libc.syscall("mkdir", enrolled_ctx.data_path("solo"))
        assert channel.stats()["coalesced_doorbells"] == before

    def test_descriptors_retired_accounting(self, anception_world,
                                            enrolled_ctx):
        channel = anception_world.anception.channel
        fd = _open_scratch(enrolled_ctx, "r.bin")
        before = channel.stats()["descriptors_retired"]
        enrolled_ctx.libc.writev(fd, [b"t" * 4 for _ in range(6)])
        # 6 descriptors on the submit IRQ + 6 on the completion hypercall
        assert channel.stats()["descriptors_retired"] == before + 12


class TestBatchWindows:
    def test_syscall_batch_coalesces_same_fd_writes(self, anception_world,
                                                    enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        channel = anception_world.anception.channel
        fd = _open_scratch(enrolled_ctx, "b.bin")
        irq_before = hypervisor.interrupt_count
        pushed_before = channel.submit_ring.stats()["pushed"]
        results = enrolled_ctx.libc.syscall_batch(
            [("write", fd, b"part-%d|" % i) for i in range(8)]
        )
        assert results == [len(b"part-%d|" % i) for i in range(8)]
        # eight consecutive same-fd writes merge into one descriptor
        assert channel.submit_ring.stats()["pushed"] == pushed_before + 1
        assert hypervisor.interrupt_count == irq_before + 1
        enrolled_ctx.libc.lseek(fd, 0)
        assert enrolled_ctx.libc.read(fd, 64) == b"".join(
            b"part-%d|" % i for i in range(8)
        )

    def test_batch_window_defers_then_flushes_on_exit(self,
                                                      anception_world,
                                                      enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        channel = anception_world.anception.channel
        first = _open_scratch(enrolled_ctx, "w.bin")
        second = _open_scratch(enrolled_ctx, "x.bin")
        irq_before = hypervisor.interrupt_count
        pushed_before = channel.submit_ring.stats()["pushed"]
        # Writes to two fds cannot coalesce; deferred, they still ride
        # the window end's one doorbell pair.
        results = enrolled_ctx.libc.syscall_batch([
            ("write", first, b"deferred"),
            ("write", second, b"too"),
        ])
        assert results == [8, 3]  # optimistic completions
        assert channel.submit_ring.stats()["pushed"] == pushed_before + 2
        assert hypervisor.interrupt_count == irq_before + 1
        assert enrolled_ctx.libc.pread(first, 8, 0) == b"deferred"
        assert enrolled_ctx.libc.pread(second, 3, 0) == b"too"

    def test_non_deferrable_call_flushes_queued_writes_first(
            self, enrolled_ctx):
        fd = _open_scratch(enrolled_ctx, "o.bin")
        # the read must observe the queued write (program order)
        results = enrolled_ctx.libc.syscall_batch([
            ("write", fd, b"ordered"),
            ("lseek", fd, 0, vfs.SEEK_SET),
            ("read", fd, 7),
        ])
        assert results == [7, 0, b"ordered"]

    def test_batch_error_surfaces_at_flush(self, enrolled_ctx):
        read_only = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("seed.txt"), vfs.O_RDONLY
        )
        # optimistic success inside the window, the real errno at its end
        with pytest.raises(SyscallError) as info:
            enrolled_ctx.libc.syscall_batch([("write", read_only, b"doomed")])
        assert info.value.errno == errno.EBADF

    def test_failing_prefix_flush_wins_over_the_raising_call(
            self, anception_world, enrolled_ctx):
        fd = _open_scratch(enrolled_ctx, "prefix.bin")
        # The queued write flushes when the next call raises; its own
        # failure is the earlier one in program order, so its errno wins.
        engine = FaultEngine("syscall.error:kernel=cvm:call=write:"
                             "errno=ENOSPC")
        engine.arm(anception_world.clock)
        try:
            with pytest.raises(SyscallError) as info:
                enrolled_ctx.libc.syscall_batch([
                    ("write", fd, b"queued"),
                    ("write", 99, b"x"),
                ])
        finally:
            engine.disarm()
        assert info.value.errno == errno.ENOSPC
        assert [rule["call"] for rule in engine.fired] == ["write"]

    def test_pwrite_defers_without_coalescing(self, anception_world,
                                              enrolled_ctx):
        channel = anception_world.anception.channel
        fd = _open_scratch(enrolled_ctx, "p.bin")
        enrolled_ctx.libc.write(fd, b"\x00" * 16)
        pushed_before = channel.submit_ring.stats()["pushed"]
        enrolled_ctx.libc.syscall_batch([
            ("pwrite64", fd, b"AA", 0),
            ("pwrite64", fd, b"BB", 8),
        ])
        assert channel.submit_ring.stats()["pushed"] == pushed_before + 2
        assert enrolled_ctx.libc.pread(fd, 2, 0) == b"AA"
        assert enrolled_ctx.libc.pread(fd, 2, 8) == b"BB"

    def test_host_calls_inside_batch_stay_on_host(self, anception_world,
                                                  enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        irq_before = hypervisor.interrupt_count
        assert enrolled_ctx.libc.syscall_batch([("getpid",)]) \
            == [enrolled_ctx.task.pid]
        assert hypervisor.interrupt_count == irq_before

    def test_unenrolled_task_batch_runs_sequentially(self, native_ctx):
        assert native_ctx.libc.syscall_batch([("getpid",), ("getuid",)]) \
            == [native_ctx.task.pid, native_ctx.task.credentials.uid]


class TestRebootRebinding:
    def test_reboot_rebinds_rings_preserving_depth(self):
        world = AnceptionWorld(ring_depth=16)
        anception = world.anception
        old_channel = anception.channel
        assert old_channel.ring_depth == 16
        anception.reboot_cvm()
        assert anception.channel is not old_channel
        assert anception.channel.ring_depth == 16
        assert anception.channel.num_pages == old_channel.num_pages
        assert len(anception.channel.submit_ring) == 0

    def test_redirects_still_work_after_reboot(self, anception_world,
                                               enrolled_ctx):
        anception_world.anception.reboot_cvm()
        fd = _open_scratch(enrolled_ctx, "after.bin")
        assert enrolled_ctx.libc.writev(fd, [b"ok"] * 4) == 8
