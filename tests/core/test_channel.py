"""The host<->guest channel: chunking, byte accounting, signalling."""

import pytest

from repro.core.channel import AnceptionChannel
from repro.errors import ChannelError, HypervisorViolation, SimulationError
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from repro.obs.bus import TraceBus
from repro.perf.costs import PAGE_SIZE


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


class TestTransfers:
    def test_capacity(self, channel):
        assert channel.window_bytes == 4 * PAGE_SIZE

    def test_send_to_guest_counts_bytes(self, channel):
        channel.send_to_guest(b"x" * 100)
        assert channel.bytes_to_guest == 100
        assert channel.transfers == 1

    def test_send_to_host_counts_bytes(self, channel):
        channel.send_to_host(b"y" * 50)
        assert channel.bytes_to_host == 50

    def test_large_transfer_crosses_in_chunks(self, channel, machine):
        data = b"z" * (3 * PAGE_SIZE + 10)
        with TraceBus.install(machine.clock).capture() as capture:
            channel.send_to_guest(data)
        charges = capture.charges()
        chunk_charges = [c for c in charges if c[0] == "channel:chunk"]
        assert len(chunk_charges) == 4  # ceil(3*4096+10 / 4096)

    def test_empty_payload_still_pays_one_chunk(self, channel, machine):
        before = machine.clock.now_ns
        channel.send_to_guest(b"")
        assert machine.clock.now_ns - before == machine.costs.chunk_fixed_ns

    def test_per_byte_cost_direction_asymmetric(self, channel, machine):
        data = b"d" * PAGE_SIZE
        with machine.clock.measure() as inbound:
            channel.send_to_guest(data)
        with machine.clock.measure() as outbound:
            channel.send_to_host(data)
        assert inbound.elapsed_ns > outbound.elapsed_ns

    def test_data_actually_traverses_shared_pages(self, channel):
        channel.send_to_guest(b"REAL-BYTES")
        assert channel.shared.read(10, from_guest=True) == b"REAL-BYTES"


class TestSignalling:
    def test_signal_guest_is_interrupt(self, channel):
        channel.hypervisor.inject_interrupt("call")
        assert channel.hypervisor.interrupt_count == 1

    def test_signal_host_is_hypercall(self, channel):
        channel.hypervisor.hypercall("done")
        assert channel.hypervisor.hypercall_count == 1

    def test_stats_snapshot(self, channel):
        channel.send_to_guest(b"abc")
        channel.hypervisor.inject_interrupt("x")
        channel.send_to_host(b"de")
        channel.hypervisor.hypercall("y")
        stats = channel.stats()
        assert stats["transfers"] == 2
        assert stats["bytes_to_guest"] == 3
        assert stats["bytes_to_host"] == 2
        assert stats["hypercalls"] == 1
        assert stats["interrupts"] == 1


class TestZeroCopySingleCrc:
    """One buffer wrap, and a CRC only where a fault can reach the bytes.

    ``_transfer`` used to materialise ``bytes(data)`` twice (once up
    front, once per chunk inside ``_chunked``) and CRC the same
    unmodified buffer twice.  Now every stage operates on memoryview
    windows over the caller's buffer.  With no fault engine armed,
    captured or not, nothing can rewrite the payload and no CRC is
    computed; with one armed the send CRC is computed once, and a
    second only over a payload the engine rewrote.
    """

    def _count_crcs(self, monkeypatch):
        import repro.core.channel as channel_mod
        from zlib import crc32 as real_crc32
        calls = []

        def counting(data, *args):
            calls.append(data)
            return real_crc32(data, *args)

        monkeypatch.setattr(channel_mod, "crc32", counting)
        return calls

    def test_dormant_unfaulted_transfer_computes_no_crc(
            self, channel, monkeypatch):
        calls = self._count_crcs(monkeypatch)
        channel.send_to_guest(b"q" * (2 * PAGE_SIZE + 7))
        assert calls == []
        assert channel.transfers == 1
        assert channel.integrity_failures == 0

    def test_traced_transfer_still_computes_crc_once(
            self, channel, machine, monkeypatch):
        # The instrumented (non-dormant) walk takes the chunked span
        # path.  A capture alone cannot rewrite the payload, so it takes
        # no CRC; an armed engine that does not rewrite costs one.
        from repro.faults.engine import FaultEngine

        calls = self._count_crcs(monkeypatch)
        with TraceBus.install(machine.clock).capture():
            channel.send_to_guest(b"t" * (PAGE_SIZE + 3))
            assert calls == []
            engine = FaultEngine("channel.corrupt:nth=10000").arm(
                machine.clock)
            try:
                channel.send_to_guest(b"t" * (PAGE_SIZE + 3))
            finally:
                engine.disarm()
        assert len(calls) == 1
        assert channel.integrity_failures == 0

    def test_fault_rewritten_payload_gets_a_fresh_crc(
            self, channel, machine, monkeypatch):
        from repro.errors import ChannelIntegrityError
        from repro.faults.engine import FaultEngine
        from repro.faults.plan import FaultPlan

        calls = self._count_crcs(monkeypatch)
        engine = FaultEngine(FaultPlan.parse("channel.corrupt:nth=1"),
                             seed=0)
        engine.arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError):
                channel.send_to_guest(b"r" * 100)
        finally:
            engine.disarm()
        # send CRC + fresh CRC over the rewritten payload: exactly two.
        assert len(calls) == 2
        assert channel.integrity_failures == 1

    def test_chunks_are_views_over_the_callers_buffer(
            self, channel, machine, monkeypatch):
        # Zero-copy identity: every chunk crossing the shared pages is
        # a window over the caller's own buffer, not a materialised copy
        # — in both the dormant fast path and the instrumented walk.
        data = b"z" * (2 * PAGE_SIZE + 10)
        seen = []
        physical = channel.shared.physical
        real_cross = physical.cross_frame

        def recording_cross(frame, chunk, writer=None, reader=None):
            seen.append(chunk)
            return real_cross(frame, chunk, writer, reader)

        monkeypatch.setattr(physical, "cross_frame", recording_cross)
        channel.send_to_guest(data)  # dormant fast path
        with TraceBus.install(machine.clock).capture():
            channel.send_to_guest(data)  # instrumented walk
        assert len(seen) == 6  # 3 chunks per transfer
        for chunk in seen:
            assert type(chunk) is memoryview
            assert chunk.obj is data


class TestCheckedCrossing:
    """Each chunk crosses the shared pages through one checked primitive
    (``PhysicalMemory.cross_frame``): range, writer window, reader
    window, spill -- on the dormant path and under a bus capture."""

    SENDS = ("send_to_guest", "send_to_host")

    @staticmethod
    def _send(channel, machine, direction, data, captured):
        send = getattr(channel, direction)
        if not captured:
            return send(data)
        with TraceBus.install(machine.clock).capture():
            return send(data)

    @staticmethod
    def _host_frame(machine):
        return machine.allocator.allocate(owner="test-host-page")

    @pytest.mark.parametrize("captured", [False, True])
    @pytest.mark.parametrize("direction", SENDS)
    def test_frame_outside_guest_window_is_a_violation(
            self, channel, machine, direction, captured):
        # A to-guest chunk is read out by the guest, a to-host chunk is
        # written in by the guest: either way the guest window must
        # cover the frame, so a host frame trips the hypervisor check.
        channel.shared.frames[0] = self._host_frame(machine)
        with pytest.raises(HypervisorViolation):
            self._send(channel, machine, direction, b"secret", captured)

    @pytest.mark.parametrize("captured", [False, True])
    @pytest.mark.parametrize("direction", SENDS)
    def test_out_of_range_frame_is_a_simulation_error(
            self, channel, machine, direction, captured):
        channel.shared.frames[0] = machine.physical.num_frames + 3
        with pytest.raises(SimulationError, match="out of physical range"):
            self._send(channel, machine, direction, b"x" * 10, captured)

    def test_over_page_chunk_is_a_simulation_error(self, channel):
        shared = channel.shared
        with pytest.raises(SimulationError, match="spills past"):
            shared.physical.cross_frame(
                shared.frames[0], b"o" * (PAGE_SIZE + 1), None,
                shared.guest_window,
            )

    def test_a_channel_needs_a_shared_page(self, channel):
        with pytest.raises(ChannelError, match="at least one shared page"):
            AnceptionChannel(channel.hypervisor, channel.costs, num_pages=0)

    def test_window_checks_run_before_the_copy(self, channel, machine):
        frame = self._host_frame(machine)
        physical = machine.physical
        with pytest.raises(HypervisorViolation):
            physical.cross_frame(frame, b"leak", None,
                                 channel.shared.guest_window)
        assert physical.read_frame(frame) == bytes(PAGE_SIZE)

    @pytest.mark.parametrize("direction", SENDS)
    @pytest.mark.parametrize("size", [0, 5, PAGE_SIZE, 2 * PAGE_SIZE + 9])
    def test_dormant_and_captured_transfers_leave_identical_pages(
            self, direction, size):
        data = bytes(i % 251 for i in range(size))

        def pages_after(captured):
            machine = Machine(total_mb=256)
            hypervisor = LguestHypervisor(machine, guest_mb=32)
            hypervisor.launch_guest()
            channel = AnceptionChannel(hypervisor, machine.costs,
                                       num_pages=4)
            before = machine.clock.now_ns
            self._send(channel, machine, direction, data, captured)
            shared = channel.shared
            return (shared.read(shared.capacity),
                    machine.clock.now_ns - before)

        assert pages_after(False) == pages_after(True)
