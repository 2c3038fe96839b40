"""The host<->guest channel: chunking, byte accounting, signalling."""

import pytest

from repro.core.channel import AnceptionChannel
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
        assert channel.capacity == 4 * PAGE_SIZE

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
        channel.signal_guest("call")
        assert channel.hypervisor.interrupt_count == 1

    def test_signal_host_is_hypercall(self, channel):
        channel.signal_host("done")
        assert channel.hypervisor.hypercall_count == 1

    def test_stats_snapshot(self, channel):
        channel.send_to_guest(b"abc")
        channel.signal_guest("x")
        channel.send_to_host(b"de")
        channel.signal_host("y")
        stats = channel.stats()
        assert stats["transfers"] == 2
        assert stats["bytes_to_guest"] == 3
        assert stats["bytes_to_host"] == 2
        assert stats["hypercalls"] == 1
        assert stats["interrupts"] == 1


class TestZeroCopySingleCrc:
    """PR 9 bugfix pin: one buffer wrap, one CRC per unfaulted transfer.

    ``_transfer`` used to materialise ``bytes(data)`` twice (once up
    front, once per chunk inside ``_chunked``) and CRC the same
    unmodified buffer twice.  Now every stage operates on memoryview
    windows over the caller's buffer and the integrity CRC reuses the
    send CRC whenever the fault engine did not rewrite the payload.
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

    def test_unfaulted_transfer_computes_crc_exactly_once(
            self, channel, monkeypatch):
        calls = self._count_crcs(monkeypatch)
        channel.send_to_guest(b"q" * (2 * PAGE_SIZE + 7))
        assert len(calls) == 1
        assert channel.transfers == 1
        assert channel.integrity_failures == 0

    def test_traced_transfer_still_computes_crc_once(
            self, channel, machine, monkeypatch):
        # The instrumented (non-dormant) walk takes the chunked span
        # path; the single-CRC discipline must hold there too.
        calls = self._count_crcs(monkeypatch)
        with TraceBus.install(machine.clock).capture():
            channel.send_to_guest(b"t" * (PAGE_SIZE + 3))
        assert len(calls) == 1

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
        # Zero-copy identity: every chunk written to the shared pages is
        # a window over the caller's own buffer, not a materialised copy
        # — in both the dormant fast path and the instrumented walk.
        data = b"z" * (2 * PAGE_SIZE + 10)
        seen = []
        real_write = channel.shared.write

        def recording_write(chunk, offset=0, from_guest=False):
            seen.append(chunk)
            return real_write(chunk, offset=offset, from_guest=from_guest)

        monkeypatch.setattr(channel.shared, "write", recording_write)
        channel.send_to_guest(data)  # dormant fast path
        with TraceBus.install(machine.clock).capture():
            channel.send_to_guest(data)  # instrumented walk
        assert len(seen) == 6  # 3 chunks per transfer
        for chunk in seen:
            assert type(chunk) is memoryview
            assert chunk.obj is data
