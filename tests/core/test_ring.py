"""The delegation rings: descriptors, CRC framing, depth, backpressure."""

from zlib import crc32

import pytest

from repro.core.channel import AnceptionChannel
from repro.core.marshal import marshal_call_into
from repro.core.ring import (
    DESCRIPTOR_SLOT_BYTES,
    RING_HEADER_BYTES,
    DelegationRing,
    default_ring_depth,
)
from repro.errors import (
    ChannelError,
    ChannelIntegrityError,
    RingFull,
)
from repro.faults.engine import FaultEngine
from repro.hypervisor import LguestHypervisor
from repro.kernel import vfs
from repro.kernel.kernel import Machine
from repro.perf.costs import PAGE_SIZE
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


class TestDepthDerivation:
    def test_default_depth_scales_with_pages(self):
        assert default_ring_depth(8) == 8 * PAGE_SIZE // DESCRIPTOR_SLOT_BYTES
        assert default_ring_depth(8) == 64
        assert default_ring_depth(4) == 32

    def test_default_depth_floor(self):
        assert default_ring_depth(0) == 2

    def test_channel_builds_rings_at_derived_depth(self, channel):
        assert channel.submit_ring.depth == 32
        assert channel.complete_ring.depth == 32
        assert channel.ring_depth == 32

    def test_explicit_ring_depth_knob(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        shallow = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                   ring_depth=2)
        assert shallow.submit_ring.depth == 2
        assert shallow.complete_ring.depth == 2

    def test_bad_ring_names_and_depths_rejected(self, channel):
        with pytest.raises(ChannelError):
            DelegationRing("sideways", channel, 4)
        with pytest.raises(ChannelError):
            DelegationRing("submit", channel, 0)


class TestPushPop:
    def test_round_trip_preserves_payload(self, channel):
        seq = channel.submit_ring.push("write", b"payload-bytes")
        descriptor = channel.submit_ring.pop()
        assert descriptor.seq == seq
        assert descriptor.call == "write"
        assert descriptor.payload == b"payload-bytes"

    def test_sequence_numbers_are_monotonic(self, channel):
        seqs = [channel.submit_ring.push("write", b"x") for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_pop_empty_returns_none(self, channel):
        assert channel.submit_ring.pop() is None

    def test_payload_crosses_the_shared_pages(self, channel):
        channel.submit_ring.push("write", b"RING-BYTES")
        assert channel.shared.read(10, from_guest=True) == b"RING-BYTES"

    def test_completion_ring_uses_caller_seq(self, channel):
        channel.complete_ring.push("write", b"\x00" * 8, seq=41)
        descriptor = channel.complete_ring.pop()
        assert descriptor.seq == 41

    def test_non_bytes_payload_rejected(self, channel):
        with pytest.raises(ChannelError):
            channel.submit_ring.push("write", "not-bytes")

    def test_push_charges_the_channel_transfer(self, channel, machine):
        before = channel.bytes_to_guest
        channel.submit_ring.push("write", b"d" * 600)
        assert channel.bytes_to_guest - before == 600


class TestCapacityAndBackpressure:
    def test_descriptor_larger_than_the_window_is_one_descriptor(
            self, channel):
        """The ring bounds descriptor count, not size: a payload twice
        the window crosses page by page and pops whole."""
        payload = bytes(range(256)) * (2 * channel.window_bytes // 256)
        before = channel.bytes_to_guest
        seq = channel.submit_ring.push("write", payload)
        assert channel.bytes_to_guest - before == len(payload)
        assert len(channel.submit_ring) == 1
        descriptor = channel.submit_ring.pop()
        assert descriptor.seq == seq
        assert descriptor.payload == payload
        assert channel.submit_ring.pop() is None

    def test_largest_fitting_descriptor_accepted(self, channel):
        just_fits = b"x" * (channel.window_bytes - RING_HEADER_BYTES)
        assert channel.submit_ring.push("write", just_fits) > 0

    def test_full_ring_raises_ring_full(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        tight = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                 ring_depth=3)
        for _ in range(3):
            tight.submit_ring.push("write", b"w")
        with pytest.raises(RingFull) as exc:
            tight.submit_ring.push("write", b"w")
        assert exc.value.depth == 3
        assert tight.submit_ring.free_slots() == 0

    def test_pop_frees_a_slot(self, machine):
        hypervisor = LguestHypervisor(machine, guest_mb=32)
        hypervisor.launch_guest()
        tight = AnceptionChannel(hypervisor, machine.costs, num_pages=4,
                                 ring_depth=2)
        tight.submit_ring.push("write", b"a")
        tight.submit_ring.push("write", b"b")
        tight.submit_ring.pop()
        assert tight.submit_ring.free_slots() == 1
        tight.submit_ring.push("write", b"c")


class TestFaultSites:
    def test_ring_corrupt_surfaces_as_integrity_error(self, channel,
                                                      machine):
        engine = FaultEngine("ring.corrupt:nth=1").arm(machine.clock)
        try:
            channel.submit_ring.push("write", b"precious-payload")
            with pytest.raises(ChannelIntegrityError):
                channel.submit_ring.pop()
        finally:
            engine.disarm()
        assert channel.integrity_failures == 1

    def test_ring_reorder_delivers_second_first(self, channel, machine):
        first = channel.submit_ring.push("write", b"first")
        second = channel.submit_ring.push("write", b"second")
        engine = FaultEngine("ring.reorder:nth=1").arm(machine.clock)
        try:
            assert channel.submit_ring.pop().seq == second
            assert channel.submit_ring.pop().seq == first
        finally:
            engine.disarm()
        assert channel.submit_ring.out_of_order == 1


def _count_crcs(monkeypatch):
    """Every ``crc32`` the ring and the channel take, in call order."""
    import repro.core.channel as channel_mod
    import repro.core.ring as ring_mod
    calls = []

    def counting(data, *args):
        calls.append(bytes(data))
        return crc32(data, *args)

    monkeypatch.setattr(ring_mod, "crc32", counting)
    monkeypatch.setattr(channel_mod, "crc32", counting)
    return calls


class TestDormantRing:
    """With no fault engine armed nothing can rewrite a payload between
    push and pop, so the ring takes no CRC and ``pop`` checks none."""

    def test_push_and_pop_take_no_crc(self, channel, machine,
                                      monkeypatch):
        assert machine.clock.faults is None and machine.clock.dormant
        calls = _count_crcs(monkeypatch)
        wire, _size = marshal_call_into("pwrite64", (3, b"w" * 64, 0), {})
        channel.submit_ring.push("pwrite64", wire)
        channel.complete_ring.push("pwrite64", b"\x00" * 8, seq=1)
        assert channel.submit_ring.pop().crc is None
        assert channel.complete_ring.pop().payload == b"\x00" * 8
        assert calls == []


class TestArmedCrc:
    """While a fault engine is armed the per-descriptor CRC is taken once
    at push, and ``pop`` checks it wherever the bytes can differ from
    what crossed.  The engine's rule never fires here: a byte flipped by
    the buffer's owner while its descriptor sits on the ring must still
    be caught at ``pop``.
    """

    @pytest.fixture
    def armed(self, machine):
        engine = FaultEngine("ring.corrupt:nth=10000").arm(machine.clock)
        yield engine
        engine.disarm()

    def test_flipped_byte_in_a_queued_buffer_fails_pop(self, channel,
                                                       armed):
        buffer = bytearray(b"armed-payload")
        channel.submit_ring.push("write", memoryview(buffer))
        buffer[3] ^= 0xFF
        with pytest.raises(ChannelIntegrityError):
            channel.submit_ring.pop()
        assert channel.integrity_failures == 1

    def test_flipped_byte_in_a_marshaled_wire_fails_pop(self, channel,
                                                        armed):
        wire, size = marshal_call_into("pwrite64", (3, b"w" * 64, 0), {})
        channel.submit_ring.push("pwrite64", wire)
        wire[size // 2] ^= 0xFF
        with pytest.raises(ChannelIntegrityError):
            channel.submit_ring.pop()
        assert channel.integrity_failures == 1

    def test_push_takes_one_crc_the_channel_reuses(self, channel, armed,
                                                   monkeypatch):
        calls = _count_crcs(monkeypatch)
        payload = b"p" * (PAGE_SIZE + 104)
        channel.submit_ring.push("write", payload)
        assert calls == [payload]
        descriptor = channel.submit_ring.pop()
        # bytes cannot change while queued: pop has nothing to re-read.
        assert calls == [payload]
        assert descriptor.crc == crc32(payload)

    def test_a_writable_payload_is_read_again_at_pop(self, channel, armed,
                                                     monkeypatch):
        calls = _count_crcs(monkeypatch)
        wire, _size = marshal_call_into("pwrite64", (3, b"w" * 64, 0), {})
        channel.submit_ring.push("pwrite64", wire)
        channel.submit_ring.pop()
        assert calls == [bytes(wire), bytes(wire)]
        assert channel.integrity_failures == 0

    def test_ring_corrupt_armed_between_push_and_pop_is_detected(
            self, channel, machine):
        payload = b"pushed-while-dormant"
        channel.submit_ring.push("write", payload)
        engine = FaultEngine("ring.corrupt:nth=1").arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError) as exc:
                channel.submit_ring.pop()
        finally:
            engine.disarm()
        # The expected CRC comes from the pre-fault bytes at the site.
        assert exc.value.expected_crc == crc32(payload)
        assert exc.value.actual_crc != crc32(payload)
        assert channel.integrity_failures == 1

    def test_engine_armed_after_the_push_lets_an_unfaulted_pop_by(
            self, channel, machine):
        # Pushed before any engine: no CRC exists, and an unrewritten
        # payload has nothing to be checked against.
        buffer = bytearray(b"queued")
        channel.submit_ring.push("write", buffer)
        engine = FaultEngine("ring.corrupt:nth=10000").arm(machine.clock)
        try:
            assert channel.submit_ring.pop().payload is buffer
        finally:
            engine.disarm()
        assert channel.integrity_failures == 0


class TestArmedRedirectedPwrite:
    """A redirected 4 KB ``pwrite`` under an armed engine that rewrites
    nothing: each descriptor's crossing takes one CRC."""

    def _crcs_per_pwrite(self, monkeypatch, **knobs):
        world = AnceptionWorld(**knobs)
        running = world.install_and_launch(ScratchApp())
        running.run()
        libc = running.ctx.libc
        fd = libc.open(running.ctx.data_path("armed.bin"),
                       vfs.O_RDWR | vfs.O_CREAT, 0o600)
        page = b"a" * PAGE_SIZE
        libc.pwrite(fd, page, 0)
        libc.fence(fd)
        channel = world.anception.channel
        engine = FaultEngine("ring.corrupt:nth=100000").arm(
            world.machine.clock)
        try:
            calls = _count_crcs(monkeypatch)
            before = (channel.submit_ring.pushed
                      + channel.complete_ring.pushed)
            assert libc.pwrite(fd, page, 0) == PAGE_SIZE
            libc.fence(fd)
        finally:
            engine.disarm()
        descriptors = (channel.submit_ring.pushed
                       + channel.complete_ring.pushed - before)
        assert channel.integrity_failures == 0
        return calls, descriptors

    def test_a_staged_pwrite_takes_one_crc_per_descriptor(
            self, monkeypatch):
        calls, descriptors = self._crcs_per_pwrite(
            monkeypatch, async_delegation=True)
        assert descriptors == 2  # the staged wire and its completion
        assert len(calls) == descriptors

    def test_a_sync_pwrite_rereads_only_its_writable_wire(
            self, monkeypatch):
        calls, descriptors = self._crcs_per_pwrite(monkeypatch)
        assert descriptors == 2  # the sync wire and its completion
        # One CRC per crossing, plus the pop's re-read of the sync wire:
        # a bytearray, so only reading it again can show a write made
        # while it sat on the ring.  The completion is a view over bytes.
        wire_size = len(calls[0])
        assert wire_size > PAGE_SIZE
        assert [len(data) for data in calls] == [wire_size, wire_size, 8]


class TestReorderedWindow:
    """``ring.reorder`` on the submit ring changes the order in which the
    guest runs a window's calls; each call still gets its own result,
    returned in submission order."""

    def _vectored(self, name, *args):
        world = AnceptionWorld()
        running = world.install_and_launch(ScratchApp())
        running.run()
        libc = running.ctx.libc
        fd = libc.open(running.ctx.data_path("reordered.bin"),
                       vfs.O_RDWR | vfs.O_CREAT, 0o600)
        if name == "readv":
            libc.write(fd, b"aabbbcccc")
            libc.lseek(fd, 0, 0)
        engine = FaultEngine("ring.reorder:nth=1").arm(world.machine.clock)
        try:
            result = getattr(libc, name)(fd, *args)
        finally:
            engine.disarm()
        assert world.anception.channel.submit_ring.out_of_order == 1
        return result, libc.pread(fd, 16, 0)

    def test_each_read_returns_its_own_bytes(self):
        chunks, _data = self._vectored("readv", (2, 3, 4))
        # The guest ran the 3-byte read first, so it took the first
        # three bytes; the 2-byte read still returns its own 2.
        assert list(chunks) == [b"bb", b"aab", b"cccc"]

    def test_each_write_counts_its_own_bytes(self):
        written, data = self._vectored("writev", (b"aa", b"bbb", b"cccc"))
        assert written == 9
        assert data == b"bbbaacccc"


class TestResetAndStats:
    def test_reset_drops_queued_descriptors(self, channel):
        channel.submit_ring.push("write", b"a")
        channel.submit_ring.push("write", b"b")
        assert channel.submit_ring.reset() == 2
        assert channel.submit_ring.pop() is None

    def test_reset_rings_clears_both_directions(self, channel):
        channel.submit_ring.push("write", b"a")
        channel.complete_ring.push("write", b"\x00", seq=1)
        channel.reset_rings()
        assert len(channel.submit_ring) == 0
        assert len(channel.complete_ring) == 0

    def test_stats_track_traffic(self, channel):
        channel.submit_ring.push("write", b"a")
        channel.submit_ring.push("write", b"b")
        channel.submit_ring.pop()
        stats = channel.submit_ring.stats()
        assert stats["pushed"] == 2
        assert stats["popped"] == 1
        assert stats["queued"] == 1
        assert stats["max_depth_seen"] == 2

    def test_channel_stats_include_rings(self, channel):
        stats = channel.stats()
        assert stats["submit_ring"]["depth"] == 32
        assert stats["complete_ring"]["depth"] == 32
        assert stats["coalesced_doorbells"] == 0
        assert stats["descriptors_retired"] == 0
