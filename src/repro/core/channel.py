"""The host<->guest communication channel (Figure 4).

Marshaled call data is copied into a fixed set of guest kernel pages that
the hypervisor has remapped (``kmap``) into host kernel space.  The guest
signals the host with hypercalls; the host signals the guest by injecting
interrupts.  Transfers are chunked into 4096-byte packets (footnote 7) —
the channel only owns a handful of pages, so a 16 MB write crosses it in
4096 chunks, each paying the per-chunk cost.

Earlier prototypes used sockets and virtio and were abandoned for copy
overhead; the remapped-pages design is what the cost model calibrates.

Each chunk crosses the shared pages through one checked primitive,
:meth:`~repro.kernel.memory.PhysicalMemory.cross_frame`: the sending
side's window, the receiving side's window and the frame range are
checked and the bytes copied in one step.

While a fault engine is armed, something can rewrite a transfer in
transit, so the transfer carries a CRC32 over the payload: corruption or
truncation is *detected* and surfaces as a typed
:class:`~repro.errors.ChannelIntegrityError` rather than silently
handing mangled bytes to the other kernel.  A ring descriptor's crossing
hands in the CRC its push already took (:mod:`repro.core.ring`), so each
crossing computes one.  With no engine armed, captured or not, there is
nothing to compare against and no CRC is computed.  The hypervisor's
doorbells report delivery, so a dropped interrupt is visible to the
sender as ``False`` instead of an indefinite hang.
"""

from __future__ import annotations

from zlib import crc32

from repro.errors import ChannelError, ChannelIntegrityError
from repro.obs.bus import maybe_span
from repro.perf.costs import PAGE_SIZE


class AnceptionChannel:
    """Bounded shared-pages transport with cost accounting.

    On top of the raw chunked byte path the channel owns one
    :class:`~repro.core.ring.DelegationRing` pair: the *submit* ring
    carries marshaled calls host->guest, the *complete* ring carries
    results guest->host, and one doorbell in each direction retires
    every descriptor queued since the last ring (doorbell coalescing).
    """

    __snapshot__ = "auto"

    COUNTERS = ("transfers", "bytes_to_guest", "bytes_to_host",
                "integrity_failures", "bulk_chunks")
    """Run-level telemetry that outlives a lane reboot."""

    def __init__(self, hypervisor, costs, num_pages=8, ring_depth=None):
        from repro.core.ring import DelegationRing, default_ring_depth

        if num_pages < 1:
            # Every chunk crosses the first shared page.
            raise ChannelError(
                f"the channel needs at least one shared page, got {num_pages}"
            )
        self.hypervisor = hypervisor
        self.costs = costs
        self.shared = hypervisor.kmap_guest_pages(num_pages)
        self.num_pages = num_pages
        self.ring_depth = (
            ring_depth if ring_depth is not None
            else default_ring_depth(num_pages)
        )
        self.submit_ring = DelegationRing("submit", self, self.ring_depth)
        self.complete_ring = DelegationRing("complete", self, self.ring_depth)
        self.bytes_to_guest = 0
        self.bytes_to_host = 0
        self.transfers = 0
        self.integrity_failures = 0
        self._bulk_depth = 0
        self.bulk_chunks = 0

    @property
    def window_bytes(self):
        """Bytes of remapped shared window — one read-ahead batch.

        The page cache stages read-ahead in window-sized batches: the
        doorbell pair for the demand miss is already paid, so anything
        that fits the window rides along for free."""
        return self.num_pages * PAGE_SIZE

    def _chunked(self, view):
        """Slice ``view`` (a memoryview) into page-sized sub-views.

        Zero-copy: each chunk is a window over the caller's buffer, not
        a materialised ``bytes``.  An empty payload still yields one
        empty chunk so the fixed per-chunk cost is charged."""
        size = view.nbytes
        if not size:
            yield view
            return
        for start in range(0, size, PAGE_SIZE):
            yield view[start : start + PAGE_SIZE]

    def send_to_guest(self, data):
        """Host -> guest: copy through the remapped pages, chunk by chunk."""
        return self._transfer(data, "to-guest")

    def send_to_host(self, data):
        """Guest -> host: same path, opposite direction and rate."""
        return self._transfer(data, "to-host")

    def _transfer(self, data, direction, crc=None):
        """Move ``data`` across the shared pages in ``direction``.

        ``crc`` is the payload's CRC32 when the caller (a ring push with
        a fault engine armed) already took it; the armed path then uses
        it as its send CRC instead of computing its own.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ChannelError(
                f"channel payload must be bytes-like, got "
                f"{type(data).__name__}"
            )
        # Zero-copy discipline: the payload is wrapped in (at most) one
        # memoryview and every stage below — chunking, the shared-page
        # frames, the CRC — operates on views over the caller's buffer.
        view = data if type(data) is memoryview else memoryview(data)
        size = view.nbytes
        inbound = direction == "to-guest"
        # Counted as the bytes cross, before the integrity check: a
        # corrupted transfer still moved its bytes (and is also counted
        # in integrity_failures).
        self.transfers += 1
        if inbound:
            self.bytes_to_guest += size
        else:
            self.bytes_to_host += size
        clock = self.hypervisor.machine.clock
        engine = clock.faults
        # One checked crossing per chunk: the sending side writes through
        # its window, the receiving side's window must cover the frame it
        # reads the chunk back out of (the kmap window makes both legal).
        shared = self.shared
        cross = shared.physical.cross_frame
        frame = shared.frames[0]
        guest = shared.guest_window
        writer, reader = (None, guest) if inbound else (guest, None)
        if engine is None and clock.dormant:
            # Fully dormant hot path: no fault engine, no capture (an
            # open overlap window's lane cursor is ``_now_ns`` too).  The
            # per-chunk charge of costs_charge_chunk is chosen once and
            # folded into one integer add, so simulated time and every
            # counter are bit-identical to the instrumented path.
            costs = self.costs
            chunk_ns = costs.chunk_fixed_ns
            bulk = inbound and self._bulk_depth
            if bulk:
                chunk_ns += costs.wb_drain_page_ns
                per_byte = 0
            elif inbound:
                per_byte = costs.marshal_in_per_byte_ns
            else:
                per_byte = costs.marshal_out_per_byte_ns
            if size <= PAGE_SIZE:
                # One chunk (an empty payload still pays one), crossed
                # whole: nearly every redirected call's payload, where a
                # slice and a loop cost a measurable share of the call.
                chunks = 1
                total_ns = chunk_ns + int(per_byte * size)
                if size:
                    cross(frame, view, writer, reader)
            else:
                # Every chunk but the last is a full page, so the charges
                # sum without a per-chunk multiply; the loop is the
                # crossings alone.
                chunks, tail = divmod(size, PAGE_SIZE)
                total_ns = chunks * (chunk_ns + int(per_byte * PAGE_SIZE))
                if tail:
                    total_ns += chunk_ns + int(per_byte * tail)
                    chunks += 1
                for start in range(0, size, PAGE_SIZE):
                    cross(frame, view[start : start + PAGE_SIZE], writer,
                          reader)
            if bulk:
                self.bulk_chunks += chunks
            clock._now_ns += total_ns
            return size
        delivered = view
        if engine is not None:
            # The send CRC, over the bytes as they leave: a ring push
            # hands in the one it already took.
            expected_crc = crc32(view) if crc is None else crc
            stall_ns = engine.delay_at("channel.stall", direction,
                                       default_ns=100_000)
            if stall_ns:
                clock.advance(stall_ns, f"fault:channel-stall:{direction}")
            # An empty payload has nothing to mangle: it crosses without
            # advancing the corrupt/truncate occurrence counters.
            if view:
                if engine.fires("channel.corrupt", direction):
                    delivered = memoryview(engine.flip_byte(view))
                elif engine.fires("channel.truncate", direction):
                    delivered = view[: len(view) // 2]
        with maybe_span(clock, "channel-copy", direction, kernel="channel",
                        direction=direction, bytes=size,
                        chunks=max(1, self.costs.chunks(size))):
            for chunk in self._chunked(delivered):
                nbytes = chunk.nbytes
                self.costs_charge_chunk(nbytes, inbound=inbound)
                if nbytes:
                    cross(frame, chunk, writer, reader)
        if delivered is view:
            # Unmodified in transit (with no engine armed nothing could
            # modify it): the bytes that arrived are the ones sent.
            return size
        # The fault engine rewrote the payload in transit; only a fresh
        # CRC over the delivered bytes can detect that.
        actual_crc = crc32(delivered)
        if delivered.nbytes != size or actual_crc != expected_crc:
            self.integrity_failures += 1
            raise ChannelIntegrityError(
                direction, expected_crc, actual_crc, size
            )
        return size

    def bulk_copy(self):
        """Context manager switching inbound copies to the bulk rate.

        A write-behind drain streams pre-staged, already-flattened
        buffers through the window, so each inbound chunk costs the
        page-copy-rate ``wb_drain_page_ns`` instead of the per-byte
        argument-marshal rate.  Outbound (completion) chunks keep the
        classic rate — they were never marshaled ahead of time.
        """
        return _BulkCopyWindow(self)

    def costs_charge_chunk(self, nbytes, inbound):
        clock = self.hypervisor.machine.clock
        clock.advance(self.costs.chunk_fixed_ns, "channel:chunk")
        if inbound and self._bulk_depth:
            self.bulk_chunks += 1
            clock.advance(self.costs.wb_drain_page_ns, "channel:bulk-copy")
            return
        per_byte = (
            self.costs.marshal_in_per_byte_ns
            if inbound
            else self.costs.marshal_out_per_byte_ns
        )
        clock.advance(int(per_byte * nbytes), "channel:copy")

    def inherit_counters(self, old):
        """Continue the counters of ``old``, the channel this one replaces.

        A lane reboot builds a fresh channel (new shared pages, empty
        rings, sequence numbers from 1) but keeps the run's telemetry,
        as the page cache and the deferred windows do.
        """
        for name in self.COUNTERS:
            setattr(self, name, getattr(old, name))
        self.submit_ring.inherit_counters(old.submit_ring)
        self.complete_ring.inherit_counters(old.complete_ring)

    def reset_rings(self):
        """Drop all in-flight descriptors (recovery / rebind path)."""
        return self.submit_ring.reset() + self.complete_ring.reset()

    def stats(self):
        return {
            "transfers": self.transfers,
            "bytes_to_guest": self.bytes_to_guest,
            "bytes_to_host": self.bytes_to_host,
            "bulk_chunks": self.bulk_chunks,
            "hypercalls": self.hypervisor.hypercall_count,
            "interrupts": self.hypervisor.interrupt_count,
            "integrity_failures": self.integrity_failures,
            "submit_ring": self.submit_ring.stats(),
            "complete_ring": self.complete_ring.stats(),
            "coalesced_doorbells": self.hypervisor.coalesced_doorbells,
            "descriptors_retired": self.hypervisor.descriptors_retired,
        }


class _BulkCopyWindow:
    """Re-entrant flag window for :meth:`AnceptionChannel.bulk_copy`."""

    __snapshot__ = "auto"

    __slots__ = ("_channel",)

    def __init__(self, channel):
        self._channel = channel

    def __enter__(self):
        self._channel._bulk_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        self._channel._bulk_depth -= 1
        return False
