"""Submission/completion rings over the kmapped shared pages.

The naive transport rang one doorbell per marshaled call: marshal ->
IRQ -> execute -> copy back -> hypercall, so doorbells scaled 1:1 with
redirected syscalls.  This module is the virtio-style replacement the
paper's abandoned prototypes gestured at, rebuilt on the remapped-pages
channel that won: descriptors (sequence number + CRC-framed payload)
queue in the shared window, one host->guest doorbell submits every
pending descriptor and one guest->host doorbell completes them all.

Design points:

* **Bounded capacity** — a ring holds at most ``depth`` descriptors
  (derived from the channel's page count by :func:`default_ring_depth`); a
  full ring raises :class:`~repro.errors.RingFull` and the layer
  flushes before retrying (backpressure, never silent loss).
* **Per-descriptor CRC framing, while a fault engine is armed** — the
  CRC32 exists to detect injected transport faults, so a descriptor
  takes one only while an engine is armed: once at push, handed to the
  channel as its send CRC (one CRC per crossing).  ``pop`` checks it
  again only where the bytes can differ from what crossed: a payload
  the ``ring.corrupt`` fault site rewrote, or a writable buffer (a
  ``bytearray``, or a view over one) that its owner could have written
  while it sat in the ring.  Either mismatch surfaces as a typed
  :class:`~repro.errors.ChannelIntegrityError`, exactly like
  channel-level corruption.  With no engine armed nothing can rewrite
  a payload: each synchronous wire is a fresh buffer its descriptor
  owns, staged wires are ``bytes`` and completions are read-only views
  over ``bytes``, so the descriptor carries ``crc=None`` and ``pop``
  checks nothing.
* **Descriptors carry their call** — a submit descriptor holds the
  call it delivers and the guest sets that call's outcome as it pops
  it, so out-of-order delivery (the ``ring.reorder`` fault site) is
  tolerated by construction: nothing is matched back by sequence.
  The sequence number stays in the header as the wire identity.
* **Honest byte accounting** — descriptor payloads cross the channel
  through the same chunked ``_transfer`` path as before, paying the
  same calibrated per-chunk/per-byte costs; the 32-byte descriptor
  header is bookkeeping whose cost is already folded into the fixed
  per-call marshal charge, so single-call latency is unchanged.
"""

from __future__ import annotations

from collections import deque
from zlib import crc32

from repro.errors import (
    ChannelError,
    ChannelIntegrityError,
    RingFull,
)
from repro.obs.bus import maybe_span
from repro.perf.costs import PAGE_SIZE


_WIRE_TYPES = frozenset({bytes, bytearray, memoryview})
"""Exact payload classes :meth:`DelegationRing.push` accepts on sight;
subclasses take the ``isinstance`` check."""


def _read_only(payload):
    """Whether no reference can write ``payload``'s bytes: ``bytes``, or
    a view whose exporter is ``bytes``."""
    if type(payload) is memoryview:
        payload = payload.obj
    return type(payload) is bytes


RING_HEADER_BYTES = 32
"""Wire footprint of one descriptor header: seq (8) + call id (8) +
payload length (8) + CRC32 (4) + flags/pad (4)."""

RING_FLAG_WRITE_BEHIND = 0x1
"""Descriptor header flag: this call was staged by a write-behind
window and its result will be reaped asynchronously (the submitter
already returned an optimistic result to the app)."""

RING_FLAG_BINDER = 0x2
"""Descriptor header flag: a batched oneway binder transaction drained
from a binder window (the sender already let go; delivery failures go
to the per-target ledger, not a call site)."""

DESCRIPTOR_SLOT_BYTES = 512
"""Ring slot granularity used to derive the default depth from the
shared-page window (one slot holds a header plus a small payload;
larger payloads spill into the chunked data area)."""


def default_ring_depth(num_pages):
    """Ring depth derived from the channel's page budget.

    One descriptor slot per :data:`DESCRIPTOR_SLOT_BYTES` of window —
    the 8-page default channel yields 64-deep rings, matching a
    virtio-net-style queue on comparable memory.
    """
    return max(2, (num_pages * PAGE_SIZE) // DESCRIPTOR_SLOT_BYTES)


class RingDescriptor:
    """One queued call (or completion) in a delegation ring."""

    __snapshot__ = "auto"

    __slots__ = ("seq", "call", "payload", "crc", "flags", "pending")

    def __init__(self, seq, call, payload, flags=0, crc=None, pending=None):
        self.seq = seq
        self.call = call
        self.payload = payload
        self.crc = crc
        """CRC32 of the payload taken at push while a fault engine was
        armed; ``None`` when none was."""
        self.flags = flags
        self.pending = pending
        """The submitted call a submit descriptor carries (a
        :class:`~repro.core.anception.PendingCall`): the guest executes
        it and sets its outcome.  ``None`` on a completion."""

    def __repr__(self):
        return (
            f"RingDescriptor(seq={self.seq}, call={self.call!r}, "
            f"{len(self.payload)}B)"
        )


class DelegationRing:
    """One direction of the descriptor transport (submit or complete)."""

    __snapshot__ = "auto"

    COUNTERS = ("pushed", "popped", "max_depth_seen", "out_of_order",
                "deferred_pushed", "binder_pushed")
    """Run-level telemetry that outlives a lane reboot."""

    def __init__(self, name, channel, depth):
        if name not in ("submit", "complete"):
            raise ChannelError(f"unknown ring name {name!r}")
        if depth < 1:
            raise ChannelError(f"ring depth must be >= 1, got {depth}")
        self.name = name
        self.channel = channel
        self.clock = channel.hypervisor.machine.clock
        """Resolved once: a lane reboot rebuilds its rings with the new
        channel, and a machine's clock is never replaced."""
        self.depth = depth
        self.direction = "to-guest" if name == "submit" else "to-host"
        self._queue = deque()
        self._next_seq = 1
        self.pushed = 0
        self.popped = 0
        self.max_depth_seen = 0
        self.out_of_order = 0
        self.deferred_pushed = 0
        self.binder_pushed = 0

    # -- introspection -------------------------------------------------------

    def __len__(self):
        return len(self._queue)

    def free_slots(self):
        return self.depth - len(self._queue)

    @property
    def span_kind(self):
        return "ring-submit" if self.name == "submit" else "ring-complete"

    # -- producer side -------------------------------------------------------

    def push(self, call, payload, seq=None, flags=0, pending=None):
        """Queue one descriptor; its payload crosses the shared pages.

        Returns the descriptor's sequence number.  ``pending`` is the
        call a submit descriptor carries (see :class:`RingDescriptor`).
        A payload of any size is one descriptor: it crosses the window
        page by page, as one syscall's marshaled buffer does, and pays
        the per-chunk cost for every page.  The ring bounds how many descriptors are
        in flight, not how large one is: it raises :class:`RingFull`
        when every slot is taken (callers flush and retry — bounded
        backpressure).
        ``flags`` travel in the descriptor header (e.g.
        :data:`RING_FLAG_WRITE_BEHIND` for asynchronously reaped calls).
        """
        if type(payload) not in _WIRE_TYPES \
                and not isinstance(payload, (bytes, bytearray, memoryview)):
            raise ChannelError(
                f"ring payload must be bytes-like, got "
                f"{type(payload).__name__}"
            )
        # No defensive copy: the payload (a synchronous submit's fresh
        # wire, or a staged one) is referenced as-is; the descriptor owns
        # it until the window retires.
        if len(self._queue) >= self.depth:
            raise RingFull(self.name, self.depth)
        clock = self.clock
        engine = clock.faults
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        # The one CRC of this crossing: taken only while a fault can
        # reach the payload, and reused by the channel as its send CRC.
        crc = None if engine is None else crc32(payload)
        descriptor = RingDescriptor(seq, call, payload, flags, crc, pending)
        # Counted as the descriptor crosses: one whose payload then
        # fails the channel's integrity check was still pushed.
        self.pushed += 1
        if flags:
            if flags & RING_FLAG_WRITE_BEHIND:
                self.deferred_pushed += 1
            if flags & RING_FLAG_BINDER:
                self.binder_pushed += 1
        if clock.dormant:
            # Dormant observation: skip the span label/attr construction
            # entirely — the transfer itself carries the costs.
            self.channel._transfer(payload, self.direction, crc)
        else:
            with maybe_span(clock, self.span_kind, f"{call}#{seq}",
                            kernel="channel", ring=self.name, seq=seq,
                            bytes=len(payload),
                            depth=len(self._queue) + 1):
                self.channel._transfer(payload, self.direction, crc)
        self._queue.append(descriptor)
        depth_now = len(self._queue)
        if depth_now > self.max_depth_seen:
            self.max_depth_seen = depth_now
        return seq

    # -- consumer side -------------------------------------------------------

    def pop(self):
        """Dequeue the next descriptor, verifying its CRC framing.

        Returns ``None`` on an empty ring.  With no fault engine armed
        nothing can have rewritten the payload and nothing is checked.
        With one armed, the ``ring.reorder`` fault site may deliver the
        *second* queued descriptor first (each descriptor carries its
        own call, so the consumer needs no order), and ``ring.corrupt``
        flips a payload byte, which the CRC check converts into a typed
        :class:`ChannelIntegrityError`.
        """
        if not self._queue:
            return None
        engine = self.clock.faults
        if engine is None:
            self.popped += 1
            return self._queue.popleft()
        if len(self._queue) > 1 \
                and engine.fires("ring.reorder", self._queue[0].call):
            self.out_of_order += 1
            first = self._queue.popleft()
            descriptor = self._queue.popleft()
            self._queue.appendleft(first)
        else:
            descriptor = self._queue.popleft()
        self.popped += 1
        payload = pushed = descriptor.payload
        # Fires after the payload crossed the channel: corruption of the
        # descriptor slot itself, which the CRC framing is there to catch
        # (an empty payload has nothing to mangle and is not counted).
        if pushed and engine.fires("ring.corrupt", descriptor.call):
            payload = engine.flip_byte(pushed)
        expected_crc = descriptor.crc
        if payload is pushed:
            # Unrewritten: its bytes are the ones that crossed unless
            # its owner could write them (and a push with no engine
            # armed has no CRC to compare).
            if expected_crc is None or _read_only(payload):
                return descriptor
        elif expected_crc is None:
            # Armed after the push: the fault site still holds the
            # pre-fault bytes, so the CRC is taken from them.
            expected_crc = crc32(pushed)
        actual_crc = crc32(payload)
        if actual_crc != expected_crc:
            self.channel.integrity_failures += 1
            raise ChannelIntegrityError(
                self.direction, expected_crc, actual_crc, len(pushed),
            )
        descriptor.payload = payload
        return descriptor

    def inherit_counters(self, old):
        """Continue the counters of ``old``, the ring this one replaces."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(old, name))

    def reset(self):
        """Drop every queued descriptor (CVM reboot / recovery rebind)."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def stats(self):
        return {
            "depth": self.depth,
            "queued": len(self._queue),
            "pushed": self.pushed,
            "popped": self.popped,
            "max_depth_seen": self.max_depth_seen,
            "out_of_order": self.out_of_order,
            "deferred_pushed": self.deferred_pushed,
            "binder_pushed": self.binder_pushed,
        }

    def __repr__(self):
        return (
            f"DelegationRing({self.name}, depth={self.depth}, "
            f"queued={len(self._queue)})"
        )
