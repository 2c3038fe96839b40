"""The lguest-style hypervisor.

The paper uses Rusty Russell's lguest as its virtualization layer: the CVM
kernel runs deprivileged, is assigned a fixed physical-memory window, and
talks to the host through **hypercalls** (guest -> host) and **injected
interrupts** (host -> guest).  Anception's communication channel remaps a
set of guest kernel pages into host kernel space with ``kmap`` so marshaled
syscall data moves without extra copies (Figure 4).

We reproduce each of those primitives:

* :meth:`LguestHypervisor.launch_guest` carves the guest window out of the
  host allocator and builds a guest :class:`~repro.kernel.kernel.Kernel`
  whose ``frame_window`` *is* that window — the enforcement point for
  "the guest cannot map memory outside the assigned region".
* :meth:`LguestHypervisor.kmap_guest_pages` returns a :class:`SharedPages`
  buffer backed by guest frames but writable from the host side.
* :meth:`hypercall` / :meth:`inject_interrupt` are the two signalling
  directions; each charges one world switch to the simulated clock.
"""

from __future__ import annotations

from repro.errors import HypervisorViolation, SimulationError
from repro.kernel.kernel import Kernel
from repro.kernel.memory import FrameAllocator
from repro.obs.bus import maybe_event, maybe_span
from repro.perf.costs import PAGE_SIZE


class SharedPages:
    """Guest kernel pages remapped into host kernel space.

    Both sides read/write the same frames.  The *guest* side goes through
    its frame window as usual; the *host* side uses hypervisor privilege
    (no window) — which is safe because the host is trusted.

    The channel's per-chunk crossing does not come through here: it
    calls :meth:`~repro.kernel.memory.PhysicalMemory.cross_frame` on
    ``frames[0]``, which checks the writer's and the reader's window and
    copies in one step.  :meth:`write` and :meth:`read` are the
    multi-frame accessors.
    """

    __snapshot__ = "auto"

    def __init__(self, physical, frames, guest_window):
        self.physical = physical
        self.frames = list(frames)
        self.guest_window = guest_window
        for frame in self.frames:
            if frame not in guest_window:
                raise SimulationError(
                    "kmap target must be a guest frame (host pages are "
                    "never exposed to the guest)"
                )
        # Plain attribute, not a property: the frame list is fixed for
        # the buffer's lifetime.
        self.capacity = len(self.frames) * PAGE_SIZE

    def write(self, data, offset=0, from_guest=False):
        """Write ``data`` starting at byte ``offset`` of the buffer.

        Zero-copy: ``data`` (bytes, bytearray or memoryview) is sliced
        into per-frame views that land directly in the physical frames —
        nothing is materialised on the way down.
        """
        window = self.guest_window if from_guest else None
        if offset + len(data) > self.capacity:
            raise SimulationError("shared-pages overflow")
        view = data if type(data) is memoryview else memoryview(data)
        while view.nbytes:
            frame_index, frame_offset = divmod(offset, PAGE_SIZE)
            chunk = min(view.nbytes, PAGE_SIZE - frame_offset)
            self.physical.write_frame(
                self.frames[frame_index], view[:chunk],
                frame_offset, window,
            )
            offset += chunk
            view = view[chunk:]

    def read(self, length, offset=0, from_guest=False):
        window = self.guest_window if from_guest else None
        if offset + length > self.capacity:
            raise SimulationError("shared-pages overread")
        out = bytearray()
        while length:
            frame_index, frame_offset = divmod(offset, PAGE_SIZE)
            chunk = min(length, PAGE_SIZE - frame_offset)
            page = self.physical.frame_view(self.frames[frame_index], window)
            out += page[frame_offset : frame_offset + chunk]
            offset += chunk
            length -= chunk
        return bytes(out)


class LguestHypervisor:
    """Deprivileged-container virtualization for one machine."""

    __snapshot__ = "auto"

    def __init__(self, machine, guest_mb=64):
        self.machine = machine
        self.guest_mb = guest_mb
        self.guest_allocator = None
        self.guest_kernel = None
        self.hypercall_count = 0
        self.interrupt_count = 0
        self.coalesced_doorbells = 0
        """Doorbells that retired more than one ring descriptor."""
        self.descriptors_retired = 0
        """Total ring descriptors retired across all doorbells."""

    @property
    def guest_window(self):
        if self.guest_allocator is None:
            raise SimulationError("guest not launched")
        return self.guest_allocator.window

    def launch_guest(self, label="cvm", data_fs=None):
        """Assign the guest its memory window and boot a guest kernel."""
        if self.guest_kernel is not None:
            raise SimulationError("guest already launched")
        frames = self.guest_mb * 1024 * 1024 // PAGE_SIZE
        self.guest_allocator = self.machine.allocator.carve_subwindow(
            frames, label
        )
        self.guest_kernel = Kernel(
            label,
            self.guest_allocator,
            self.machine.clock,
            self.machine.internet,
            self.machine.costs,
            frame_window=self.guest_allocator.window,
            data_fs=data_fs,
        )
        return self.guest_kernel

    def relaunch_guest(self, label="cvm", data_fs=None):
        """Reboot the guest: scrub its RAM, boot a fresh kernel.

        The memory window is fixed at machine partitioning time and is
        reused; everything the old kernel held is gone — persistence
        comes only from host-held state such as the virtual data disk.
        """
        if self.guest_kernel is None:
            raise SimulationError("no guest to relaunch")
        window = self.guest_allocator.window
        if not self.guest_kernel.crashed:
            # an orderly reboot still tears the old instance down
            try:
                self.guest_kernel.panic("reboot requested")
            except Exception:
                pass
        self.machine.physical.scrub_window(window)
        self.guest_allocator = FrameAllocator(
            self.machine.physical, window, label
        )
        self.guest_kernel = Kernel(
            label,
            self.guest_allocator,
            self.machine.clock,
            self.machine.internet,
            self.machine.costs,
            frame_window=window,
            data_fs=data_fs,
        )
        return self.guest_kernel

    def kmap_guest_pages(self, num_pages):
        """Remap ``num_pages`` guest frames into host kernel space."""
        frames = [
            self.guest_allocator.allocate(owner="anception-channel")
            for _ in range(num_pages)
        ]
        return SharedPages(self.machine.physical, frames, self.guest_window)

    def _account_doorbell(self, reason, coalesced, direction):
        """Doorbell-coalescing accounting: one ring, N descriptors."""
        self.descriptors_retired += coalesced
        if coalesced > 1:
            self.coalesced_doorbells += 1
            maybe_event(self.machine.clock, "doorbell-coalesced",
                        f"{direction}:{reason}", kernel="hypervisor",
                        direction=direction, coalesced=coalesced)

    def hypercall(self, reason="", coalesced=1):
        """Guest signals the host (one world switch).

        Returns ``True`` when the signal was delivered; a fault plan may
        drop it, in which case no world switch happens and the caller is
        expected to time out and poll.  ``coalesced`` is how many ring
        descriptors this doorbell completes — the world switch is paid
        once regardless, which is the whole point of the ring transport.
        """
        clock = self.machine.clock
        engine = clock.faults
        if engine is not None and engine.fires("hypercall.drop"):
            return False
        self.hypercall_count += 1
        if clock.dormant:
            # Fully dormant observation: same counters, same simulated
            # time, none of the span/reason-string construction.
            self.descriptors_retired += coalesced
            if coalesced > 1:
                self.coalesced_doorbells += 1
            clock._now_ns += self.machine.costs.world_switch_ns
            return True
        self._account_doorbell(reason, coalesced, "guest->host")
        with maybe_span(clock, "world-switch",
                        f"hypercall:{reason}", kernel="hypervisor",
                        direction="guest->host", coalesced=coalesced):
            clock.advance(
                self.machine.costs.world_switch_ns, f"hypercall:{reason}"
            )
        return True

    def inject_interrupt(self, reason="", coalesced=1):
        """Host signals the guest (one world switch).

        Returns ``True`` when delivered.  A fault plan may drop the IRQ
        (returns ``False``: the guest never wakes, the sender must
        re-signal) or duplicate it (delivered twice; harmless, because
        doorbell handling is level-triggered/idempotent — a property the
        differential tests pin down).  ``coalesced`` counts the ring
        descriptors this doorbell submits (see :meth:`hypercall`).
        """
        clock = self.machine.clock
        engine = clock.faults
        if engine is None and clock.dormant:
            self.descriptors_retired += coalesced
            if coalesced > 1:
                self.coalesced_doorbells += 1
            self.interrupt_count += 1
            clock._now_ns += self.machine.costs.world_switch_ns
            return True
        if engine is not None and engine.fires("irq.drop"):
            return False
        rounds = 2 if engine is not None and engine.fires("irq.dup") else 1
        self._account_doorbell(reason, coalesced, "host->guest")
        for _ in range(rounds):
            self.interrupt_count += 1
            with maybe_span(clock, "world-switch",
                            f"irq:{reason}", kernel="hypervisor",
                            direction="host->guest", coalesced=coalesced):
                clock.advance(
                    self.machine.costs.world_switch_ns, f"irq:{reason}"
                )
            maybe_event(clock, "irq", f"irq:{reason}",
                        kernel="hypervisor")
        return True

    def guest_map_frame(self, frame):
        """A guest attempt to map an arbitrary physical frame.

        This is the attack a compromised CVM kernel would try; the
        hypervisor refuses anything outside the window.
        """
        if frame not in self.guest_window:
            raise HypervisorViolation(
                f"guest attempted to map host frame {frame}"
            )
        return frame

    def guest_memory_stats(self):
        """(assigned_kb, used_kb, free_kb) for the guest window."""
        assigned = len(self.guest_window) * PAGE_SIZE // 1024
        used = self.guest_allocator.used_frames * PAGE_SIZE // 1024
        return assigned, used, assigned - used
