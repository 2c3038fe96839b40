"""Reusable byte-slab pool for the delegation hot path.

Every redirected syscall used to materialise its wire payload several
times over: the marshal layer built a ``bytearray`` and flattened it to
``bytes``, the ring copied it again on push, the channel copied it once
more per transfer and once per 4 KB chunk.  On a single-threaded engine
those copies (and the allocator churn behind them) were the top wall
clock zones the profiler attributed.  This module is the discipline that
replaces them:

* a :class:`SlabPool` hands out recycled ``bytearray`` slabs the marshal
  encoder renders wire bytes into **once**;
* callers export :class:`memoryview` windows over a slab (via
  :meth:`SlabPool.view`) and pass *those* down the ring/channel stack —
  every later stage slices views, it never copies;
* :meth:`SlabPool.recycle` **releases** every exported view before the
  slab returns to the freelist, so a stale reference held past the
  slab's lifetime raises ``ValueError`` on its next access instead of
  silently observing recycled bytes (the aliasing-safety property the
  Hypothesis suite pins).

The pool is plain host-side bookkeeping: it never touches the simulated
clock, so slab reuse is invisible to every sim-time digest.
"""

from __future__ import annotations


DEFAULT_SLAB_BYTES = 32 * 1024
"""Default slab size: one full 8-page channel window.  A larger wire
payload gets a dedicated oversize slab and crosses the window page by
page as one descriptor."""

DEFAULT_MAX_FREE = 32
"""Freelist bound: slabs beyond this are dropped to the allocator
instead of hoarded (one submit window plus headroom)."""

_ZEROS = bytes(DEFAULT_SLAB_BYTES)
"""Shared all-zero buffer backing :func:`zeros` views."""


def zeros(length):
    """A read-only all-zero buffer of ``length`` bytes, shared when small.

    Completion descriptors carry ``length`` zero bytes (the simulation
    models result sizes, not result content); serving them as views over
    one shared buffer removes a per-completion allocation.
    """
    if length <= len(_ZEROS):
        return memoryview(_ZEROS)[:length]
    return memoryview(bytes(length))


class Slab:
    """One pooled ``bytearray`` plus the live views exported over it."""

    __snapshot__ = "auto"

    __slots__ = ("buf", "views")

    def __init__(self, size):
        self.buf = bytearray(size)
        self.views = []

    def __len__(self):
        return len(self.buf)

    def __repr__(self):
        return f"Slab({len(self.buf)}B, {len(self.views)} views)"


class SlabPool:
    """Bounded freelist of reusable byte slabs.

    ``acquire`` -> render into ``slab.buf`` -> ``view`` -> ship the view
    -> ``recycle`` when the transfer window retires.  Recycling releases
    every exported view first, which is the enforcement mechanism: code
    that stashed a view past its window gets ``ValueError: operation
    forbidden on released memoryview object`` instead of aliased garbage.
    """

    __snapshot__ = "auto"

    def __init__(self, slab_bytes=DEFAULT_SLAB_BYTES,
                 max_free=DEFAULT_MAX_FREE):
        self.slab_bytes = int(slab_bytes)
        self.max_free = int(max_free)
        self._free = []
        self.acquired = 0
        self.recycled = 0
        self.reused = 0
        self.oversize = 0

    def acquire(self, size):
        """A slab whose buffer holds at least ``size`` bytes."""
        self.acquired += 1
        if size <= self.slab_bytes and self._free:
            self.reused += 1
            return self._free.pop()
        if size > self.slab_bytes:
            # Oversize payloads get a dedicated slab; it is recycled to
            # the allocator (never the freelist) to keep the pool lean.
            self.oversize += 1
            return Slab(size)
        return Slab(self.slab_bytes)

    def view(self, slab, length):
        """Export (and track) a writable window over ``slab``'s buffer."""
        view = memoryview(slab.buf)[:length]
        slab.views.append(view)
        return view

    def recycle(self, slab):
        """Return ``slab`` to the freelist, invalidating its views."""
        if slab is None:
            return
        for view in slab.views:
            view.release()
        slab.views.clear()
        self.recycled += 1
        if len(slab.buf) <= self.slab_bytes \
                and len(self._free) < self.max_free:
            self._free.append(slab)

    def stats(self):
        return {
            "slab_bytes": self.slab_bytes,
            "free": len(self._free),
            "acquired": self.acquired,
            "reused": self.reused,
            "recycled": self.recycled,
            "oversize": self.oversize,
        }

    def __repr__(self):
        return (f"SlabPool({self.slab_bytes}B slabs, "
                f"{len(self._free)} free, {self.acquired} acquired)")
