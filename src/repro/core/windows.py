"""Deferred windows: per-task staged calls plus a deferred-error ledger.

Write-behind (plain writes to CVM files) and the batched binder ring
(oneway transactions to CVM services) defer the same way: a call returns
optimistically while its marshaled descriptor sits in a bounded
per-task window, a drain later ships the whole window through the
delegation ring behind one doorbell pair, and a drained entry that
fails lands in a per-``(pid, key)`` ledger — first error wins — to
surface exactly once at the next fence.  :class:`DeferredWindows` is
that state for one kind on one CVM lane; the interposition layer owns
the admission rules, the drains and the fence points.
"""

from __future__ import annotations


WINDOW_DEPTH = 32
"""Default bound on one task's window (the layer clamps it to the ring
depth: a window must drain behind one doorbell pair)."""


class DeferredEntry:
    """One deferred call staged in a window.

    ``key`` names the ledger slot a failure lands in (the host fd for a
    write, the service name for a binder transaction); ``result`` is the
    optimistic value the call site already returned.
    """

    __snapshot__ = "auto"

    __slots__ = ("name", "args", "call_args", "wire", "key", "result",
                 "payload_bytes")

    def __init__(self, name, args, call_args, wire, key, result=None,
                 payload_bytes=0):
        self.name = name
        self.args = args
        self.call_args = call_args
        self.wire = wire
        self.key = key
        self.result = result
        self.payload_bytes = payload_bytes

    def __repr__(self):
        return f"DeferredEntry({self.name}, key={self.key!r})"


class _Window:
    """One task's open window of staged entries."""

    __snapshot__ = "auto"

    __slots__ = ("task", "entries")

    def __init__(self, task):
        self.task = task
        self.entries = []


class DeferredWindows:
    """Per-task bounded windows, the first-error-wins ledger, counters.

    ``label`` names the kind (``"wb"`` or ``"binder"``) and prefixes the
    charge, span and event names the layer emits for it; ``counters``
    names extra kind-specific counters, reported by :meth:`stats` after
    the common ones.
    """

    __snapshot__ = "auto"

    def __init__(self, label, depth=WINDOW_DEPTH, counters=()):
        self.label = label
        self.depth = depth
        self.windows = {}
        """pid -> :class:`_Window` of staged entries; a drain removes
        the pid's window."""
        self.errors = {}
        """(pid, key) -> deferred :class:`SyscallError` (first wins)."""
        self.enqueued = 0
        self.drains = 0
        self.fences = 0
        self.deferred_errors = 0
        self.counters = tuple(counters)
        for name in self.counters:
            setattr(self, name, 0)
        self.max_depth_seen = 0

    def window(self, task):
        window = self.windows.get(task.pid)
        if window is None:
            window = self.windows[task.pid] = _Window(task)
        return window

    def push(self, window, entry):
        """Stage ``entry`` in ``window``; returns the new window depth."""
        window.entries.append(entry)
        depth = len(window.entries)
        self.enqueued += 1
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        return depth

    def take(self, pid):
        """Detach and return ``pid``'s staged entries (a drain).

        The window itself goes too, so ``not self.windows`` means that
        nothing is staged on this lane: the write-behind fence's fast
        exit tests exactly that.
        """
        window = self.windows.pop(pid, None)
        if window is None or not window.entries:
            return None
        self.drains += 1
        return window.entries

    def pending_windows(self):
        """Windows with staged entries, in deterministic pid order."""
        return [w for _pid, w in sorted(self.windows.items())
                if w.entries]

    def record_error(self, pid, key, exc):
        """Ledger ``exc`` for ``(pid, key)``; ``True`` if it was first."""
        slot = (pid, key)
        if slot in self.errors:
            return False
        self.errors[slot] = exc
        self.deferred_errors += 1
        return True

    def take_error(self, pid, key):
        """Pop (surface-exactly-once) the deferred error for ``key``."""
        return self.errors.pop((pid, key), None)

    def errors_for(self, pid):
        """``pid``'s ledger entries, in sorted key order."""
        return {slot: self.errors[slot]
                for slot in sorted(s for s in self.errors if s[0] == pid)}

    def take_any_error(self, pid):
        """Pop this pid's first ledgered error, in sorted key order.

        A barrier that names no key must not let a deferred failure
        vanish silently — it surfaces the earliest key
        deterministically.
        """
        for slot in self.errors_for(pid):
            return self.errors.pop(slot)
        return None

    def forget(self, pid):
        """Drop ``pid``'s window and ledger (it exited or lost its proxy)."""
        self.windows.pop(pid, None)
        for slot in self.errors_for(pid):
            del self.errors[slot]

    def clear(self):
        """Drop all windows and ledger entries (container reboot: the
        descriptors and services they named died with the old CVM)."""
        self.windows.clear()
        self.errors.clear()

    def stats(self):
        stats = {
            "depth": self.depth,
            "enqueued": self.enqueued,
            "drains": self.drains,
            "fences": self.fences,
            "deferred_errors": self.deferred_errors,
        }
        for name in self.counters:
            stats[name] = getattr(self, name)
        stats["pending"] = sum(len(w.entries) for w in self.windows.values())
        stats["max_depth_seen"] = self.max_depth_seen
        return stats
