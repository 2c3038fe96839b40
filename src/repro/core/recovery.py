"""Recovery for the delegation path (DESIGN §6).

The paper's resilience claim is that the CVM is *expendable*: it can
crash, be rebooted, and have proxies re-bound without losing the app.
``AnceptionLayer.recovery`` is one switch governing how far the layer
goes to honour that claim when a redirected call hits a
:class:`~repro.errors.DelegationError`:

* **off** (the default) — infrastructure failures surface immediately
  as EIO, exactly the pre-recovery behaviour the security experiments
  depend on (a crashed CVM *stays* crashed so the exploit outcome is
  observable);
* **on** — bounded retry with linear backoff, proxy re-spawn, and a
  container reboot with channel re-binding on a crash or a compromise.
  Whatever happens, the app sees either a correct result or a
  well-defined errno; never a hang, never simulator guts.

A lost doorbell is re-signalled (IRQ) or polled (hypercall) in both
modes, with the same constants.
"""

from __future__ import annotations

from collections import deque


MAX_RETRIES = 3
"""Retries of one crossing before its failure becomes EIO."""

BACKOFF_NS = 50_000
"""Backoff unit: retry ``n`` waits ``n`` units first."""

SIGNAL_RETRIES = 3
"""Re-signals of a lost guest IRQ before the call stalls out."""

SIGNAL_TIMEOUT_NS = 100_000
"""The timeout before each IRQ re-signal or completion poll."""

REBOOT_COST_NS = 250_000_000
"""Simulated cost of rebooting one container."""

RECOVERY_LOG_LIMIT = 512
"""Default bound on a :class:`RecoveryLog`: the layer keeps the most
recent entries only.  Totals live in the logs' running totals."""


class RecoveryLog:
    """Bounded ring of the layer's recovery steps (``(action, detail)``
    tuples) or of the pids of the apps it killed.

    ``entries`` is a ``deque(maxlen=limit)``: the oldest entries fall
    off past ``limit``.  ``total`` counts every entry ever appended, so
    ``dropped`` is what fell off the end.  Keeps the list-like surface
    the test suite and tooling use (iteration, membership, indexing).
    """

    __snapshot__ = "auto"

    def __init__(self, limit=RECOVERY_LOG_LIMIT):
        self.entries = deque(maxlen=int(limit))
        self.total = 0

    def append(self, entry):
        self.entries.append(entry)
        self.total += 1

    @property
    def dropped(self):
        """Entries the ring has let go."""
        return self.total - len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, entry):
        return entry in self.entries

    def __getitem__(self, index):
        return self.entries[index]

    def __repr__(self):
        return (f"RecoveryLog({list(self.entries)!r}, "
                f"dropped={self.dropped})")
