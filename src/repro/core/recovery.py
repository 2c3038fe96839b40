"""Recovery policy for the delegation path (DESIGN S-recovery).

The paper's resilience claim is that the CVM is *expendable*: it can
crash, be rebooted, and have proxies re-bound without losing the app.
:class:`RecoveryPolicy` is the knob set governing how far the Anception
layer goes to honour that claim when a redirected call hits a
:class:`~repro.errors.DelegationError`:

* **disabled** (the default) — infrastructure failures surface
  immediately as EIO, exactly the pre-recovery behaviour the security
  experiments depend on (a crashed CVM *stays* crashed so the exploit
  outcome is observable);
* **enabled** — bounded retry with linear backoff, proxy re-spawn,
  container reboot with channel re-binding, and a paranoid optional
  reboot-on-compromise.  Whatever happens, the app sees either a correct
  result or a well-defined errno; never a hang, never simulator guts.
"""

from __future__ import annotations

from collections import deque


RECOVERY_LOG_LIMIT = 512
"""Default bound on a :class:`RecoveryLog`: the layer keeps the most
recent entries only.  Totals live in the logs' running totals."""

class RecoveryPolicy:
    """How the Anception layer reacts to delegation-layer failures."""

    __snapshot__ = "auto"

    def __init__(self, enabled=False, max_retries=3, backoff_ns=50_000,
                 signal_retries=3, signal_timeout_ns=100_000,
                 reboot_on_crash=True, respawn_proxies=True,
                 reboot_on_compromise=False, reboot_cost_ns=250_000_000):
        self.enabled = enabled
        self.max_retries = max_retries
        self.backoff_ns = backoff_ns
        self.signal_retries = signal_retries
        self.signal_timeout_ns = signal_timeout_ns
        self.reboot_on_crash = reboot_on_crash
        self.respawn_proxies = respawn_proxies
        self.reboot_on_compromise = reboot_on_compromise
        self.reboot_cost_ns = reboot_cost_ns

    @classmethod
    def chaos_default(cls):
        """The policy the chaos harness runs under: everything on."""
        return cls(enabled=True, reboot_on_compromise=True)

    def backoff_for(self, attempt):
        """Linear backoff: attempt 1 waits one unit, attempt 2 two, ..."""
        return self.backoff_ns * max(1, attempt)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (
            f"RecoveryPolicy({state}, max_retries={self.max_retries}, "
            f"reboot_on_crash={self.reboot_on_crash})"
        )


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
