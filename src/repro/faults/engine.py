"""The fault engine: deterministic, seed-driven fault resolution.

The engine attaches to the simulation's shared :class:`~repro.clock.SimClock`
(the same pattern the trace bus uses), so every delegation layer can reach
it without new plumbing: an instrumented site reads ``clock.faults`` and,
when an engine is armed, asks whether the fault named by its ``SITES``
key fires *here, now*.  The site applies the effect itself; the engine
only resolves (:meth:`FaultEngine.fires`, :meth:`~FaultEngine.errno_at`,
:meth:`~FaultEngine.delay_at`) and draws (:meth:`~FaultEngine.flip_byte`).
All randomness comes from one ``random.Random(seed)``, and trigger
counters advance only on eligible occurrences — so a (plan, seed,
call-stream) triple resolves identically on every run, which is what
makes chaos failures replayable.

Every fired fault is recorded on the engine (for the deterministic chaos
report) and emitted as a ``fault`` event on the trace bus (for the Chrome
trace and metrics), without advancing simulated time.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.faults.plan import SITES, FaultPlan
from repro.obs.bus import maybe_event


class FaultEngine:
    """Resolves a :class:`FaultPlan` against one run's call stream."""

    __snapshot__ = "auto"

    def __init__(self, plan=None, seed=0):
        self.plan = FaultPlan.parse(plan) if not isinstance(plan, FaultPlan) \
            else plan
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = None
        self._occurrences = [0] * len(self.plan.rules)
        self._fires = [0] * len(self.plan.rules)
        self.fired = []
        """Chronological fire log: dicts of (site, spec, occurrence, ts_ns)."""

    # -- attachment ----------------------------------------------------------

    def arm(self, clock):
        """Attach to ``clock``; instrumented layers see the engine via it."""
        self.clock = clock
        clock.faults = self
        return self

    def disarm(self):
        if self.clock is not None and getattr(self.clock, "faults", None) is self:
            self.clock.faults = None
        self.clock = None

    # -- resolution ----------------------------------------------------------

    def check(self, site, call=None, kernel=None):
        """Return the first rule firing at ``site`` for this occurrence.

        Each matching rule's occurrence counter advances exactly once per
        call, whether or not it fires — the trigger arithmetic (and any
        PRNG draw for probability rules) is therefore a pure function of
        the eligible call stream.  A ``site`` missing from ``SITES`` is
        a misspelt call site, so it raises :class:`SimulationError`.
        """
        if site not in SITES:
            raise SimulationError(f"unknown fault site {site!r}")
        hit = None
        for index, rule in self.plan.rules_for(site):
            if not rule.matches(call=call, kernel=kernel):
                continue
            self._occurrences[index] += 1
            if hit is None and self._triggers(index, rule):
                self._fires[index] += 1
                hit = (index, rule)
        if hit is None:
            return None
        index, rule = hit
        self._record_fire(index, rule, call=call, kernel=kernel)
        return rule

    def fires(self, site, call=None, kernel=None):
        """Does a fault fire at ``site`` for this occurrence?"""
        return self.check(site, call, kernel) is not None

    def errno_at(self, site, call=None, kernel=None):
        """The injected errno at ``site`` (EIO unless the rule names
        one), or ``None`` when nothing fires."""
        rule = self.check(site, call, kernel)
        return None if rule is None else rule.errno_value

    def delay_at(self, site, call=None, kernel=None, *, default_ns):
        """The stall at ``site`` in ns (the rule's ``delay_us``, else
        ``default_ns``), or 0 when nothing fires."""
        rule = self.check(site, call, kernel)
        if rule is None:
            return 0
        return rule.delay_ns or default_ns

    def flip_byte(self, data):
        """``data`` as ``bytes`` with one seeded byte inverted; ``data``
        must not be empty."""
        mangled = bytearray(data)
        mangled[self.rng.randrange(len(data))] ^= 0xFF
        return bytes(mangled)

    def _triggers(self, index, rule):
        n = self._occurrences[index]
        if rule.times is not None and self._fires[index] >= rule.times:
            return False
        if rule.nth is not None:
            return n == rule.nth
        if rule.after is not None and n <= rule.after:
            return False
        if rule.every is not None:
            return n % rule.every == 0
        if rule.probability is not None:
            return self.rng.random() < rule.probability
        return True

    def _record_fire(self, index, rule, call=None, kernel=None):
        record = {
            "site": rule.site,
            "rule": rule.spec(),
            "occurrence": self._occurrences[index],
            "ts_ns": self.clock.now_ns if self.clock is not None else 0,
        }
        if call is not None:
            record["call"] = call
        if kernel is not None:
            record["kernel"] = kernel
        self.fired.append(record)
        if self.clock is not None:
            maybe_event(
                self.clock, "fault", rule.site, kernel=kernel,
                site=rule.site, rule=rule.spec(),
                occurrence=record["occurrence"], call=call or "",
            )

    # -- reporting -----------------------------------------------------------

    def report(self):
        """Deterministic JSON-able summary of everything that fired."""
        per_site = {}
        for record in self.fired:
            per_site[record["site"]] = per_site.get(record["site"], 0) + 1
        return {
            "plan": self.plan.describe(),
            "seed": self.seed,
            "fired": list(self.fired),
            "fired_total": len(self.fired),
            "fired_by_site": dict(sorted(per_site.items())),
        }
