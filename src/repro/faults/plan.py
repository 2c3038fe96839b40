"""Fault plans: *what* to break, *where*, and *when*.

A plan is an ordered list of rules.  Each rule names an injection site
(one per delegation layer — syscall dispatch, the shared-page channel,
IRQ/hypercall delivery, the proxy, the container VM) plus a trigger:
fire on the nth eligible occurrence, every k-th, after a warm-up, with a
probability, or always.  Probability draws come from the engine's
seeded PRNG, so a (plan, seed, workload) triple replays exactly.

Plans have a compact one-line spelling for the CLI::

    cvm.crash:nth=3:call=open;channel.corrupt:p=0.05;irq.drop:nth=6

i.e. ``;``-separated rules, each ``site[:key=value]*``.
"""

from __future__ import annotations

import errno as _errno


SITES = {
    "syscall.error": "fail a syscall at dispatch with an injected errno",
    "syscall.delay": "stall a syscall at dispatch for delay_us",
    "channel.corrupt": "flip one payload byte crossing the shared pages",
    "channel.truncate": "deliver only a prefix of the payload",
    "channel.stall": "stall a channel transfer for delay_us",
    "irq.drop": "lose a host->guest doorbell interrupt",
    "irq.dup": "deliver a host->guest interrupt twice",
    "hypercall.drop": "lose a guest->host completion hypercall",
    "ring.corrupt": "flip one byte of a ring descriptor payload in place",
    "ring.reorder": "deliver ring descriptors out of submission order",
    "cache.stale": "treat a delegated-read cache lookup as stale "
                   "(invalidate the file's pages and refetch)",
    "cache.evict": "evict the demanded pages just before a cache lookup",
    "wb.error": "fail a write-behind window entry at drain time with an "
                "injected errno (ledgered, surfaced at the next fence)",
    "wb.reap-loss": "the completion reaper misses a drained write-behind "
                    "batch (recovery re-polls; otherwise results are lost)",
    "binder.drop": "drop one batched oneway binder transaction at drain "
                   "time (ledgered per (pid, target), surfaced at the "
                   "next fence-on-reply)",
    "binder.reorder": "swap the first two transactions of a drained "
                      "binder window",
    "binder.reply-loss": "the reaper misses a drained binder window's "
                         "completions (recovery re-polls; otherwise the "
                         "outcomes are lost)",
    "pool.placement-flap": "divert a pool placement decision one lane "
                           "over at enrollment (multi-CVM worlds only)",
    "proxy.kill": "kill the CVM proxy mid-call",
    "cvm.crash": "panic the container VM mid-call",
    "cvm.compromise": "give an attacker the container VM kernel",
    "cvm.slow-boot": "stretch a container reboot by delay_us",
}

_TRIGGER_KEYS = ("p", "nth", "every", "after", "times")
_FILTER_KEYS = ("call", "kernel")
_EFFECT_KEYS = ("errno", "delay_us")
_ALL_KEYS = _TRIGGER_KEYS + _FILTER_KEYS + _EFFECT_KEYS


class FaultRule:
    """One injection site plus its trigger, filters, and effect knobs."""

    __snapshot__ = "auto"

    def __init__(self, site, probability=None, nth=None, every=None,
                 after=None, times=None, call=None, kernel=None,
                 errno_name=None, delay_us=None):
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(f"unknown fault site {site!r} (known: {known})")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        for label, value in (("nth", nth), ("every", every),
                             ("after", after), ("times", times),
                             ("delay_us", delay_us)):
            if value is not None and value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")
        if errno_name is not None and not hasattr(_errno, errno_name):
            raise ValueError(f"unknown errno name {errno_name!r}")
        self.site = site
        self.probability = probability
        self.nth = nth
        self.every = every
        self.after = after
        self.times = times
        self.call = call
        self.kernel = kernel
        self.errno_name = errno_name
        self.delay_us = delay_us

    @classmethod
    def parse(cls, text):
        """Parse one ``site[:key=value]*`` rule."""
        parts = [part.strip() for part in text.strip().split(":") if part.strip()]
        if not parts:
            raise ValueError("empty fault rule")
        site, params = parts[0], {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(f"malformed fault parameter {part!r} "
                                 "(expected key=value)")
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _ALL_KEYS:
                known = ", ".join(_ALL_KEYS)
                raise ValueError(f"unknown fault parameter {key!r} "
                                 f"(known: {known})")
            if key in params:
                raise ValueError(f"duplicate fault parameter {key!r}")
            params[key] = value

        def _int(key):
            raw = params.get(key)
            if raw is None:
                return None
            try:
                return int(raw)
            except ValueError:
                raise ValueError(f"{key} must be an integer, got {raw!r}") from None

        probability = None
        if "p" in params:
            try:
                probability = float(params["p"])
            except ValueError:
                raise ValueError(f"p must be a float, got {params['p']!r}") from None
        return cls(
            site,
            probability=probability,
            nth=_int("nth"),
            every=_int("every"),
            after=_int("after"),
            times=_int("times"),
            call=params.get("call"),
            kernel=params.get("kernel"),
            errno_name=params.get("errno"),
            delay_us=_int("delay_us"),
        )

    def matches(self, call=None, kernel=None):
        """Do this rule's static filters accept the occurrence context?"""
        if self.call is not None and self.call != call:
            return False
        if self.kernel is not None and self.kernel != kernel:
            return False
        return True

    @property
    def errno_value(self):
        if self.errno_name is None:
            return _errno.EIO
        return getattr(_errno, self.errno_name)

    @property
    def delay_ns(self):
        return (self.delay_us or 0) * 1000

    def spec(self):
        """Normalized one-line spelling (stable across parse round-trips)."""
        parts = [self.site]
        if self.probability is not None:
            parts.append(f"p={self.probability:g}")
        for key in ("nth", "every", "after", "times"):
            value = getattr(self, key)
            if value is not None:
                parts.append(f"{key}={value}")
        if self.call is not None:
            parts.append(f"call={self.call}")
        if self.kernel is not None:
            parts.append(f"kernel={self.kernel}")
        if self.errno_name is not None:
            parts.append(f"errno={self.errno_name}")
        if self.delay_us is not None:
            parts.append(f"delay_us={self.delay_us}")
        return ":".join(parts)

    def __repr__(self):
        return f"FaultRule({self.spec()!r})"


class FaultPlan:
    """An ordered set of fault rules, resolved per occurrence in order."""

    __snapshot__ = "auto"

    def __init__(self, rules=()):
        self.rules = list(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ValueError(f"not a FaultRule: {rule!r}")

    @classmethod
    def parse(cls, text):
        """Parse a ``;``-separated plan string (empty -> no faults)."""
        if isinstance(text, cls):
            return text
        rules = [
            FaultRule.parse(chunk)
            for chunk in (text or "").split(";")
            if chunk.strip()
        ]
        return cls(rules)

    def rules_for(self, site):
        """(index, rule) pairs armed at ``site``, in plan order."""
        return [
            (index, rule)
            for index, rule in enumerate(self.rules)
            if rule.site == site
        ]

    def describe(self):
        """Normalized rule specs, JSON-friendly and deterministic."""
        return [rule.spec() for rule in self.rules]

    def spec(self):
        return ";".join(self.describe())

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        return f"FaultPlan({self.spec()!r})"
