"""Latency breakdowns from the trace bus's charge stream.

Every component labels the time it charges; :func:`breakdown` runs a
callable under a (nested) bus capture and returns where the time went,
grouped by label prefix.  This is how the repository *demonstrates* (not
merely asserts) the anatomy of Table I — e.g. that a redirected 4 KB
write is two world switches, one channel copy, and a native write
executed in the guest.

As a view over :class:`repro.obs.TraceBus` captures (the only charge
recorder), ``breakdown`` nests safely: calling it inside an outer
``bus.capture()`` leaves the outer capture intact and complete.
"""

from __future__ import annotations

from repro.clock import NSEC_PER_USEC
from repro.obs.bus import TraceBus


def breakdown(clock, fn, *args, **kwargs):
    """Run ``fn`` with tracing; returns (result, {label: microseconds}).

    Labels are aggregated by their first ``:``-separated component plus
    one level of detail (e.g. ``channel:copy``, ``cvm:write``,
    ``irq`` / ``hypercall`` collapse into ``world-switch``).
    """
    bus = TraceBus.install(clock)
    with bus.capture() as capture:
        result = fn(*args, **kwargs)
    totals = {}
    for reason, delta_ns in capture.charges():
        label = _canonical(reason)
        totals[label] = totals.get(label, 0) + delta_ns
    return result, {
        label: round(ns / NSEC_PER_USEC, 2) for label, ns in totals.items()
    }


def _canonical(reason):
    if reason.startswith(("irq:", "hypercall:")):
        return "world-switch"
    parts = reason.split(":")
    return ":".join(parts[:2]) if len(parts) > 1 else parts[0]


def format_breakdown(totals, title=""):
    """Render a breakdown as an aligned table, largest share first."""
    lines = [title] if title else []
    total = sum(totals.values())
    for label, us in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = 100.0 * us / total if total else 0.0
        lines.append(f"  {label:<24} {us:>10.2f} us  ({share:4.1f}%)")
    lines.append(f"  {'total':<24} {total:>10.2f} us")
    return "\n".join(lines)
