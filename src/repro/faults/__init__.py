"""repro.faults — deterministic, seed-driven fault injection.

A :class:`FaultPlan` (parsed from a compact ``site:key=value`` grammar)
plus a seed make a :class:`FaultEngine`, which arms onto the shared
``SimClock`` exactly like the trace bus does: every delegation layer
reads it as ``clock.faults`` with no extra plumbing, and a clock with no
engine attached costs one attribute read per site.
"""

from repro.faults.engine import FaultEngine
from repro.faults.plan import SITES, FaultPlan, FaultRule

_CHAOS_EXPORTS = (
    "DEFAULT_PLAN", "ChaosResult", "chaos_report_json", "run_chaos",
)


def __getattr__(name):
    # Lazy: repro.faults.chaos boots whole worlds, so importing it here
    # eagerly would close an import cycle through repro.world.
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos
        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_PLAN",
    "SITES",
    "ChaosResult",
    "FaultEngine",
    "FaultPlan",
    "FaultRule",
    "chaos_report_json",
    "run_chaos",
]
