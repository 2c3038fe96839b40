"""repro.obs — whole-stack tracing and metrics for the simulated device.

The paper's evaluation is an observability exercise: every microsecond of
a redirected call is attributed to world switches, marshaling copies, and
in-guest execution (Table I, Figs 6-7, the ProfileDroid study of §VI-A).
This package is the measurement substrate that makes such attribution a
*view* instead of an ad-hoc computation:

* :class:`~repro.obs.bus.TraceBus` — typed span/event records emitted at
  the four layer boundaries (syscall dispatch, redirection/marshaling,
  hypercall/IRQ injection, binder transactions), timestamped with
  *simulated* nanoseconds.  Observers never call ``clock.advance``:
  tracing on or off, the simulated elapsed time is bit-identical.
* :class:`~repro.obs.metrics.MetricsRegistry` — the counters no
  component keeps and fixed-bucket histograms, fed from the bus,
  snapshotable as JSON.
* :mod:`~repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and an ftrace-style text dump, both
  deterministic (per-run ``trace_id`` derived from workload + seed).
* :mod:`~repro.obs.runner` — canned traced workloads behind the
  ``anception trace`` / ``anception metrics`` CLI subcommands.
* :mod:`~repro.obs.report` — offline analyzer over exported Chrome
  traces: critical-path breakdowns, doorbell-coalescing efficiency,
  cache hit ratio, write-behind overlap (``anception report``).

Everything here runs on the simulated clock.  Wall-clock attribution
lives outside the program: the benchmark's layer tracer
(``perfbench/run.py --trace 1``) wraps each layer's entry points from
outside and reports its own cost as ``trace.overhead_ratio``.
"""

from __future__ import annotations

from repro.obs.bus import NULL_SPAN, TraceBus, maybe_event, maybe_span
from repro.obs.export import make_trace_id, to_chrome_trace, to_ftrace
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.report import analyze, report_json


def __getattr__(name):
    # The runner boots whole worlds, whose modules themselves import
    # repro.obs.bus — resolve it lazily to keep the import graph acyclic.
    if name in ("TRACE_WORKLOADS", "run_traced", "TraceResult"):
        from repro.obs import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "NULL_SPAN",
    "TraceBus",
    "maybe_event",
    "maybe_span",
    "make_trace_id",
    "to_chrome_trace",
    "to_ftrace",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "analyze",
    "report_json",
    "TRACE_WORKLOADS",
    "run_traced",
]
