"""Counters and fixed-bucket histograms fed from the trace bus.

Only what needs the bus lives here: counts no component keeps and the
span-fed histograms.  Component counters (``AnceptionLayer.stats()``)
are the one source for everything else.

The registry is a bus sink: subscribe it, run a workload, snapshot.
Snapshots are plain JSON-able dicts with deterministic ordering, so two
identical runs serialize byte-identically and CI can diff them.
"""

from __future__ import annotations

from repro.clock import NSEC_PER_USEC


class Counter:
    """A monotonically increasing counter, partitioned by label values."""

    __snapshot__ = "auto"

    def __init__(self, name, label_names=()):
        self.name = name
        self.label_names = tuple(label_names)
        self._values = {}

    def inc(self, amount=1, **labels):
        key = tuple(str(labels.get(label, "")) for label in self.label_names)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels):
        key = tuple(str(labels.get(label, "")) for label in self.label_names)
        return self._values.get(key, 0)

    def total(self):
        return sum(self._values.values())

    def snapshot(self):
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "value": value,
            }
            for key, value in sorted(self._values.items())
        ]


DEFAULT_LATENCY_BUCKETS_US = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
    10_000, 20_000, 50_000,
)
"""Fixed per-syscall latency buckets (microseconds); +inf is implicit."""

DEFAULT_RING_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
"""Queue-depth buckets for the delegation rings; +inf is implicit."""


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __snapshot__ = "auto"

    def __init__(self, name, buckets, unit=""):
        self.name = name
        self.buckets = tuple(buckets)
        self.unit = unit
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q):
        """Bucket-interpolated quantile of the observed values.

        Prometheus ``histogram_quantile`` semantics: the target rank is
        located in the cumulative bucket counts and position within the
        owning bucket is linearly interpolated between its bounds (the
        first bucket interpolates from 0).  The overflow bucket has no
        upper bound, so any rank landing there reports the last finite
        bound — a deliberate underestimate rather than an invention.
        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= target and self.counts[i]:
                fraction = (target - previous) / self.counts[i]
                fraction = min(1.0, max(0.0, fraction))
                return lower + (bound - lower) * fraction
            lower = float(bound)
        return float(self.buckets[-1]) if self.buckets else 0.0

    def snapshot(self):
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "unit": self.unit,
            "count": self.count,
            "sum": round(self.total, 6),
            "quantiles": {
                "p50": round(self.quantile(0.50), 3),
                "p95": round(self.quantile(0.95), 3),
                "p99": round(self.quantile(0.99), 3),
            },
        }


class MetricsRegistry:
    """The bus-only metric set, updated from bus records.

    World switches, channel bytes, ring traffic, blocked calls,
    recoveries, page-cache and window activity are not here: their
    components count them, read through ``AnceptionLayer.stats()``
    (and faults through ``FaultEngine.report()``).
    """

    __snapshot__ = "auto"

    def __init__(self):
        self.syscalls_total = Counter(
            "syscalls_total", ("sclass", "disposition")
        )
        self.channel_chunks_total = Counter(
            "channel_chunks_total", ("direction",)
        )
        self.binder_txns_total = Counter("binder_txns_total", ("lane",))
        self.proxy_calls_total = Counter("proxy_calls_total", ())
        self.page_faults_total = Counter("page_faults_total", ())
        self.syscall_latency_us = Histogram(
            "syscall_latency_us", DEFAULT_LATENCY_BUCKETS_US, unit="us"
        )
        self.ring_depth = Histogram(
            "ring_depth", DEFAULT_RING_DEPTH_BUCKETS, unit="descriptors"
        )
        self.wb_inflight_depth = Histogram(
            "wb_inflight_depth", DEFAULT_RING_DEPTH_BUCKETS,
            unit="descriptors",
        )
        self.binder_window_depth = Histogram(
            "binder_window_depth", DEFAULT_RING_DEPTH_BUCKETS,
            unit="transactions",
        )
        self._histograms = (
            self.syscall_latency_us,
            self.ring_depth,
            self.wb_inflight_depth,
            self.binder_window_depth,
        )
        self._counters = (
            self.syscalls_total,
            self.channel_chunks_total,
            self.binder_txns_total,
            self.proxy_calls_total,
            self.page_faults_total,
        )

    # -- bus sink ------------------------------------------------------------

    def observe_record(self, record):
        """Update metrics from one finished span/event record."""
        kind = record["kind"]
        args = record.get("args", {})
        if kind == "syscall" and record["type"] == "span":
            self.syscalls_total.inc(
                sclass=record.get("sclass", "unknown"),
                disposition=args.get("disposition", "unknown"),
            )
            dur_ns = record["end_ns"] - record["begin_ns"]
            self.syscall_latency_us.observe(dur_ns / NSEC_PER_USEC)
        elif kind == "channel-copy":
            self.channel_chunks_total.inc(
                args.get("chunks", 0),
                direction=args.get("direction", "unknown"),
            )
        elif kind == "ring-submit" or kind == "ring-complete":
            self.ring_depth.observe(args.get("depth", 1))
        elif kind == "binder-txn":
            self.binder_txns_total.inc(
                lane="ui" if args.get("ui") else "delegated"
            )
        elif kind == "proxy":
            if record["type"] == "span":
                self.proxy_calls_total.inc()
        elif kind == "page-fault":
            self.page_faults_total.inc(args.get("pages", 1))
        elif kind == "wb-submit":
            self.wb_inflight_depth.observe(args.get("depth", 1))
        elif kind == "binder-submit":
            self.binder_window_depth.observe(args.get("depth", 1))
        elif kind == "binder-drain":
            self.binder_window_depth.observe(args.get("batch", 1))

    # -- output --------------------------------------------------------------

    def snapshot(self):
        """JSON-able snapshot; round-trips losslessly through json.

        Both sections are built in sorted-name order, so the snapshot
        prints deterministically even without ``sort_keys``.
        """
        return {
            "counters": {
                counter.name: counter.snapshot()
                for counter in sorted(self._counters, key=lambda c: c.name)
            },
            "histograms": {
                histogram.name: histogram.snapshot()
                for histogram in sorted(self._histograms,
                                        key=lambda h: h.name)
            },
        }
