"""MetricsRegistry: counters, histograms, JSON round-trips.

Also the counter-equivalence audit: the component counters that
replaced the registry's duplicate counters move, over one capture,
exactly as far as the deleted counters did.
"""

import json

import pytest

from repro.errors import SyscallError
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runner import boot_obs_world, run_traced


class TestCounter:
    def test_labelled_increments(self):
        counter = Counter("c", ("a", "b"))
        counter.inc(a="x", b="y")
        counter.inc(2, a="x", b="y")
        counter.inc(a="x", b="z")
        assert counter.value(a="x", b="y") == 3
        assert counter.value(a="x", b="z") == 1
        assert counter.total() == 4

    def test_snapshot_is_sorted_and_labelled(self):
        counter = Counter("c", ("k",))
        counter.inc(k="beta")
        counter.inc(k="alpha")
        snap = counter.snapshot()
        assert snap == [
            {"labels": {"k": "alpha"}, "value": 1},
            {"labels": {"k": "beta"}, "value": 1},
        ]


class TestHistogram:
    def test_fixed_buckets(self):
        histogram = Histogram("h", (10, 100), unit="us")
        for value in (5, 50, 500):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["counts"] == [1, 1, 1]  # <=10, <=100, +inf
        assert snap["count"] == 3
        assert snap["sum"] == 555

    def test_default_bucket_bounds_ascend(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US
        )


class TestRegistry:
    def _syscall_span(self, dur_ns=760, disposition="native"):
        return {
            "type": "span",
            "kind": "syscall",
            "name": "getpid",
            "begin_ns": 0,
            "end_ns": dur_ns,
            "sclass": "host",
            "args": {"disposition": disposition},
        }

    def test_syscall_span_updates_counter_and_histogram(self):
        registry = MetricsRegistry()
        registry.observe_record(self._syscall_span())
        registry.observe_record(self._syscall_span(disposition="anception"))
        assert registry.syscalls_total.value(
            sclass="host", disposition="native"
        ) == 1
        assert registry.syscall_latency_us.count == 2

    def test_world_switch_and_channel(self):
        """World switches and channel bytes are the channel's counters;
        the registry keeps only the chunk count."""
        world, _ = boot_obs_world()
        before = world.anception.stats()["channel"]
        result = run_traced("write4k", world=world, logcat=False)
        after = world.anception.stats()["channel"]
        assert after["interrupts"] > before["interrupts"]
        assert after["hypercalls"] > before["hypercalls"]
        assert after["bytes_to_guest"] - before["bytes_to_guest"] >= 4096
        chunks = result.metrics.channel_chunks_total
        assert chunks.value(direction="to-guest") >= 1
        assert not hasattr(result.metrics, "world_switches_total")

    def test_blocked_event_counted_separately_from_proxy_spans(self):
        registry = MetricsRegistry()
        registry.observe_record({
            "type": "event", "kind": "proxy", "name": "blocked:reboot",
            "ts_ns": 0, "args": {"decision": "block"},
        })
        registry.observe_record({
            "type": "span", "kind": "proxy", "name": "forward:write",
            "begin_ns": 0, "end_ns": 10, "args": {},
        })
        assert registry.proxy_calls_total.total() == 1
        # Blocked calls are the layer's decision counter.
        world, ctx = boot_obs_world()
        with pytest.raises(SyscallError):
            ctx.libc.syscall("reboot")
        assert world.anception.stats()["blocked_calls"] == 1

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.observe_record(self._syscall_span())
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_live_workload_populates_registry(self):
        result = run_traced("write4k", logcat=False)
        metrics = result.metrics
        assert metrics.channel_chunks_total.total() >= 2
        assert metrics.syscalls_total.total() >= 3
        assert metrics.ring_depth.count >= 2
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestQuantiles:
    def test_interpolates_within_bucket(self):
        histogram = Histogram("h", (10, 20, 30))
        for value in (5, 15, 25, 28):
            histogram.observe(value)
        # p50 rank = 2.0 lands at the top of the (10, 20] bucket.
        assert histogram.quantile(0.50) == 20.0
        # p25 rank = 1.0 -> the first bucket, interpolated from 0.
        assert histogram.quantile(0.25) == 10.0

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram("h", (100,))
        histogram.observe(1)
        histogram.observe(1)
        assert histogram.quantile(0.5) == 50.0

    def test_overflow_bucket_reports_last_finite_bound(self):
        histogram = Histogram("h", (10, 100))
        histogram.observe(5000)
        assert histogram.quantile(0.99) == 100.0

    def test_empty_histogram_is_zero(self):
        assert Histogram("h", (10,)).quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        histogram = Histogram("h", (10,))
        try:
            histogram.quantile(1.5)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_snapshot_surfaces_p50_p95_p99(self):
        histogram = Histogram("h", DEFAULT_LATENCY_BUCKETS_US, unit="us")
        for value in range(1, 101):
            histogram.observe(value)
        quantiles = histogram.snapshot()["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert quantiles["p99"] <= 200  # inside the (100, 200] bucket

    def test_registry_snapshot_sorted_and_quantiled(self):
        registry = MetricsRegistry()
        registry.observe_record({
            "type": "span", "kind": "syscall", "name": "write",
            "begin_ns": 0, "end_ns": 42_000, "sclass": "fs",
            "args": {"disposition": "delegated"},
        })
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
        assert list(snapshot["histograms"]) == sorted(snapshot["histograms"])
        latency = snapshot["histograms"]["syscall_latency_us"]
        # One sample in (20, 50]: p50 interpolates halfway up the bucket.
        assert latency["quantiles"]["p50"] == 35.0


class TestOneCounterSource:
    def test_registry_keeps_only_bus_only_counters(self):
        snapshot = MetricsRegistry().snapshot()
        assert list(snapshot["counters"]) == [
            "binder_txns_total", "channel_chunks_total", "page_faults_total",
            "proxy_calls_total", "syscalls_total",
        ]
        assert list(snapshot["histograms"]) == [
            "binder_window_depth", "ring_depth", "syscall_latency_us",
            "wb_inflight_depth",
        ]


# -- counter-equivalence audit ---------------------------------------------

AUDIT_CONFIGS = {
    "paper": {},
    "all-on": {"read_cache": True, "async_delegation": True,
               "binder_ring": True},
}

AUDIT_COLUMNS = (
    ("world_switches_total{guest->host}", ("channel.hypercalls",)),
    ("world_switches_total{host->guest}", ("channel.interrupts",)),
    ("irqs_total", ("channel.interrupts",)),
    ("channel_bytes_total{to-guest}", ("channel.bytes_to_guest",)),
    ("channel_bytes_total{to-host}", ("channel.bytes_to_host",)),
    ("doorbells_coalesced_total", ("channel.coalesced_doorbells",)),
    ("ring_submits_total", ("channel.submit_ring.pushed",)),
    ("ring_completes_total", ("channel.complete_ring.pushed",)),
    ("blocked_calls_total", ("blocked_calls",)),
    ("recoveries_total", ("recoveries",)),
    ("faults_injected_total", ()),
    ("cache_hits_total", ("read_cache.hits",)),
    ("cache_misses_total", ("read_cache.misses",)),
    ("cache_fill_pages_total", ("read_cache.fill_pages",
                                "read_cache.readahead_pages")),
    ("wb_submits_total", ("write_behind.enqueued",)),
    ("wb_drains_total", ("write_behind.drains",)),
    ("wb_fences_total", ("write_behind.fences",)),
    ("wb_deferred_errors_total", ("write_behind.deferred_errors",)),
    ("binder_submits_total", ("binder_ring.enqueued",)),
    ("binder_drains_total", ("binder_ring.drains",)),
    ("binder_fences_total", ("binder_ring.fences",)),
    ("binder_deferred_errors_total", ("binder_ring.deferred_errors",)),
    # cache_invalidations_total counted rename/unlink events; the page
    # cache counts pages by cause, so its three counters are pinned.
    ("read_cache.invalidated_pages", ("read_cache.invalidated_pages",)),
    ("read_cache.write_through_pages", ("read_cache.write_through_pages",)),
    ("read_cache.evicted_pages", ("read_cache.evicted_pages",)),
)
"""Each deleted counter and the ``stats()`` paths whose movement sums to
it.  ``faults_injected_total`` maps to no path: the audit runs with no
fault engine armed, so ``FaultEngine.report()`` has nothing to fire."""

AUDIT_TABLE = {
    ("table1", "paper"): (
        8, 8, 8, 8547, 4188, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0),
    ("fileops", "paper"): (
        32, 32, 32, 4104, 2299, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0),
    ("ipc", "paper"): (
        6, 6, 6, 111, 70, 0, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0),
    ("batchio", "paper"): (
        6, 6, 6, 6365, 4640, 4, 132, 132, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0),
    ("writeburst", "paper"): (
        68, 68, 68, 263087, 4632, 0, 68, 68, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0),
    ("binderburst", "paper"): (
        26, 26, 26, 10562, 112, 0, 26, 26, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0),
    ("fleet", "paper"): (
        2472, 2472, 2472, 1660646, 63168, 0, 2472, 2472, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ("table1", "all-on"): (
        8, 8, 8, 8547, 4188, 0, 8, 8, 0, 0, 0, 0, 1, 1, 2, 2, 2, 0, 0, 0, 0, 0,
        0, 0, 0),
    ("fileops", "all-on"): (
        31, 31, 31, 4084, 1787, 0, 31, 31, 0, 0, 0, 1, 6, 6, 6, 6, 6, 0, 0, 0,
        0, 0, 2, 1, 0),
    ("ipc", "all-on"): (
        6, 6, 6, 111, 70, 0, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0),
    ("batchio", "all-on"): (
        7, 7, 7, 6365, 4640, 6, 132, 132, 0, 0, 0, 0, 1, 1, 64, 2, 1, 0, 0, 0,
        0, 0, 0, 1, 0),
    ("writeburst", "all-on"): (
        7, 7, 7, 263087, 4632, 6, 68, 68, 0, 0, 0, 0, 1, 9, 64, 3, 2, 0, 0, 0,
        0, 0, 0, 0, 0),
    ("binderburst", "all-on"): (
        4, 4, 4, 10562, 112, 4, 26, 26, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 2, 2,
        0, 0, 0, 0),
    ("fleet", "all-on"): (
        240, 240, 240, 1660646, 63168, 144, 2472, 2472, 0, 0, 0, 0, 48, 240,
        1560, 72, 25, 0, 768, 24, 1, 0, 0, 0, 0),
}
"""The deleted counters as the bus-derived registry reported them over
one ``run_traced`` capture at the commit before their deletion (columns
as :data:`AUDIT_COLUMNS`; the last three are the page cache's own)."""


def _moved(before, after, path):
    """How far one dotted ``stats()`` counter moved; 0 when the feature
    is off (its section is ``None``)."""
    for key in path.split("."):
        if after is None:
            return 0
        before, after = before[key], after[key]
    return after - before


@pytest.mark.parametrize("workload,config", sorted(AUDIT_TABLE))
def test_component_counters_equal_the_deleted_counters(workload, config):
    world, _ = boot_obs_world(**AUDIT_CONFIGS[config])
    before = world.anception.stats()
    run_traced(workload, world=world, logcat=False)
    after = world.anception.stats()
    assert world.clock.faults is None
    measured = {
        name: sum(_moved(before, after, path) for path in paths)
        for name, paths in AUDIT_COLUMNS
    }
    expected = dict(zip([name for name, _ in AUDIT_COLUMNS],
                        AUDIT_TABLE[workload, config]))
    assert measured == expected
