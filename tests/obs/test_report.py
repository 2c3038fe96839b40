"""Trace-analyzer tests: nesting, breakdowns, ratios, determinism.

Synthetic Chrome-trace dicts pin the arithmetic exactly; a real exported
trace pins the end-to-end property CI leans on — :func:`report_json`
is byte-identical across repeated analyses of the same trace.
"""

import json

import pytest

from repro.obs.export import make_trace_id, to_chrome_trace
from repro.obs.report import _nest, analyze, report_json
from repro.obs.runner import run_traced


def _span(cat, name, ts, dur, pid=1, tid=1, args=None):
    return {"ph": "X", "cat": cat, "name": name, "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": args or {}}


def _instant(cat, name, ts, args=None):
    return {"ph": "i", "cat": cat, "name": name, "ts": ts, "s": "t",
            "pid": 1, "tid": 1, "args": args or {}}


def _trace(events, trace_id="t-1", workload="w"):
    return {
        "traceEvents": events,
        "otherData": {"trace_id": trace_id, "workload": workload},
    }


class TestNesting:
    def test_containment_splits_self_from_child(self):
        nodes = _nest([
            _span("syscall", "write", 0.0, 10.0),
            _span("channel-copy", "copy", 2.0, 3.0),
        ])
        self_by_cat = {n["e"]["cat"]: n["self"] for n in nodes}
        assert self_by_cat == {"syscall": 7.0, "channel-copy": 3.0}

    def test_nesting_crosses_lanes(self):
        # The hypervisor lane (pid 3) sits inside the host lane's (pid 1)
        # syscall by timestamp; containment must ignore pid/tid.
        nodes = _nest([
            _span("syscall", "write", 0.0, 10.0, pid=1),
            _span("world-switch", "hypercall", 1.0, 4.0, pid=3),
        ])
        switch = next(n for n in nodes if n["e"]["cat"] == "world-switch")
        assert switch["under_syscall"]
        assert not switch["top_syscall"]

    def test_nested_syscall_is_not_top(self):
        # A guest-side dispatch inside the host syscall counts once on
        # the critical path (the outer span), not twice.
        nodes = _nest([
            _span("syscall", "host-write", 0.0, 10.0),
            _span("syscall", "guest-write", 2.0, 5.0),
        ])
        tops = [n for n in nodes if n["top_syscall"]]
        assert len(tops) == 1
        assert tops[0]["e"]["name"] == "host-write"

    def test_adjacent_spans_do_not_nest(self):
        nodes = _nest([
            _span("syscall", "a", 0.0, 5.0),
            _span("syscall", "b", 5.0, 5.0),
        ])
        assert all(n["top_syscall"] for n in nodes)


class TestAnalyze:
    def test_critical_path_components(self):
        report = analyze(_trace([
            _span("syscall", "write", 0.0, 10.0),
            _span("world-switch", "hypercall", 1.0, 2.0),
            _span("channel-copy", "copy", 4.0, 3.0),
            _span("proxy", "stray", 20.0, 2.0),  # outside any syscall
        ]))
        path = report["critical_path"]
        assert path["syscalls"] == 1
        assert path["total_us"] == 10.0
        assert path["components_us"] == {
            "channel-copy": 3.0,
            "syscall": 5.0,
            "world-switch": 2.0,
        }

    def test_doorbell_efficiency(self):
        report = analyze(_trace([
            _span("world-switch", "hypercall", 0.0, 1.0),
            _span("world-switch", "irq", 2.0, 1.0),
            _span("ring-submit", "d", 4.0, 0.5),
            _span("ring-submit", "d", 5.0, 0.5),
            _span("ring-complete", "d", 6.0, 0.5),
            _instant("doorbell-coalesced", "submit", 7.0,
                     {"coalesced": 4}),
        ]))
        doorbells = report["doorbells"]
        assert doorbells["world_switches"] == 2
        assert doorbells["ring_descriptors"] == 3
        assert doorbells["coalesced_doorbells"] == 1
        assert doorbells["max_coalesced"] == 4

    def test_write_behind_overlap_ratio(self):
        # 4000 ns of lane time, 1000 ns actually waited -> 75% overlap.
        report = analyze(_trace([
            _span("wb-drain", "drain", 0.0, 2.0, args={"lane_ns": 4000}),
            _instant("wb-fence", "fence", 5.0, {"waited_ns": 1000}),
        ]))
        assert report["write_behind"] == {
            "drains": 1, "lane_us": 4.0, "waited_us": 1.0,
            "overlap_ratio": 0.75,
        }

    def test_empty_trace(self):
        report = analyze(_trace([]))
        assert report["spans"] == 0
        assert report["window_us"] == 0.0
        assert report["write_behind"]["overlap_ratio"] == 0.0

    def test_top_spans_truncated_and_sorted(self):
        events = [
            _span("proxy", f"call-{i}", i * 10.0, float(i + 1))
            for i in range(5)
        ]
        report = analyze(_trace(events), top=3)
        names = [row["name"] for row in report["top_spans"]]
        assert names == ["call-4", "call-3", "call-2"]

    def test_metadata_passthrough(self):
        report = analyze(_trace([], trace_id="abc", workload="writeburst"))
        assert report["trace_id"] == "abc"
        assert report["workload"] == "writeburst"


class TestDeterminism:
    @pytest.fixture(scope="class")
    def real_trace(self):
        result = run_traced("writeburst", read_cache=True,
                            async_delegation=True)
        return to_chrome_trace(
            result.records,
            trace_id=make_trace_id("writeburst", 0),
            workload="writeburst",
        )

    def test_report_json_byte_identical(self, real_trace):
        assert report_json(real_trace) == report_json(real_trace)

    def test_report_json_round_trips(self, real_trace):
        report = json.loads(report_json(real_trace))
        assert report["spans"] > 0
        assert report["critical_path"]["syscalls"] > 0

    def test_real_trace_has_wb_overlap(self, real_trace):
        report = analyze(real_trace)
        assert report["write_behind"]["drains"] > 0
        assert 0.0 <= report["write_behind"]["overlap_ratio"] <= 1.0
