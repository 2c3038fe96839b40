"""TraceBus: spans, events, captures, and clock neutrality."""

import pytest

from repro.clock import SimClock
from repro.kernel import vfs
from repro.obs.bus import NULL_SPAN, LogcatSink, TraceBus, maybe_span
from repro.obs.runner import TRACE_WORKLOADS, run_traced
from repro.perf.costs import PAGE_SIZE


class TestSpans:
    def test_span_captures_simulated_window(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            with bus.span("syscall", "write", kernel="host") as span:
                clock.advance(500, "work")
                span.set(disposition="native")
        (record,) = capture.spans()
        assert record["begin_ns"] == 0
        assert record["end_ns"] == 500
        assert record["args"]["disposition"] == "native"
        assert record["kernel"] == "host"

    def test_span_records_exception(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            try:
                with bus.span("syscall", "open"):
                    raise ValueError("boom")
            except ValueError:
                pass
        (record,) = capture.spans()
        assert record["args"]["error"] == "ValueError"

    def test_event_is_instantaneous(self):
        clock = SimClock()
        clock.advance(42)
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            bus.event("irq", "irq:test", kernel="hypervisor")
        (record,) = capture.events("irq")
        assert record["ts_ns"] == 42

    def test_task_fields_recorded(self, anception_world, enrolled_ctx):
        bus = TraceBus.install(anception_world.clock)
        with bus.capture() as capture:
            enrolled_ctx.libc.getpid()
        span = capture.spans("syscall")[0]
        assert span["pid"] == enrolled_ctx.task.pid
        assert span["uid"] == enrolled_ctx.task.credentials.uid
        assert span["re"] == 1
        assert span["sclass"] == "host"


class TestDisabled:
    def test_disabled_bus_hands_out_null_span(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        assert bus.span("syscall", "write") is NULL_SPAN
        assert maybe_span(clock, "syscall", "write") is NULL_SPAN

    def test_no_bus_at_all(self):
        clock = SimClock()
        assert maybe_span(clock, "syscall", "write") is NULL_SPAN

    def test_disabled_bus_records_nothing(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.span("syscall", "write"):
            clock.advance(10)
        bus.event("irq", "x")
        assert bus.records == []

    def test_install_is_idempotent(self):
        clock = SimClock()
        assert TraceBus.install(clock) is TraceBus.install(clock)


class TestCaptureNesting:
    def test_inner_capture_sees_only_its_window(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as outer:
            bus.event("irq", "before")
            with bus.capture() as inner:
                bus.event("irq", "inside")
            bus.event("irq", "after")
        assert [r["name"] for r in inner.events()] == ["inside"]
        assert [r["name"] for r in outer.events()] == [
            "before", "inside", "after",
        ]

    def test_outer_capture_keeps_inner_charges_in_order(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as outer:
            clock.advance(10, "outer")
            with bus.capture() as inner:
                clock.advance(5, "inner")
            clock.advance(7, "outer-again")
        assert inner.charges() == [("inner", 5)]
        assert outer.charges() == [
            ("outer", 10), ("inner", 5), ("outer-again", 7),
        ]

    def test_records_freed_after_last_capture(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture():
            bus.event("irq", "x")
        assert bus.records == []
        assert not bus.enabled


class TestCharges:
    """A capture records every non-zero clock charge, and nothing else."""

    def test_zero_ns_charge_is_not_recorded(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as capture:
            clock.advance(0, "nothing")
            clock.advance(3, "something")
        assert capture.charges() == [("something", 3)]

    @pytest.mark.parametrize("workload", sorted(TRACE_WORKLOADS))
    def test_charges_sum_to_elapsed_on_paper_config(self, workload):
        # Without overlap windows every charge is host time, so the
        # captured stream accounts for every simulated nanosecond.
        result = run_traced(workload, logcat=False)
        charged = sum(r["dur_ns"] for r in result.records
                      if r["type"] == "charge")
        assert charged == result.elapsed_ns > 0


class TestClockNeutrality:
    """Observability is side-effect-free on simulated time."""

    def test_traced_run_has_identical_elapsed_time(self):
        traced = run_traced("write4k")
        untraced = run_traced("write4k", observe=False)
        assert traced.elapsed_ns == untraced.elapsed_ns
        assert untraced.records == []

    def test_capture_itself_advances_nothing(self):
        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture():
            with bus.span("syscall", "noop"):
                pass
            bus.event("irq", "noop")
        assert clock.now_ns == 0


class TestLogcatSink:
    def test_spans_become_kernel_log_lines(self, anception_world,
                                            enrolled_ctx):
        log_device = anception_world.machine.kernel.log_device
        bus = TraceBus.install(anception_world.clock)
        sink = LogcatSink(log_device, kinds=("syscall",))
        bus.subscribe(sink)
        try:
            with bus.capture():
                fd = enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("lc"), vfs.O_WRONLY | vfs.O_CREAT
                )
                enrolled_ctx.libc.write(fd, b"z" * PAGE_SIZE)
        finally:
            bus.unsubscribe(sink)
        lines = [
            msg for tag, msg in log_device.entries
            if tag == "kernel" and msg.startswith("trace:")
        ]
        assert any("syscall write" in line for line in lines)
        assert sink.lines == len(lines)


class TestSinkHardening:
    """A raising sink is isolated, counted, and eventually evicted."""

    def _bus(self):
        return TraceBus.install(SimClock())

    def test_raising_sink_does_not_abort_dispatch(self):
        bus = self._bus()
        seen = []

        def bad(_record):
            raise RuntimeError("sink bug")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        with bus.capture() as capture:
            bus.event("irq", "tick")
        assert len(capture.events()) == 1
        assert len(seen) == 1  # the later sink still ran
        assert bus.sink_errors == 1

    def test_sink_errors_counted_per_failure(self):
        bus = self._bus()

        def bad(_record):
            raise ValueError("boom")

        bus.subscribe(bad)
        with bus.capture():
            bus.event("irq", "a")
            bus.event("irq", "b")
        assert bus.sink_errors == 2

    def test_sink_dropped_after_failure_limit(self):
        bus = self._bus()
        calls = []

        def bad(record):
            calls.append(record)
            raise RuntimeError("always fails")

        bus.subscribe(bad)
        with bus.capture():
            for i in range(bus.SINK_FAILURE_LIMIT + 2):
                bus.event("irq", f"tick-{i}")
        # Exactly LIMIT deliveries reached the sink before eviction.
        assert len(calls) == bus.SINK_FAILURE_LIMIT
        assert bus.sink_errors == bus.SINK_FAILURE_LIMIT
        assert bus.dropped_sinks == 1
        assert bad not in bus._sinks

    def test_healthy_sink_survives_neighbour_eviction(self):
        bus = self._bus()
        seen = []

        def bad(_record):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(seen.append)
        total = bus.SINK_FAILURE_LIMIT + 3
        with bus.capture():
            for i in range(total):
                bus.event("irq", f"tick-{i}")
        assert len(seen) == total
        assert bus.dropped_sinks == 1

    def test_unsubscribe_clears_failure_tally(self):
        bus = self._bus()

        def flaky(_record):
            raise RuntimeError("boom")

        bus.subscribe(flaky)
        with bus.capture():
            bus.event("irq", "a")
        bus.unsubscribe(flaky)
        bus.subscribe(flaky)  # re-attached: the budget starts fresh
        with bus.capture():
            bus.event("irq", "b")
        assert bus.dropped_sinks == 0
        assert flaky in bus._sinks
