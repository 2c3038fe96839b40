"""SimClock behaviour."""

import pytest

from repro.clock import NSEC_PER_MSEC, NSEC_PER_USEC, SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_custom_start(self):
        assert SimClock(start_ns=500).now_ns == 500

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(1234)
        assert clock.now_ns == 1234

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now_ns == 350

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_zero_advance_is_noop(self):
        clock = SimClock()
        clock.advance(0)
        assert clock.now_ns == 0

    def test_truncates_fractional_nanoseconds(self):
        clock = SimClock()
        clock.advance(10.9)
        assert clock.now_ns == 10


class TestUnits:
    def test_now_us(self):
        clock = SimClock()
        clock.advance(5 * NSEC_PER_USEC)
        assert clock.now_us == 5.0

    def test_unit_constants(self):
        assert NSEC_PER_MSEC == 1000 * NSEC_PER_USEC


class TestMeasure:
    def test_span_captures_window(self):
        clock = SimClock()
        clock.advance(100)
        with clock.measure() as span:
            clock.advance(400)
        assert span.elapsed_ns == 400
        assert span.start_ns == 100
        assert span.end_ns == 500

    def test_span_elapsed_units(self):
        clock = SimClock()
        with clock.measure() as span:
            clock.advance(2 * NSEC_PER_MSEC)
        assert span.elapsed_us == 2000.0
        assert span.elapsed_ms == 2.0

    def test_open_span_reads_current_time(self):
        clock = SimClock()
        span = clock.measure()
        with span:
            clock.advance(10)
            assert span.elapsed_ns == 10

    def test_nested_spans(self):
        clock = SimClock()
        with clock.measure() as outer:
            clock.advance(10)
            with clock.measure() as inner:
                clock.advance(5)
        assert inner.elapsed_ns == 5
        assert outer.elapsed_ns == 15


class TestOverlapRollback:
    """_OverlapWindow.__exit__: exceptions roll the lane cursor back.

    Pre-fix, a window body that raised (an injected ``wb.*``/``binder.*``
    fault escaping mid-drain) still committed the lane cursor to
    ``_lane_busy``, billing the lane for work that never completed; the
    next fence then waited out phantom time.
    """

    def test_clean_exit_commits_the_cursor(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            clock.advance(100, "drain")
        assert clock.lane_backlog_ns("cvm") == 100

    def test_exception_rolls_back_to_pre_window_watermark(self):
        clock = SimClock()
        with clock.overlap("cvm"):
            clock.advance(100, "committed-drain")
        with pytest.raises(RuntimeError):
            with clock.overlap("cvm"):
                clock.advance(9999, "phantom-work")
                raise RuntimeError("injected fault mid-drain")
        assert clock.lane_backlog_ns("cvm") == 100

    def test_exception_leaves_the_clock_reusable(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with clock.overlap("cvm"):
                clock.advance(50, "phantom")
                raise RuntimeError("boom")
        assert clock._overlap_lane is None
        clock.advance(10, "host")  # host time moves again
        assert clock.now_ns == 10
        with clock.overlap("cvm"):  # and new windows open cleanly
            clock.advance(5, "retry")
        assert clock.lane_backlog_ns("cvm") == 5

    def test_rolled_back_lane_never_charges_a_fence(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with clock.overlap("cvm"):
                clock.advance(1_000_000, "phantom")
                raise RuntimeError("boom")
        assert clock.wait_for("cvm") == 0
        assert clock.now_ns == 0
