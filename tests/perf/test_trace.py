"""The latency-breakdown tracer: the anatomy of Table I."""

import pytest

from repro.kernel import vfs
from repro.obs.bus import TraceBus
from repro.perf.costs import DEFAULT_COSTS, PAGE_SIZE
from repro.perf.trace import breakdown, format_breakdown


class TestBreakdown:
    def test_redirected_write_anatomy(self, anception_world, enrolled_ctx):
        """A redirected 4KB write decomposes into the paper's mechanism."""
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("traced"), vfs.O_WRONLY | vfs.O_CREAT
        )
        payload = b"t" * PAGE_SIZE
        _result, totals = breakdown(
            anception_world.clock, enrolled_ctx.libc.write, fd, payload
        )
        # exactly two world switches
        assert totals["world-switch"] == pytest.approx(
            2 * DEFAULT_COSTS.world_switch_ns / 1000, rel=0.01
        )
        # the per-byte channel copy dominates the remaining overhead
        assert totals["channel:copy"] > 100
        # the native write itself executed (in the CVM)
        assert totals["cvm:write"] == pytest.approx(
            DEFAULT_COSTS.file_write_page_ns / 1000, rel=0.01
        )

    def test_native_write_has_no_cross_vm_charges(self, native_ctx,
                                                  native_world):
        fd = native_ctx.libc.open(
            native_ctx.data_path("traced"), vfs.O_WRONLY | vfs.O_CREAT
        )
        _result, totals = breakdown(
            native_world.clock, native_ctx.libc.write, fd, b"x" * PAGE_SIZE
        )
        assert "world-switch" not in totals
        assert "channel:copy" not in totals

    def test_getpid_is_just_the_trap(self, anception_world, enrolled_ctx):
        _result, totals = breakdown(
            anception_world.clock, enrolled_ctx.libc.getpid
        )
        assert set(totals) <= {"syscall:getpid", "asim-check"}

    def test_breakdown_totals_match_elapsed(self, anception_world,
                                            enrolled_ctx):
        clock = anception_world.clock
        before = clock.now_ns
        _result, totals = breakdown(
            clock, enrolled_ctx.libc.mkdir, enrolled_ctx.data_path("d")
        )
        elapsed_us = (clock.now_ns - before) / 1000
        assert sum(totals.values()) == pytest.approx(elapsed_us, rel=0.01)

    def test_format_renders_shares(self):
        text = format_breakdown({"a": 75.0, "b": 25.0}, title="t")
        assert "75.00" in text
        assert "75.0%" in text
        assert "total" in text


class TestBreakdownReentrancy:
    """Regression: breakdown() used to clobber an outer in-progress trace."""

    def test_nested_breakdown_preserves_outer_clock_trace(self):
        from repro.clock import SimClock

        clock = SimClock()
        bus = TraceBus.install(clock)
        with bus.capture() as outer:
            clock.advance(10, "outer:before")
            _result, totals = breakdown(
                clock, lambda: clock.advance(5, "inner:work")
            )
            clock.advance(7, "outer:after")
            assert bus.enabled
        assert totals == {"inner:work": 0.01}  # 5 ns rounded to 0.01 us
        # the outer capture saw every clock charge, in order
        assert outer.charges() == [
            ("outer:before", 10), ("inner:work", 5), ("outer:after", 7),
        ]

    def test_breakdown_inside_breakdown(self, anception_world, enrolled_ctx):
        clock = anception_world.clock

        def outer():
            enrolled_ctx.libc.getpid()
            _res, inner_totals = breakdown(clock, enrolled_ctx.libc.getpid)
            assert "syscall:getpid" in inner_totals
            enrolled_ctx.libc.getpid()

        _res, outer_totals = breakdown(clock, outer)
        # outer sees all three getpid traps, inner saw only its own
        inner_only, _ = breakdown(clock, enrolled_ctx.libc.getpid), None
        assert outer_totals["syscall:getpid"] == pytest.approx(
            3 * 0.76, rel=0.01
        )

    def test_breakdown_leaves_tracing_disabled_when_it_started_disabled(
            self, native_world, native_ctx):
        clock = native_world.clock
        breakdown(clock, native_ctx.libc.getpid)
        assert not clock.bus.enabled
        assert clock.dormant
        clock.advance(5, "untraced")
        assert clock.bus.records == []
