"""``SimClock.dormant`` never lies, and overlap windows keep their time.

Every dormant fast path (``clock.advance``, the kernel's syscall and
asim-check charges, lguest doorbells, channel transfers, binder, app
compute, sqlite rows) reads one flag instead of re-testing the bus
capture depth.  A stale ``True`` would silently skip spans and charges,
so these properties drive random interleavings of everything that opens
or closes a capture or moves time — overlap windows that exit cleanly or
raise, nested bus captures, bus install, detach and re-attach, advances —
and check the flag against its predicate after every step.

An overlap window is not part of that predicate: it swaps the lane
cursor into ``_now_ns``, so a dormant charge inside a window is the same
integer add as outside one.  The second property holds the window's
bookkeeping to what the instrumented path gave: the same script ends on
the same host time and lane watermarks with captures open or with none.
"""

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.obs.bus import ChargeRecord, TraceBus


def _predicate(clock):
    bus = clock.bus
    return bus is None or not bus._depth


_STEPS = st.lists(
    st.sampled_from((
        "overlap_enter", "overlap_exit",
        "overlap_raise", "capture_begin", "capture_end", "install",
        "detach", "reattach", "advance",
    )),
    min_size=1, max_size=40,
)

_CAPTURE_STEPS = ("capture_begin", "capture_end")


class _Script:
    """Applies steps to one clock, keeping the open windows as stacks."""

    def __init__(self):
        self.clock = SimClock()
        self.overlap = None
        self.watermark = None
        self.captures = []
        self.buses = []

    def overlap_enter(self):
        clock = self.clock
        window = clock.overlap("cvm")
        if self.overlap is not None:
            try:
                window.__enter__()
            except ValueError:
                return  # windows do not nest; state is untouched
            raise AssertionError("nested overlap window was accepted")
        self.watermark = clock._lane_busy.get("cvm")
        host = clock.now_ns
        window.__enter__()
        self.overlap = window
        assert clock.now_ns == host
        assert clock._now_ns == max(host, self.watermark or 0)

    def _overlap_leave(self, exc):
        if self.overlap is None:
            return
        clock = self.clock
        window, self.overlap = self.overlap, None
        host = clock.now_ns
        cursor = clock._now_ns
        if exc is None:
            window.__exit__(None, None, None)
            assert clock._lane_busy["cvm"] == cursor
        else:
            window.__exit__(type(exc), exc, None)
            # A raising window never finished its work: the watermark
            # stays where it stood before the window opened.
            assert clock._lane_busy.get("cvm") == self.watermark
        assert clock.now_ns == clock._now_ns == host
        assert clock._host_ns is None

    def overlap_exit(self):
        self._overlap_leave(None)

    def overlap_raise(self):
        self._overlap_leave(RuntimeError("drain failed"))

    def capture_begin(self):
        bus = self.clock.bus
        if bus is None:
            return
        capture = bus.capture()
        capture.__enter__()
        self.captures.append(capture)

    def capture_end(self):
        if self.captures:
            self.captures.pop().__exit__(None, None, None)

    def install(self):
        bus = TraceBus.install(self.clock)
        if bus not in self.buses:
            self.buses.append(bus)

    def detach(self):
        self.clock.bus = None

    def reattach(self):
        # The stale-True hazard: a bus detached mid-capture comes back.
        if self.buses:
            self.clock.bus = self.buses[-1]

    def advance(self):
        clock = self.clock
        bus = clock.bus
        records = len(bus.records) if bus is not None else 0
        before = clock.now_ns
        cursor = clock._now_ns
        clock.advance(7, "prop")
        assert clock._now_ns == cursor + 7
        if clock._overlap_lane is None:
            assert clock.now_ns == before + 7
        else:
            assert clock.now_ns == before  # host time stands still
        if bus is not None:
            appended = bus.records[records:]
            assert len(appended) == (1 if bus._depth else 0)
            assert all(isinstance(r, ChargeRecord) and r.dur_ns == 7
                       and r.begin_ns == cursor for r in appended)

    def run(self, steps):
        for step in steps:
            getattr(self, step)()
            assert self.clock.dormant == _predicate(self.clock), step
        return self

    def final(self):
        """Time state a finished script leaves, windows closed first."""
        self.overlap_exit()
        clock = self.clock
        return (clock.now_ns, dict(clock._lane_busy),
                clock.lane_backlog_ns("cvm"))


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_dormant_matches_predicate_after_every_step(steps):
    script = _Script()
    assert script.clock.dormant is True
    script.run(steps)


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_captures_never_move_host_or_lane_time(steps):
    captured = _Script().run(steps)
    bare = _Script().run([s for s in steps if s not in _CAPTURE_STEPS])
    assert bare.clock.dormant
    assert captured.final() == bare.final()


def test_dormant_inside_an_overlap_window():
    """A window alone leaves the clock dormant: charges are integer adds
    on the lane cursor, and host time stands still until the fence."""
    clock = SimClock(start_ns=100)
    with clock.overlap("cvm"):
        assert clock.dormant
        clock.advance(40, "drain")
        clock._now_ns += 2  # a dormant fast-path charge
        assert clock.now_ns == 100
    assert clock.lane_backlog_ns("cvm") == 42
    assert clock.wait_for("cvm") == 42
    assert clock.now_ns == 142


def test_detached_capturing_bus_reattaches_awake():
    """The case a flag refreshed only by the bus itself would miss."""
    clock = SimClock()
    bus = TraceBus.install(clock)
    with bus.capture() as capture:
        clock.bus = None
        assert clock.dormant
        clock.bus = bus
        assert not clock.dormant
        clock.advance(5, "seen")
    assert clock.dormant
    assert capture.charges() == [("seen", 5)]
