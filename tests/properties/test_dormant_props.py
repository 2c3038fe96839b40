"""``SimClock.dormant`` never lies.

Every dormant fast path (``clock.advance``, the kernel's syscall and
asim-check charges, lguest doorbells, channel transfers, binder, app
compute, sqlite rows) reads one flag instead of re-testing the overlap
lane and the bus capture depth.  A stale ``True`` would silently skip
spans and charges, so this property drives random interleavings of
everything that opens or closes one of those states — overlap windows
that exit cleanly or raise, nested bus captures, bus install, detach and
re-attach — and checks the flag against the two-part predicate after
every step.
"""

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.obs.bus import ChargeRecord, TraceBus


def _predicate(clock):
    bus = clock.bus
    return clock._overlap_lane is None and (bus is None or not bus._depth)


_STEPS = st.lists(
    st.sampled_from((
        "overlap_enter", "overlap_exit",
        "overlap_raise", "capture_begin", "capture_end", "install",
        "detach", "reattach", "advance",
    )),
    min_size=1, max_size=40,
)


class _Script:
    """Applies steps to one clock, keeping the open windows as stacks."""

    def __init__(self):
        self.clock = SimClock()
        self.overlap = None
        self.captures = []
        self.buses = []

    def overlap_enter(self):
        window = self.clock.overlap("cvm")
        if self.overlap is not None:
            try:
                window.__enter__()
            except ValueError:
                return  # windows do not nest; state is untouched
            raise AssertionError("nested overlap window was accepted")
        window.__enter__()
        self.overlap = window

    def _overlap_leave(self, exc):
        if self.overlap is None:
            return
        window, self.overlap = self.overlap, None
        if exc is None:
            window.__exit__(None, None, None)
        else:
            window.__exit__(type(exc), exc, None)

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
        cursor = clock._overlap_cursor
        clock.advance(7, "prop")
        if clock._overlap_lane is None:
            assert clock.now_ns == before + 7
        else:
            assert clock.now_ns == before
            assert clock._overlap_cursor == cursor + 7
        if bus is not None:
            appended = bus.records[records:]
            assert len(appended) == (1 if bus._depth else 0)
            assert all(isinstance(r, ChargeRecord) and r.dur_ns == 7
                       for r in appended)


@settings(max_examples=300, deadline=None)
@given(steps=_STEPS)
def test_dormant_matches_predicate_after_every_step(steps):
    script = _Script()
    assert script.clock.dormant is True
    for step in steps:
        getattr(script, step)()
        assert script.clock.dormant == _predicate(script.clock), step


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
