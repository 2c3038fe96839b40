"""Deterministic simulated clock.

All latency numbers in the reproduction are *simulated*: the kernel, the
Anception layer, and the workloads charge costs (in nanoseconds) to a shared
:class:`SimClock`.  Benchmarks then read elapsed simulated time instead of
wall-clock time, which makes every experiment deterministic and independent
of the machine running the test suite.
"""

from __future__ import annotations


NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000


class SimClock:
    """A monotonically increasing nanosecond counter.

    The clock only moves when a component charges time to it; there is no
    background tick.  ``_now_ns`` is the running cursor every charge adds
    to: host time, or inside an overlap window the window lane's busy-until
    cursor (the window parks host time in ``_host_ns`` meanwhile).  So a
    charge is the same integer add wherever it lands, and ``advance`` adds
    only the bus hand-off for an open capture.
    """

    __snapshot__ = "auto"

    def __init__(self, start_ns=0):
        self._now_ns = int(start_ns)
        self._lane_busy = {}
        self._overlap_lane = None
        self._host_ns = None
        """Host time parked by an open overlap window; ``None`` outside
        one, so equal clocks pickle alike whatever their window
        history."""
        self.faults = None
        """Optional armed :class:`repro.faults.engine.FaultEngine`; a
        plain attribute so hot paths read it without ``getattr``."""
        self._bus = None
        self.dormant = True
        """True while no bus capture is open, so a charge is one integer
        add on ``_now_ns`` (inside an overlap window too).  A plain
        attribute for hot paths; :meth:`_refresh_dormant` recomputes it
        wherever a capture opens or closes or the bus changes."""

    @property
    def bus(self):
        """Optional :class:`repro.obs.TraceBus` observing this clock.
        Observers only *read* the clock; they never advance it."""
        return self._bus

    @bus.setter
    def bus(self, bus):
        self._bus = bus
        self._refresh_dormant()

    def _refresh_dormant(self):
        bus = self._bus
        self.dormant = bus is None or not bus._depth

    @property
    def now_ns(self):
        """Current host-visible simulated time in nanoseconds (it stands
        still inside an overlap window)."""
        if self._overlap_lane is None:
            return self._now_ns
        return self._host_ns

    @property
    def now_us(self):
        """Current host-visible simulated time in microseconds (float)."""
        return self.now_ns / NSEC_PER_USEC

    def advance(self, delta_ns, reason=""):
        """Move time forward by ``delta_ns`` nanoseconds.

        Args:
            delta_ns: non-negative duration to add.
            reason: short label recorded by an open bus capture.
        """
        delta_ns = int(delta_ns)
        if delta_ns < 0:
            raise ValueError(f"cannot move time backwards ({delta_ns} ns)")
        self._now_ns += delta_ns
        # Not dormant means a bus with an open capture.
        if not self.dormant and delta_ns:
            self._bus.on_charge(reason or "unlabelled", delta_ns,
                                self._now_ns)

    def measure(self):
        """Return a context manager measuring elapsed simulated time.

        Example::

            with clock.measure() as span:
                run_workload()
            print(span.elapsed_us)
        """
        return _Span(self)

    # -- overlapped-charge accounting ---------------------------------------

    def overlap(self, lane="cvm"):
        """Context manager: charge time to ``lane`` instead of the host.

        Inside the window every charge accrues to a per-lane busy-until
        cursor (starting at ``max(now, lane's watermark)``) while
        host-visible ``now_ns`` stands still — the simulated equivalent
        of work proceeding on another vCPU.  The host only pays when it
        synchronises via :meth:`wait_for`.  Windows do not nest (one lane
        models one single-threaded drain loop).
        """
        return _OverlapWindow(self, lane)

    def wait_for(self, lane, reason=""):
        """Advance host time to ``lane``'s watermark (a fence).

        Returns the nanoseconds the host actually waited (0 when the
        lane already finished before the host caught up).
        """
        if self._overlap_lane is not None:
            raise ValueError("cannot wait_for a lane inside an overlap "
                             "window")
        backlog = self.lane_backlog_ns(lane)
        if backlog:
            self.advance(backlog, reason or f"wait:{lane}")
        return backlog

    def lane_backlog_ns(self, lane):
        """How far ``lane``'s watermark runs ahead of host time."""
        return max(0, self._lane_busy.get(lane, 0) - self.now_ns)

    def __repr__(self):
        return f"SimClock(now={self.now_ns} ns)"


class _OverlapWindow:
    """Swaps ``lane``'s cursor into the clock for the ``with`` body.

    On entry host time is parked and ``_now_ns`` becomes
    ``max(host, lane watermark)``, so every charge site — ``advance``
    and the dormant ``clock._now_ns += ns`` adds alike — lands on the
    lane without knowing about windows.  On exit host time comes back.
    """

    __slots__ = ("_clock", "_lane")

    def __init__(self, clock, lane):
        self._clock = clock
        self._lane = lane

    def __enter__(self):
        clock = self._clock
        if clock._overlap_lane is not None:
            raise ValueError("overlap windows do not nest")
        host = clock._now_ns
        clock._overlap_lane = self._lane
        clock._host_ns = host
        clock._now_ns = max(host, clock._lane_busy.get(self._lane, 0))
        return self

    def __exit__(self, exc_type, exc, tb):
        # Commit the cursor only on clean exit: a window body that
        # raised (an injected wb.*/binder.* fault escaping mid-drain)
        # never finished the work it was charging, so the lane's busy
        # watermark stays at its pre-window value instead of billing
        # phantom time the next fence would have to wait out.
        clock = self._clock
        if exc_type is None:
            clock._lane_busy[self._lane] = clock._now_ns
        clock._now_ns = clock._host_ns
        clock._host_ns = None
        clock._overlap_lane = None
        return False


class _Span:
    """Context manager capturing a [start, end] window on a SimClock."""

    def __init__(self, clock):
        self._clock = clock
        self.start_ns = None
        self.end_ns = None

    def __enter__(self):
        self.start_ns = self._clock.now_ns
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end_ns = self._clock.now_ns
        return False

    @property
    def elapsed_ns(self):
        end = self.end_ns if self.end_ns is not None else self._clock.now_ns
        return end - self.start_ns

    @property
    def elapsed_us(self):
        return self.elapsed_ns / NSEC_PER_USEC

    @property
    def elapsed_ms(self):
        return self.elapsed_ns / NSEC_PER_MSEC
