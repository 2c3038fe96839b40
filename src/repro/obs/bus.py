"""The trace bus: typed span/event records over simulated time.

Every instrumented layer asks the shared :class:`~repro.clock.SimClock`
for its bus and, when capturing is active, emits records:

* **spans** — an operation with a begin and end simulated timestamp
  (``syscall``, ``world-switch``, ``channel-copy``, ``binder-txn``,
  ``proxy``);
* **events** — instantaneous markers (``irq``, ``page-fault``);
* **charges** — the raw ``(reason, delta_ns)`` pair of every non-zero
  ``clock.advance``, so latency breakdowns are one more view of the
  same stream.

Two invariants hold by construction:

1. **Observers never call ``clock.advance``** — tracing cannot perturb
   simulated time; a workload's elapsed nanoseconds are bit-identical
   with tracing on or off.
2. **Disabled means dormant** — instrumentation sites guard with
   :func:`maybe_span` / :func:`maybe_event`, which are attribute checks
   when no capture is active; no records, no allocation of span state.

Captures nest (depth-counted): an inner ``with bus.capture()`` sees only
its own window while the outer capture keeps everything.  A capture is
the only charge recorder; the clock keeps no trace of its own.
"""

from __future__ import annotations


class _NullSpan:
    """Shared no-op span handed out when capturing is off."""

    __slots__ = ()

    def set(self, **_attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class ChargeRecord:
    """One recorded clock charge, slotted instead of a per-call dict.

    Charges are the highest-volume record kind on the bus (every
    non-zero ``clock.advance`` during a capture emits one), so they
    carry fixed fields in ``__slots__`` rather than a fresh dict.  The
    mapping-style surface (``record["name"]``, ``record.get("pid")``,
    ``dict(record)``) keeps every existing consumer — captures, sinks,
    exporters — working unchanged.
    """

    __snapshot__ = "auto"

    __slots__ = ("name", "begin_ns", "dur_ns", "seq")

    type = "charge"
    kind = "charge"

    _FIELDS = ("type", "kind", "name", "begin_ns", "dur_ns", "seq")

    def __init__(self, name, begin_ns, dur_ns, seq):
        self.name = name
        self.begin_ns = begin_ns
        self.dur_ns = dur_ns
        self.seq = seq

    def __getitem__(self, key):
        if key in self._FIELDS:
            return getattr(self, key)
        raise KeyError(key)

    def __contains__(self, key):
        return key in self._FIELDS

    def get(self, key, default=None):
        if key in self._FIELDS:
            return getattr(self, key)
        return default

    def keys(self):
        return self._FIELDS

    def items(self):
        return [(key, getattr(self, key)) for key in self._FIELDS]

    def __iter__(self):
        return iter(self._FIELDS)

    def __len__(self):
        return len(self._FIELDS)

    def __eq__(self, other):
        if isinstance(other, ChargeRecord):
            return self.items() == other.items()
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self):
        return (f"ChargeRecord({self.name!r}, begin_ns={self.begin_ns}, "
                f"dur_ns={self.dur_ns}, seq={self.seq})")


class Span:
    """One open span; closes (and publishes its record) on ``__exit__``."""

    __slots__ = ("_bus", "record")

    def __init__(self, bus, record):
        self._bus = bus
        self.record = record

    def set(self, **attrs):
        """Attach attributes discovered while the span is open."""
        self.record["args"].update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        record = self.record
        record["end_ns"] = self._bus.clock.now_ns
        if exc_type is not None:
            record["args"]["error"] = exc_type.__name__
        self._bus._publish(record)
        return False


class Capture:
    """One (possibly nested) recording window on a bus."""

    __slots__ = ("_bus", "_marker", "records")

    def __init__(self, bus):
        self._bus = bus
        self._marker = None
        self.records = []

    def __enter__(self):
        self._marker = self._bus._begin_capture()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.records = self._bus._end_capture(self._marker)
        return False

    def spans(self, kind=None):
        return [
            r for r in self.records
            if r["type"] == "span" and (kind is None or r["kind"] == kind)
        ]

    def events(self, kind=None):
        return [
            r for r in self.records
            if r["type"] == "event" and (kind is None or r["kind"] == kind)
        ]

    def charges(self):
        return [
            (r["name"], r["dur_ns"])
            for r in self.records
            if r["type"] == "charge"
        ]


class TraceBus:
    """Publish/subscribe hub for one machine's telemetry."""

    __snapshot__ = "auto"

    SINK_FAILURE_LIMIT = 3
    """Consecutive-failure budget before a raising sink is dropped."""

    def __init__(self, clock):
        self.clock = clock
        self.records = []
        self._depth = 0
        self._seq = 0
        self._sinks = []
        self._sink_failures = {}
        """Consecutive failures per sink, keyed by the sink itself (the
        old ``id(sink)`` keys would go stale across a snapshot restore,
        which reassigns every CPython object id)."""
        self.sink_errors = 0
        """Total ``obs_sink_errors``: exceptions swallowed from sinks."""
        self.dropped_sinks = 0
        """Sinks evicted after exhausting :data:`SINK_FAILURE_LIMIT`."""

    # -- attachment ----------------------------------------------------------

    @classmethod
    def install(cls, clock):
        """Return the clock's bus, creating and attaching one if needed."""
        bus = clock.bus
        if bus is None:
            bus = cls(clock)
            clock.bus = bus
        return bus

    @property
    def enabled(self):
        return self._depth > 0

    def subscribe(self, sink):
        """``sink(record)`` is called for every finished record."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink):
        if sink in self._sinks:
            self._sinks.remove(sink)
        self._sink_failures.pop(sink, None)

    # -- capture windows -----------------------------------------------------

    def capture(self):
        """Context manager recording all records emitted inside it."""
        return Capture(self)

    def _begin_capture(self):
        self._depth += 1
        self.clock._refresh_dormant()
        return len(self.records)

    def _end_capture(self, marker):
        window = list(self.records[marker:])
        self._depth -= 1
        if self._depth == 0:
            self.records = []
        self.clock._refresh_dormant()
        return window

    # -- emission ------------------------------------------------------------

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _task_fields(self, record, task):
        if task is None:
            return
        record["pid"] = task.pid
        record["comm"] = task.name
        credentials = getattr(task, "credentials", None)
        if credentials is not None:
            record["uid"] = credentials.uid
        record["re"] = getattr(task, "redirection_entry", 0)

    def span(self, kind, name, task=None, kernel=None, sclass=None, **attrs):
        """Open a span; use as a context manager.

        Returns :data:`NULL_SPAN` when no capture is active, so call
        sites can emit unconditionally through :func:`maybe_span`.
        """
        if not self._depth:
            return NULL_SPAN
        record = {
            "type": "span",
            "kind": kind,
            "name": name,
            "begin_ns": self.clock.now_ns,
            "end_ns": None,
            "kernel": kernel or "",
            "seq": self._next_seq(),
            "args": dict(attrs),
        }
        if sclass is not None:
            record["sclass"] = sclass
        self._task_fields(record, task)
        return Span(self, record)

    def event(self, kind, name, task=None, kernel=None, **attrs):
        """Emit an instantaneous event record."""
        if not self._depth:
            return None
        record = {
            "type": "event",
            "kind": kind,
            "name": name,
            "ts_ns": self.clock.now_ns,
            "kernel": kernel or "",
            "seq": self._next_seq(),
            "args": dict(attrs),
        }
        self._task_fields(record, task)
        self._publish(record)
        return record

    def on_charge(self, reason, delta_ns, now_ns):
        """Record one clock charge (called by SimClock under a capture)."""
        self._seq += 1
        self.records.append(
            ChargeRecord(reason, now_ns - delta_ns, delta_ns, self._seq)
        )

    def _publish(self, record):
        """Append and fan out; a raising sink never aborts the caller.

        Observability must stay side-effect-free on the workload: a
        buggy subscriber (a logcat sink hitting a full log device, a
        user callback with a typo) is isolated, counted in
        ``sink_errors``, and evicted after
        :data:`SINK_FAILURE_LIMIT` failures so a hot loop cannot drown
        dispatch in swallowed exceptions.
        """
        self.records.append(record)
        if not self._sinks:
            return
        dead = None
        for sink in tuple(self._sinks):
            try:
                sink(record)
            except Exception:
                self.sink_errors += 1
                failures = self._sink_failures.get(sink, 0) + 1
                self._sink_failures[sink] = failures
                if failures >= self.SINK_FAILURE_LIMIT:
                    if dead is None:
                        dead = []
                    dead.append(sink)
        if dead:
            for sink in dead:
                self.unsubscribe(sink)
                self.dropped_sinks += 1


def maybe_span(clock, kind, name, task=None, kernel=None, sclass=None,
               **attrs):
    """Span on ``clock``'s bus when capturing, else the shared no-op."""
    if clock.dormant:
        return NULL_SPAN
    return clock._bus.span(kind, name, task=task, kernel=kernel,
                           sclass=sclass, **attrs)


def maybe_event(clock, kind, name, task=None, kernel=None, **attrs):
    """Event on ``clock``'s bus when capturing, else nothing."""
    if clock.dormant:
        return None
    return clock._bus.event(kind, name, task=task, kernel=kernel, **attrs)


class LogcatSink:
    """Mirror finished records into a kernel log device.

    Android debugging habit: the kernel's tracepoints show up as logcat
    lines.  Attach with ``bus.subscribe(LogcatSink(kernel.log_device))``;
    span records become ``trace:`` lines tagged ``kernel``.
    """

    __snapshot__ = "auto"

    TAG = "kernel"

    def __init__(self, log_device, kinds=None):
        self.log_device = log_device
        self.kinds = dict.fromkeys(kinds) if kinds is not None else None
        self.lines = 0

    def __call__(self, record):
        if self.kinds is not None and record["kind"] not in self.kinds:
            return
        if record["type"] == "span":
            dur_ns = record["end_ns"] - record["begin_ns"]
            text = (
                f"trace: {record['kind']} {record['name']}"
                f" pid={record.get('pid', '-')}"
                f" dur_us={dur_ns / 1000:.2f}"
            )
        else:
            text = (
                f"trace: {record['kind']} {record['name']}"
                f" pid={record.get('pid', '-')}"
            )
        self.log_device.append(self.TAG, text)
        self.lines += 1
