"""The dormant channel transfer is the instrumented one, minus the records.

``AnceptionChannel._transfer`` has two bodies: the dormant one (no
fault engine, no bus capture), which crosses a payload of one page or
less whole and sums a longer one's chunk charges into one integer add
while its loop does only the checked ``cross_frame`` calls, and the
instrumented one, which charges chunk by chunk under a ``channel-copy``
span.  For every payload size, direction and copy rate, both must leave
the same simulated time, the same counters and the same bytes in the
shared frame; and both must refuse a frame the guest window no longer
covers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.channel import AnceptionChannel
from repro.errors import HypervisorViolation
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from repro.kernel.memory import Window
from repro.obs.bus import TraceBus
from repro.perf.costs import PAGE_SIZE


_EDGE_SIZES = (0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
               3 * PAGE_SIZE + 1)

_sizes = st.sampled_from(_EDGE_SIZES) | st.integers(0, 4 * PAGE_SIZE)
_directions = st.sampled_from(("to-guest", "to-host"))
_kinds = st.sampled_from((bytes, bytearray, memoryview))

_COUNTERS = ("transfers", "bytes_to_guest", "bytes_to_host", "bulk_chunks")


def _channel():
    machine = Machine(total_mb=128)
    hypervisor = LguestHypervisor(machine, guest_mb=16)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


def _payload(kind, size, seed):
    data = random.Random(seed).randbytes(size)
    return memoryview(data) if kind is memoryview else kind(data)


def _run(channel, payload, direction, bulk, captured):
    """Transfer ``payload``; returns (sim ns, counters, frame bytes)."""
    clock = channel.hypervisor.machine.clock
    before = clock.now_ns
    if captured:
        bus = TraceBus.install(clock)
        with bus.capture():
            assert not clock.dormant
            _transfer(channel, payload, direction, bulk)
    else:
        assert clock.dormant and clock.faults is None
        _transfer(channel, payload, direction, bulk)
    counters = tuple(getattr(channel, name) for name in _COUNTERS)
    return clock.now_ns - before, counters, channel.shared.read(PAGE_SIZE)


def _transfer(channel, payload, direction, bulk):
    if bulk:
        with channel.bulk_copy():
            channel._transfer(payload, direction)
    else:
        channel._transfer(payload, direction)


@given(size=_sizes, direction=_directions, bulk=st.booleans(),
       kind=_kinds, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_dormant_transfer_equals_captured_transfer(size, direction, bulk,
                                                   kind, seed):
    dormant = _run(_channel(), _payload(kind, size, seed), direction, bulk,
                   captured=False)
    captured = _run(_channel(), _payload(kind, size, seed), direction, bulk,
                    captured=True)
    assert dormant == captured


@pytest.mark.parametrize("captured", (False, True))
@pytest.mark.parametrize("direction", ("to-guest", "to-host"))
def test_frame_outside_the_guest_window_is_refused(direction, captured):
    channel = _channel()
    shared = channel.shared
    frame = shared.frames[0]
    shared.guest_window = Window(frame + 1, shared.guest_window.stop)
    clock = channel.hypervisor.machine.clock
    with pytest.raises(HypervisorViolation):
        if captured:
            with TraceBus.install(clock).capture():
                channel._transfer(b"ten bytes!", direction)
        else:
            channel._transfer(b"ten bytes!", direction)
