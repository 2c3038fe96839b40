"""Dormant binder ≡ captured binder.

``BinderDriver.transact`` builds its ``binder-txn`` span (label and
``payload_bytes``) only while a bus capture is active.  These tests run
the same transaction on two fresh worlds, one with no capture and one
inside a capture, and require the same simulated time, reply,
deliveries, oneway error count and errno.  They also pin that the
dormant path never sizes the parcel.
"""

from contextlib import nullcontext

import errno

import pytest

from repro.android.binder import TF_ONE_WAY, Transaction
from repro.errors import SyscallError
from repro.kernel.process import Credentials
from repro.obs.bus import TraceBus
from repro.world import NativeWorld

from tests.recorders import record_deliveries


CASES = {
    "sync": ("location", "get_fix", {"accuracy": "fine"}, 0),
    "oneway": ("power", "acquire_wakelock", {"tag": "x" * 64}, TF_ONE_WAY),
    "ui": ("window", "get_display_info", {}, 0),
    "missing-target": ("ghost", "anything", {}, 0),
    "service-error": ("location", "no_such_method", {}, 0),
    "oneway-service-error": ("power", "no_such_method", {}, TF_ONE_WAY),
}


EXPECTED = {
    "missing-target": (errno.ENOENT, 0),
    "service-error": (errno.EINVAL, 0),
    "oneway-service-error": (None, 1),
}
"""Case -> (errno raised, oneway errors swallowed); others (None, 0)."""

DORMANT = ("no-bus", "idle-bus")


def _run(case, mode):
    world = NativeWorld()
    driver = world.system.binder_driver
    task = world.kernel.spawn_task("client", Credentials(10001))
    target, method, payload, flags = CASES[case]
    transaction = Transaction(target, method, dict(payload), flags)
    clock = world.kernel.clock
    if mode == "no-bus":
        clock.bus = None
        scope = nullcontext()
    else:
        bus = TraceBus.install(clock)
        scope = bus.capture() if mode == "capture" else nullcontext()
    start = clock.now_ns
    errno_raised = reply = None
    with scope as capture:
        try:
            reply = driver.transact(task, transaction)
        except SyscallError as exc:
            errno_raised = exc.errno
    outcome = {
        "sim_ns": clock.now_ns - start,
        "reply": reply,
        "oneway_errors": driver.oneway_errors,
        "errno": errno_raised,
    }
    return outcome, capture


@pytest.mark.parametrize("mode", DORMANT)
@pytest.mark.parametrize("case", sorted(CASES))
def test_dormant_matches_captured(case, mode, monkeypatch):
    deliveries = record_deliveries(monkeypatch)
    dormant, _ = _run(case, mode)
    dormant["log"] = list(deliveries)
    deliveries.clear()
    captured, capture = _run(case, "capture")
    captured["log"] = list(deliveries)
    assert dormant == captured
    target, method, payload, flags = CASES[case]
    assert len(dormant["log"]) == (case != "missing-target")
    assert all(entry[2:] == (target, method) for entry in dormant["log"])
    assert (dormant["errno"], dormant["oneway_errors"]) == EXPECTED.get(
        case, (None, 0))
    spans = capture.spans("binder-txn")
    if case == "missing-target":
        assert spans == []
    else:
        (span,) = spans
        assert span["name"] == f"{target}.{method}"
        assert span["args"]["payload_bytes"] == Transaction(
            target, method, payload).payload_size
        assert span["args"]["oneway"] is bool(flags & TF_ONE_WAY)


@pytest.mark.parametrize("mode", DORMANT)
@pytest.mark.parametrize("case", sorted(CASES))
def test_dormant_path_never_sizes_the_parcel(case, mode, monkeypatch):
    def refuse(self):
        raise AssertionError("payload_size evaluated with no capture")

    monkeypatch.setattr(Transaction, "payload_size", property(refuse))
    _run(case, mode)


def test_captured_path_sizes_the_parcel(monkeypatch):
    sized = []
    real = Transaction.payload_size

    def counting(self):
        sized.append(self.target)
        return real.fget(self)

    monkeypatch.setattr(Transaction, "payload_size", property(counting))
    _run("sync", "capture")
    assert sized == ["location"]
