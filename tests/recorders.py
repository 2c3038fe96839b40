"""Test-side call recorders.

The program keeps no per-call log of its own: the trace bus is its only
per-call record, and it records only inside a capture.  A test that
must know which calls happened, dormant runs included, wraps the entry
point with ``monkeypatch`` instead.  The wrapper sits on the class, so
it records in dormant and captured runs alike, and keeps recording on a
world restored from a snapshot.
"""

from __future__ import annotations

from repro.android.app import AppServiceEndpoint
from repro.android.services.base import Service
from repro.core.policy import RedirectionPolicy


def record_calls(monkeypatch, owner, attr, entry, calls=None):
    """Wrap ``owner.attr``; return the list each call appends to.

    ``entry(self, *args, **kwargs)`` is recorded as the call is entered,
    so a call that then raises still counts.  Pass ``calls`` to share
    one list between several entry points.
    """
    calls = [] if calls is None else calls
    real = getattr(owner, attr)

    def wrapper(self, *args, **kwargs):
        calls.append(entry(self, *args, **kwargs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def record_decisions(monkeypatch):
    """``(pid, call name, Decision)`` for every call the layer routes."""
    decisions = []
    real = RedirectionPolicy.decide

    def decide(self, task, name, args, remote_fds):
        decision = real(self, task, name, args, remote_fds)
        decisions.append((task.pid, name, decision))
        return decision

    monkeypatch.setattr(RedirectionPolicy, "decide", decide)
    return decisions


class Deliveries(list):
    """``(kernel label, sender pid, service name, method)`` for every
    binder delivery, in the order the services were entered."""

    def on(self, kernel):
        """``(sender pid, service name, method)`` delivered on ``kernel``."""
        return [entry[1:] for entry in self if entry[0] == kernel.label]


def record_deliveries(monkeypatch):
    """Record each entry into a service's or app endpoint's
    ``handle_transaction``, where the binder driver hands a transaction
    over.  A delivery counts even when the service then raises."""
    deliveries = Deliveries()
    record_calls(
        monkeypatch, Service, "handle_transaction",
        lambda service, method, _payload, sender:
            (service.kernel.label, sender.pid, service.name, method),
        deliveries)
    record_calls(
        monkeypatch, AppServiceEndpoint, "handle_transaction",
        lambda endpoint, method, _payload, sender:
            (endpoint.ctx.kernel.label, sender.pid, endpoint.name, method),
        deliveries)
    return deliveries
