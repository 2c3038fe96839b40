"""Binder IPC: driver, transactions, service manager.

Binder is Android's capability-based synchronous IPC.  Apps open
``/dev/binder`` and drive it with ioctls — which is precisely why
Anception can sort UI traffic from everything else *at the system call
interface*: the transaction's target service is visible in the ioctl
argument (Section III-B, "Isolating and securing the UI/Input").

Two ioctls matter:

* ``BINDER_WRITE_READ`` carrying a :class:`Transaction` — a synchronous
  call into a system service, dispatched via the service manager.  With
  ``TF_ONE_WAY`` set the call is fire-and-forget: the sender never waits
  for (or sees) a reply, and service-side errors are swallowed — exactly
  the asymmetry the batched delegation lane exploits.
* ``IOC_WAIT_INPUT_EVT`` — the banking-app Listing 1 idiom: block until
  the input subsystem delivers an event for the caller's window.
"""

from __future__ import annotations

import errno

from repro.errors import SyscallError
from repro.obs.bus import NULL_SPAN


def encoded_size(value):
    """Lazy trampoline to :func:`repro.core.marshal.encoded_size`.

    ``repro.core``'s package init imports the anception layer, which
    boots Android framework code, which imports this module — a direct
    top-level import here would close that cycle.  First call swaps in
    the real function.
    """
    global encoded_size
    from repro.core.marshal import encoded_size as real
    encoded_size = real
    return real(value)


BINDER_WRITE_READ = 0xC0186201
IOC_WAIT_INPUT_EVT = 0xC0186F01

TF_ONE_WAY = 0x01
"""Transaction flag: asynchronous fire-and-forget, no reply leg."""

BINDER_IOCTL_REQUESTS = {
    "BINDER_WRITE_READ": BINDER_WRITE_READ,
    "IOC_WAIT_INPUT_EVT": IOC_WAIT_INPUT_EVT,
}
"""Every request code the driver dispatches, by name.  Module-level so
the syscall conformance suite can walk the binder ioctl surface the same
way it walks the redirect universe."""

DELEGATED_BINDER_REQUESTS = frozenset({"BINDER_WRITE_READ"})
"""Request codes the redirection layer forwards into the CVM.  Each one
must have marshal coverage and a differential script (or a documented
exemption) — enforced by ``tests/core/test_syscall_conformance.py``."""

TRANSACTION_LOG_LIMIT = 512
"""Default bound on ``BinderDriver.transaction_log``.  Long soak
workloads push millions of transactions; an unbounded list is a memory
leak dressed up as an audit trail."""


class Transaction:
    """One binder call: target service name, method code, payload."""

    __snapshot__ = "auto"

    def __init__(self, target, method, payload=None, flags=0):
        self.target = target
        self.method = method
        self.payload = payload if payload is not None else {}
        self.flags = flags
        self.reply = None
        self.sender_pid = None
        self.sender_uid = None

    @property
    def is_oneway(self):
        return bool(self.flags & TF_ONE_WAY)

    @property
    def payload_size(self):
        """Marshaled payload size in bytes, via :mod:`repro.core.marshal`.

        Sized with the same ``encoded_size`` rules the delegation channel
        charges for, so latency accounting matches what actually crosses
        the shared pages (``repr()`` over-counted dict/str punctuation).
        """
        return encoded_size(self.payload)

    def __repr__(self):
        oneway = ", oneway" if self.is_oneway else ""
        return f"Transaction({self.target}.{self.method}{oneway})"


class ServiceManager:
    """Binder handle 0: the name -> service registry."""

    __snapshot__ = "auto"

    def __init__(self):
        self._services = {}

    def register(self, service):
        self._services[service.name] = service

    def unregister(self, name):
        self._services.pop(name, None)

    def get(self, name):
        return self._services.get(name)

    def names(self):
        return sorted(self._services)

    def services(self):
        return [self._services[name] for name in self.names()]


class TransactionLog:
    """Bounded ring of ``(pid, target, method)`` tuples.

    Keeps the list-like surface the test suite and tooling use
    (iteration, membership, indexing, ``len``) while dropping the oldest
    entries past ``limit`` and counting what fell off the end.
    """

    __snapshot__ = "auto"

    def __init__(self, limit=TRANSACTION_LOG_LIMIT):
        self.limit = int(limit)
        self._entries = []
        self.dropped = 0

    def append(self, entry):
        self._entries.append(entry)
        if len(self._entries) > self.limit:
            excess = len(self._entries) - self.limit
            del self._entries[:excess]
            self.dropped += excess

    def clear(self):
        self._entries.clear()

    def __iter__(self):
        return iter(self._entries)

    def __contains__(self, entry):
        return entry in self._entries

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __eq__(self, other):
        if isinstance(other, TransactionLog):
            return self._entries == other._entries
        return self._entries == other

    def __repr__(self):
        return (f"TransactionLog({self._entries!r}, "
                f"dropped={self.dropped})")


class BinderDriver:
    """The ``/dev/binder`` device node.

    Each kernel (host and CVM) has its own driver instance bound to its
    own service manager; transactions never cross kernels by themselves —
    that bridging is Anception's job.
    """

    __snapshot__ = "auto"

    def __init__(self, kernel, service_manager, ui_stack=None,
                 log_limit=TRANSACTION_LOG_LIMIT):
        self.kernel = kernel
        self.service_manager = service_manager
        self.ui_stack = ui_stack
        self.transaction_log = TransactionLog(log_limit)
        self.oneway_errors = 0

    @property
    def transaction_log_dropped(self):
        """Entries the bounded transaction log has discarded."""
        return self.transaction_log.dropped

    def read(self, open_file, length):
        raise SyscallError(errno.EINVAL, "binder supports only ioctl")

    def write(self, open_file, data):
        raise SyscallError(errno.EINVAL, "binder supports only ioctl")

    def ioctl(self, task, open_file, request, arg):
        if request == IOC_WAIT_INPUT_EVT:
            if self.ui_stack is None:
                raise SyscallError(errno.ENODEV, "no UI stack on this kernel")
            self.kernel.clock.advance(
                self.kernel.costs.ui_ioctl_ns, "binder:wait-input"
            )
            return self.ui_stack.wait_input(task)
        if request == BINDER_WRITE_READ:
            return self.transact(task, arg)
        raise SyscallError(errno.EINVAL, f"binder ioctl {request:#x}")

    def transact(self, task, transaction):
        """Execute a transaction against a local service.

        Synchronous transactions return the service's reply (and raise
        its errors).  Oneway transactions pay only the delivery leg —
        half the reply-carrying round trip — return ``None``, and
        swallow service-side :class:`SyscallError`\\ s like the real
        driver does once the caller has stopped listening.  A missing
        target still raises ``ENOENT`` either way: the name lookup
        happens before the sender lets go.
        """
        if not isinstance(transaction, Transaction):
            raise SyscallError(errno.EINVAL, "binder arg must be Transaction")
        service = self.service_manager.get(transaction.target)
        if service is None:
            raise SyscallError(
                errno.ENOENT, f"no service {transaction.target!r}"
            )
        transaction.sender_pid = task.pid
        transaction.sender_uid = task.credentials.uid
        oneway = transaction.is_oneway
        if service.ui_related:
            cost = self.kernel.costs.ui_ioctl_ns
        elif oneway:
            cost = self.kernel.costs.binder_oneway_ns
        else:
            cost = self.kernel.costs.binder_transaction_ns
        clock = self.kernel.clock
        bus = clock.bus
        # Dormant bus: skip the span's label and the parcel walk that
        # sizes ``payload_bytes`` -- nothing would record them.
        span = NULL_SPAN if bus is None or not bus._depth else bus.span(
            "binder-txn", f"{transaction.target}.{transaction.method}",
            task=task, kernel=self.kernel.label, target=transaction.target,
            method=transaction.method, ui=service.ui_related,
            oneway=oneway, payload_bytes=transaction.payload_size,
        )
        with span:
            clock.advance(cost, f"binder:{transaction.target}")
            self.transaction_log.append(
                (task.pid, transaction.target, transaction.method)
            )
            if oneway:
                try:
                    service.handle_transaction(
                        transaction.method, transaction.payload, task
                    )
                except SyscallError:
                    self.oneway_errors += 1
                transaction.reply = None
                return None
            transaction.reply = service.handle_transaction(
                transaction.method, transaction.payload, task
            )
        return transaction.reply


def is_ui_transaction(service_manager_names, request, arg):
    """The redirection logic's UI test, run at the syscall interface.

    UI/Input traffic is identifiable without trusting the app: either the
    wait-for-input ioctl, or a BINDER_WRITE_READ whose target is one of the
    well-known UI service names.  ``service_manager_names`` is the set of
    UI-related service names registered on the host.
    """
    if request == IOC_WAIT_INPUT_EVT:
        return True
    if request == BINDER_WRITE_READ and isinstance(arg, Transaction):
        return arg.target in service_manager_names
    return False
