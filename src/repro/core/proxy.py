"""Per-app proxy processes in the CVM.

For every enrolled host task Anception keeps a lightweight counterpart in
the container with the *same security credentials* (UID, umask, cwd,
directory structure).  Forwarded system calls execute in the proxy's
context, so the CVM applies exactly the permission checks the host would
have applied (Section III-B) — and a CVM-side attacker who goes hunting
through ``/proc/<pid>/mem`` finds only the proxy's tiny address space.

Efficient call execution (Section IV-3): the proxy parks itself in an
interruptible sleep *inside guest kernel space*; posted calls run from
its context without the 4 context switches a userspace hand-off would
cost.  We reproduce that by charging only ``proxy_dispatch_ns`` per call.
"""

from __future__ import annotations

from repro.core.marshal import result_size, zeros
from repro.errors import (
    ContainerCrashed,
    ProxyDied,
    SimulationError,
    SyscallError,
)
from repro.kernel.kernel import KernelCrashed
from repro.kernel.process import LIVE_STATES, TaskState
from repro.obs.bus import maybe_span


PROXY_MEMORY_KB = 96
"""Resident footprint of one proxy (handles + kernel stack, no app heap)."""


class Proxy:
    """One host task's CVM counterpart."""

    __snapshot__ = "auto"

    def __init__(self, host_task, guest_task):
        self.host_task = host_task
        self.guest_task = guest_task
        self.calls_executed = 0

    @property
    def pid(self):
        return self.guest_task.pid

    def park(self):
        """Put the proxy into its in-kernel interruptible sleep."""
        self.guest_task.state = TaskState.SLEEPING

    def __repr__(self):
        return (
            f"Proxy(host_pid={self.host_task.pid}, "
            f"guest_pid={self.guest_task.pid})"
        )


class ProxyManager:
    """Creates and tracks proxies on the CVM kernel."""

    __snapshot__ = "auto"

    def __init__(self, cvm):
        self.cvm = cvm
        self._by_host_pid = {}

    def create_proxy(self, host_task):
        """Mirror ``host_task`` into the container."""
        if host_task.pid in self._by_host_pid:
            raise SimulationError(
                f"pid {host_task.pid} already has a proxy"
            )
        guest_task = self.cvm.kernel.spawn_task(
            f"proxy:{host_task.name}", host_task.credentials
        )
        guest_task.cwd = host_task.cwd
        guest_task.umask = host_task.umask
        guest_task.exe_path = host_task.exe_path
        proxy = Proxy(host_task, guest_task)
        proxy.park()
        self._by_host_pid[host_task.pid] = proxy
        self.cvm.ensure_private_dir(host_task)
        return proxy

    def proxy_for(self, host_task):
        proxy = self._by_host_pid.get(host_task.pid)
        if proxy is None:
            raise SimulationError(
                f"pid {host_task.pid} is not enrolled (no proxy)"
            )
        return proxy

    def has_proxy(self, host_task):
        return host_task.pid in self._by_host_pid

    def remove_proxy(self, host_task, exit_code=0):
        """Drop ``host_task``'s proxy record and end its guest task."""
        proxy = self._by_host_pid.pop(host_task.pid, None)
        if proxy is not None and not self.cvm.kernel.crashed:
            self.cvm.kernel.reap_task(proxy.guest_task, exit_code)

    def execute(self, proxy, name, args, kwargs):
        """Run one forwarded call from the parked proxy's context."""
        clock = self.cvm.machine.clock
        engine = clock.faults
        if engine is not None:
            self._inject_faults(engine, proxy, name)
        guest_task = proxy.guest_task
        if guest_task.state not in LIVE_STATES:
            raise ProxyDied(
                proxy.host_task.pid, guest_task.pid,
                "proxy process is dead",
            )
        guest_task.state = TaskState.RUNNING
        try:
            if clock.dormant:
                result = self.cvm.kernel.syscall(
                    guest_task, name, *args, **kwargs
                )
            else:
                with maybe_span(clock, "proxy",
                                f"execute:{name}", task=guest_task,
                                kernel=self.cvm.kernel.label):
                    result = self.cvm.kernel.syscall(
                        guest_task, name, *args, **kwargs
                    )
            proxy.calls_executed += 1
            return result
        finally:
            if guest_task.state in LIVE_STATES:
                guest_task.state = TaskState.SLEEPING

    def drain(self, channel):
        """Service every submitted ring descriptor behind one doorbell.

        The guest-side half of doorbell coalescing: one injected IRQ
        wakes the CVM, which pops the submit ring dry, executes each
        descriptor's call from its owning proxy's parked context, and
        pushes one completion descriptor per successful result — all
        before the single completion hypercall.

        Each descriptor carries its :class:`~repro.core.anception
        .PendingCall` (arguments travel by reference on the Python side;
        the descriptor's wire bytes carried the honest byte accounting),
        and the drain sets its ``outcome``: ``("ok", result)``,
        ``("err", SyscallError)`` — no completion descriptor is pushed,
        mirroring the classic errno path that skips the completion copy
        — or ``("cancelled", SyscallError)`` for a later descriptor
        skipped because an earlier one failed (vectored I/O stops at the
        first error, like the native kernel).

        Delegation-layer failures (a dead proxy, a crashed container,
        descriptor corruption) propagate as
        :class:`~repro.errors.DelegationError` for the recovery
        supervisor; the caller resets the rings before retrying.
        """
        submit_ring = channel.submit_ring
        failed = None
        while True:
            descriptor = submit_ring.pop()
            if descriptor is None:
                return
            pending = descriptor.pending
            if failed is not None:
                pending.outcome = ("cancelled", failed)
                continue
            try:
                result = self.execute(pending.proxy, pending.name,
                                      pending.call_args, pending.kwargs)
            except KernelCrashed as crash:
                raise ContainerCrashed(crash.reason) from crash
            except SyscallError as exc:
                pending.outcome = ("err", exc)
                failed = exc
                continue
            pending.outcome = ("ok", result)
            # Completion payloads are all-zero padding of the result's
            # wire size; a view over the shared zero buffer avoids one
            # allocation per completed call.
            channel.complete_ring.push(
                pending.name, zeros(result_size(result)),
                seq=descriptor.seq,
            )

    def _inject_faults(self, engine, proxy, name):
        """Fault sites that strike while a call is being serviced."""
        if engine.fires("proxy.kill", name):
            self.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
            raise ProxyDied(
                proxy.host_task.pid, proxy.guest_task.pid,
                "killed by fault injection mid-call",
            )
        if engine.fires("cvm.compromise", name):
            self.cvm.kernel.compromise(proxy.guest_task, "fault-injection")
        if engine.fires("cvm.crash", name):
            # panic raises KernelCrashed; the redirect path turns it into
            # a recoverable ContainerCrashed
            self.cvm.kernel.panic("injected fault: cvm.crash")

    @property
    def count(self):
        return len(self._by_host_pid)

    def memory_kb(self):
        return self.count * PROXY_MEMORY_KB
