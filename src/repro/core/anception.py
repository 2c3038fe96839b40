"""The Anception interposition layer (ASIM + alternate syscall table).

This is the host kernel module of the paper: it sits at the system-call
interface, reads the one-byte redirection entry, and for flagged tasks
routes each call per the :class:`~repro.core.policy.RedirectionPolicy` —
executing it on the host, forwarding it through the channel to the app's
CVM proxy, splitting it across both kernels, or blocking it.

The real module is 5,219 lines of C of which 2,438 (46.7%) marshal and
unmarshal data; those constants are exposed for the TCB experiment (E9).
"""

from __future__ import annotations

import errno
import posixpath

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    BinderDriver,
    Transaction,
)
from repro.core.channel import AnceptionChannel
from repro.core.cvm import ContainerVM
from repro.core.exec_cache import ExecutionCache
from repro.core.marshal import (
    FD_ALLOCATING_CALLS,
    FdTranslationTable,
    RemoteFdStub,
    copy_parcel,
    encoded_size,
    marshal_call,
    marshal_call_into,
    wire_size,
)
from repro.core.page_cache import HostPageCache
from repro.core.policy import Decision, RedirectionPolicy
from repro.core.pool import CVMPool
from repro.core.proxy import ProxyManager
from repro.core.recovery import (
    BACKOFF_NS,
    MAX_RETRIES,
    REBOOT_COST_NS,
    SIGNAL_RETRIES,
    SIGNAL_TIMEOUT_NS,
    RecoveryLog,
)
from repro.core.ring import (
    RING_FLAG_BINDER,
    RING_FLAG_WRITE_BEHIND,
    RingDescriptor,
)
from repro.core.windows import WINDOW_DEPTH, DeferredEntry, DeferredWindows
from repro.errors import (
    ChannelError,
    ChannelStalled,
    ContainerCrashed,
    DelegationError,
    ProcessKilled,
    ProxyDied,
    SimulationError,
    SyscallError,
)
from repro.kernel.memory import MAP_ANONYMOUS, MAP_FIXED, page_of
from repro.kernel.process import RLIMIT_NOFILE, ROOT_UID, Credentials
from repro.kernel.vfs import (
    O_APPEND,
    O_CREAT,
    O_TRUNC,
    O_WRONLY,
    InodeKind,
    OpenFile,
)
from repro.obs.bus import maybe_event, maybe_span
from repro.perf.costs import PAGE_SIZE


ANCEPTION_LINES_OF_CODE = 5_219
ANCEPTION_MARSHALING_LINES = 2_438


def _delegation_eio(failure, call):
    """The EIO a delegation failure becomes once recovery gives up."""
    return SyscallError(errno.EIO, f"delegation failed: {failure}", call=call)


class DelegationBatch:
    """An open batch window: deferrable calls queue, its end flushes.

    Only ``write``/``pwrite64`` with no keyword arguments defer (their
    results are byte counts known up front); consecutive plain writes
    to the same fd merge into a single descriptor.  Everything else —
    reads, opens, another task's calls — flushes the queue first and
    runs synchronously, preserving program order.
    """

    __snapshot__ = "auto"

    DEFERRABLE = ("write", "pwrite64")

    def __init__(self, layer, task):
        self.layer = layer
        self.task = task
        self._entries = []

    def accepts(self, task, name, kwargs):
        return (
            task is self.task
            and not kwargs
            and name in self.DEFERRABLE
            and self.layer.crypto_fs is None
        )

    def add(self, task, name, args):
        """Queue one deferrable call, returning its optimistic result."""
        if name == "write":
            fd, data = args[0], bytes(args[1])
            last = self._entries[-1] if self._entries else None
            if last is not None and last[0] == "write" and last[1] == fd:
                last[2].append(data)
            else:
                self._entries.append(["write", fd, [data]])
            return len(data)
        fd, data, offset = args[0], bytes(args[1]), args[2]
        self._entries.append(("pwrite64", (fd, data, offset)))
        return len(data)

    def flush(self):
        """Forward everything queued behind one doorbell pair.

        A queued write that fails raises here (or at the window's end)
        with its real errno — the price of the optimistic early return.
        """
        if not self._entries:
            return
        entries, self._entries = self._entries, []
        calls = [
            ("write", (entry[1], b"".join(entry[2])), {}, None)
            if entry[0] == "write" else (entry[0], entry[1], {}, None)
            for entry in entries
        ]
        layer, task = self.layer, self.task
        lane = layer._lane(task)
        layer._supervise(
            task, lane, "batch", layer._round_trip,
            (task, lane, calls, "batch", f"batch:{len(calls)}", len(calls)),
        )


_OPEN_ALIASES = frozenset({"openat", "creat"})
"""Redirected calls the native kernel serves with its open, rewritten
to ``open`` before they cross."""

_CREAT_FLAGS = O_WRONLY | O_CREAT | O_TRUNC
"""The open flags ``creat(path, mode)`` stands for."""


WRITE_BEHIND_DEPTH = BINDER_RING_DEPTH = WINDOW_DEPTH
"""Default bound on one task's write-behind or binder window."""

_BINDER_WIRE_FRAME = wire_size(
    "ioctl", (0, BINDER_WRITE_READ, Transaction("", "")), {}
) - encoded_size({})
"""Wire bytes of a forwarded binder ioctl beyond its parcel's payload:
the call name, the fd and request words and the transaction header.  A
staged transaction's payload size is its wire size less this, so the
marshal's one sizing pass sizes the parcel too."""


class AnceptionLayer:
    """Host-side redirection layer plus its container VM."""

    __snapshot__ = "auto"

    lines_of_code = ANCEPTION_LINES_OF_CODE
    marshaling_lines = ANCEPTION_MARSHALING_LINES

    def __init__(self, machine, host_system, *, file_io_on_host=False,
                 ring_depth=None, read_cache=False, cache_pages=1024,
                 async_delegation=False, write_behind_depth=None,
                 binder_ring=False, binder_ring_depth=None, cvms=1):
        """The keywords are the world's knob set, spelled only here:
        worlds, runners and the CLI pass them through unchanged."""
        self.machine = machine
        self.host_kernel = machine.kernel
        self.host_system = host_system
        # Lane-construction config, consumed by _bind_lane at boot and
        # again on every lane-scoped reboot.
        self._ring_depth = ring_depth
        self._read_cache = read_cache
        self._cache_pages = cache_pages
        self._async_delegation = async_delegation
        self._write_behind_depth = write_behind_depth
        self._binder_ring_on = binder_ring
        self._binder_ring_depth = binder_ring_depth
        self._firewall_rule = None
        self.pool = CVMPool(machine.clock, cvms=cvms)
        """The routed transport: one :class:`~repro.core.pool.CVMLane`
        per container VM, plus the deterministic placement map.  The
        single-CVM default is byte-identical to the pre-pool layer."""
        for lane in self.pool.lanes:
            self._bind_lane(lane)
        self._batch = None
        """The open :class:`DelegationBatch` window, if any."""
        self.policy = RedirectionPolicy(
            host_system.ui_service_names(), file_io_on_host=file_io_on_host
        )
        self.exec_cache = ExecutionCache(self.host_kernel)
        self.recovery = False
        """Recovery on or off (DESIGN §6): with it on, a failed crossing
        is retried, a dead proxy respawned, and a crashed or compromised
        container rebooted; off, the failure surfaces as EIO."""
        self.recovery_log = RecoveryLog()
        """(action, detail) pairs for the most recent recovery steps, one
        per ``recovery`` bus event (see :meth:`_recovered`)."""
        self.fd_tables = {}
        self.killed_apps = RecoveryLog()
        self.decision_counts = {}
        """Decision value -> calls routed that way, in first-seen order
        (the ``decisions`` entry of :meth:`stats`)."""
        self.crypto_fs = None
        self.iago_verify = False
        self._file_mappings = {}
        """(host_pid, base) -> (host_fd, file_offset, length, extent,
        page) for file-backed split mmaps, ``extent`` being the bytes
        the file backed at map time and ``page`` the base page's
        :class:`~repro.kernel.memory.PageMapping`; consulted by the
        msync write-back while that same page is still mapped."""
        self._root = Credentials(ROOT_UID)
        self.host_kernel.interposition = self
        self.host_kernel.anception_build = True

    # ------------------------------------------------------------------
    # lane routing and (re)binding
    # ------------------------------------------------------------------

    def _lane(self, task):
        """The CVM lane owning ``task``'s delegated state (lane 0 for
        unassigned pids, preserving legacy error paths)."""
        return self.pool.lane_for(task)

    def _lane_tags(self, lane):
        """Obs tags for one lane: empty in single-CVM worlds, so every
        record a ``cvms=1`` run emits stays byte-identical."""
        if len(self.pool.lanes) == 1:
            return {}
        return {"cvm_id": lane.cvm_id}

    def _bind_lane(self, lane):
        """(Re)arm every piece of lane-held transport state.

        The single choke point for boot *and* reboot: a fresh lane gets
        its container built here; a rebooted lane gets a new channel
        and proxy manager (empty rings), cleared caches/windows/ledgers,
        a reset path map, and the firewall re-applied — nothing
        re-binds anywhere else, so no stale reference can survive.
        A reboot resets queues and state only: every component's
        counters survive (they are run-level telemetry).
        """
        if lane.cvm is None:
            lane.cvm = ContainerVM(self.machine, cvm_id=lane.cvm_id)
        # One kernel build: every guest shares the host kernel's bug,
        # quirk and limit objects, so a freshly booted or rebooted lane
        # is never silently patched and a later install reaches it too.
        guest, host = lane.cvm.kernel, self.host_kernel
        guest.vulnerabilities = host.vulnerabilities
        guest.quirks = host.quirks
        guest.nproc_limits = host.nproc_limits
        old_channel = lane.channel
        lane.channel = AnceptionChannel(
            lane.cvm.hypervisor, self.machine.costs,
            ring_depth=self._ring_depth,
        )
        if old_channel is not None:
            lane.channel.inherit_counters(old_channel)
        lane.proxies = ProxyManager(lane.cvm)
        lane.cache_paths = {}
        if self._read_cache:
            if lane.page_cache is None:
                lane.page_cache = HostPageCache(max_pages=self._cache_pages)
            else:
                # The guest filesystem was rebuilt: every cached page
                # describes inodes that no longer exist.
                lane.page_cache.clear()
        # Staged windows and ledgered errnos name proxy descriptors and
        # service instances that die with the container, so a reboot
        # clears them.
        default_depth = min(WINDOW_DEPTH, lane.channel.ring_depth)
        if self._async_delegation:
            if lane.write_behind is None:
                lane.write_behind = DeferredWindows(
                    "wb", default_depth if self._write_behind_depth is None
                    else self._write_behind_depth)
            else:
                lane.write_behind.clear()
        if self._binder_ring_on:
            if lane.binder_ring is None:
                lane.binder_ring = DeferredWindows(
                    "binder", default_depth if self._binder_ring_depth is None
                    else self._binder_ring_depth,
                    counters=("bulk_parcels", "dropped", "reordered"))
            else:
                lane.binder_ring.clear()
        lane.cvm.kernel.network.firewall = self._firewall_rule
        return lane

    # -- single-CVM back-compat views (lane 0) -------------------------

    @property
    def cvm(self):
        """The default lane's container (legacy single-CVM view)."""
        return self.pool.default_lane.cvm

    @property
    def channel(self):
        """The default lane's channel (legacy single-CVM view)."""
        return self.pool.default_lane.channel

    @property
    def proxies(self):
        """The default lane's proxy manager (legacy single-CVM view)."""
        return self.pool.default_lane.proxies

    @property
    def page_cache(self):
        """The default lane's read cache (legacy single-CVM view)."""
        return self.pool.default_lane.page_cache

    @property
    def write_behind(self):
        """The default lane's write-behind state (legacy view)."""
        return self.pool.default_lane.write_behind

    @property
    def binder_ring(self):
        """The default lane's binder-ring state (legacy view)."""
        return self.pool.default_lane.binder_ring

    # ------------------------------------------------------------------
    # enrollment (Section III-D "File I/O": install-time data copy)
    # ------------------------------------------------------------------

    def enroll_task(self, task, install_record=None):
        """Flag a task for redirection and build its CVM counterpart.

        Placement happens here: the pool hashes the app's launch uid to
        the lane it lives on, and every later delegated call routes to it.
        """
        task.redirection_entry = 1
        lane = self.pool.assign(task)
        self._new_proxy(lane, task)
        self.fd_tables[task.pid] = FdTranslationTable(task.fd_table)
        if install_record is not None:
            self._copy_initial_data(lane, task, install_record)

    def _new_proxy(self, lane, task, parent=None):
        """Make ``task``'s proxy on ``lane``; nothing else makes one.

        The task keeps a stub only for a descriptor the new proxy holds:
        a forked child (``parent`` given) gets a duplicate of each one its
        parent's proxy still holds.  Every other stub goes, and with them
        the pid's staged windows and ledger, as at exit.
        """
        guest = lane.proxies.create_proxy(task).guest_task
        held = {} if parent is None \
            else lane.proxies.proxy_for(parent).guest_task.fd_table
        fd_table = task.fd_table
        for host_fd, stub in list(fd_table.items()):
            if stub.__class__ is not RemoteFdStub:
                continue
            desc = held.get(stub.proxy_fd)
            if desc is None:
                del fd_table[host_fd]
            else:
                guest.install_fd(stub.proxy_fd, desc.dup()
                                 if hasattr(desc, "dup") else desc)
        for windows in (lane.write_behind, lane.binder_ring):
            if windows is not None:
                windows.forget(task.pid)

    def _copy_initial_data(self, lane, task, record):
        """Copy packaged app data from the host image into the CVM."""
        data_dir = record.data_dir
        if not self.host_kernel.vfs.exists(data_dir, self._root):
            return
        for name in self.host_kernel.vfs.listdir(data_dir, self._root):
            inode = self.host_kernel.vfs.resolve(
                f"{data_dir}/{name}", self._root
            )
            if inode.data is None:
                continue
            lane.cvm.copy_in_file(
                f"{data_dir}/{name}", bytes(inode.data), record.uid
            )

    # ------------------------------------------------------------------
    # the alternate syscall table
    # ------------------------------------------------------------------

    def dispatch(self, task, name, args, kwargs):
        table = self.fd_tables.get(task.pid)
        if table is None:
            raise SimulationError(f"pid {task.pid} not enrolled")
        decision = self.policy.decide(task, name, args, table)
        # ``_value_``: hashing an enum member or reading its ``.value``
        # runs Python-level enum code; the plain attribute does not.
        value = decision._value_
        counts = self.decision_counts
        counts[value] = counts.get(value, 0) + 1
        if value == _SPLIT:
            handler = _SPLIT_HANDLERS.get(name)
            if handler is not None:
                return handler(self, task, table, *args, **kwargs)
            # Split-class call with no dedicated handler in the
            # prototype: the host route (the paper's conservative
            # default of trusting the host for ambiguous state).
            value = _HOST
        return _ROUTE_HANDLERS[value](self, task, name, args, kwargs, table)

    def _route_host(self, task, name, args, kwargs, table):
        return self.host_kernel.execute_native(task, name, args, kwargs)

    def _route_block(self, task, name, args, kwargs, table):
        maybe_event(self.machine.clock, "proxy", f"blocked:{name}",
                    task=task, kernel=self.host_kernel.label,
                    decision=Decision.BLOCK.value)
        raise SyscallError(errno.EPERM, "blocked by Anception", call=name)

    def _route_redirect(self, task, name, args, kwargs, table):
        if name in _OPEN_ALIASES:
            # ``openat`` and ``creat`` are opens below dispatch, as the
            # native kernel serves both with its open: adoption, the
            # read cache and the crypto FS then see the open they are.
            if name == "creat":
                args = (args[0], _CREAT_FLAGS, *args[1:])
            name = "open"
        if name in FD_ALLOCATING_CALLS:
            # The host numbers are taken before the call crosses, as the
            # native kernel takes them before it runs: a full table
            # refuses the call with nothing made in the CVM, and the
            # adoption at completion cannot fail.
            fd = task.free_fd()
            if name == "pipe":
                task.free_fd(fd + 1)
        if name == "shmdt":
            # statically redirect-class, but the live attachment spans
            # both kernels and must be torn down on both
            return self._handle_shmdt(task, *args)
        if (name in ("writev", "readv") and len(args) >= 2
                and isinstance(args[0], int) and table.is_remote(args[0])):
            return self._redirect_vectored(task, name, args[0], args[1])
        return self._redirect(task, name, args, kwargs)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------

    def _redirect(self, task, name, args, kwargs, translated=None):
        """Forward one call to the task's proxy (API-preserving wrapper).

        The transport underneath is the submission/completion ring:
        :meth:`submit` queues the marshaled call, :meth:`flush` rings
        the doorbells, :meth:`complete` resolves the result.  Outside a
        batch window the three run back-to-back, so a lone redirected
        call still costs exactly one IRQ and one completion hypercall —
        the classic shape.  Inside an open :meth:`batch` window,
        deferrable calls are queued instead and the whole window rides
        one doorbell pair.

        Delegation-layer failures (channel corruption, a dead proxy, a
        crashed container) are retried under :attr:`recovery`; when
        recovery is disabled or exhausted they surface as EIO — a
        redirected call returns a result or a well-defined errno, never
        a hang and never a simulator exception.
        """
        if self._batch is not None:
            if self._batch.accepts(task, name, kwargs):
                return self._batch.add(task, name, args)
            # Anything the window can't defer forces the queued writes
            # out first, preserving program order.
            self._batch.flush()
        lane = self.pool.lane_for(task)
        if lane.write_behind is not None:
            if translated is None and name in self._WB_DEFERRABLE \
                    and self._wb_accepts(task, name, args, kwargs, lane):
                return self._wb_enqueue(task, name, args, lane=lane)
            # Every other redirected call is a fence: the staged windows
            # drain (and the lane settles) before it runs, preserving
            # program order — and keeping the page cache coherent, since
            # the drain's completions write through before any cached
            # read below can hit.
            self._wb_fence(task, name, args, lane=lane)
        if translated is None and not kwargs \
                and lane.page_cache is not None \
                and name in ("read", "pread64"):
            served = self._cache_lookup(task, name, args, lane=lane)
            if served is not None:
                return served[0]
        # One call, one doorbell pair, synchronous result.
        return self._supervise(
            task, lane, name, self._forward,
            (task, lane, name, args, kwargs, translated),
        )

    def _redirect_vectored(self, task, name, fd, vec):
        """writev/readv: every iovec entry rides one doorbell pair.

        The vector is decomposed into per-entry ``write``/``read`` ring
        descriptors — the same per-call marshal and per-byte copy costs
        as issuing them separately — but the whole vector is submitted
        behind a single IRQ and completed behind a single hypercall,
        so doorbell count stays flat in the vector length.
        """
        vec = tuple(vec)
        sub_call = "write" if name == "writev" else "read"
        if not vec:
            return 0 if name == "writev" else []
        lane = self._lane(task)
        if lane.write_behind is not None:
            if name == "writev" and self._wb_accepts_writev(task, fd, vec,
                                                            lane=lane):
                # Defer per-iovec, matching the sync decomposition: each
                # entry becomes its own staged write descriptor.
                return sum(
                    self._wb_enqueue(task, "write", (fd, entry), lane=lane)
                    for entry in vec
                )
            self._wb_fence(task, name, (fd,), lane=lane)
        if name == "readv":
            served = self._cache_readv(task, fd, vec)
            if served is not None:
                return served
        if self.crypto_fs is not None:
            # The crypto transform keys off the proxy's live file offset,
            # which only advances as each entry executes — serialize.
            results = [
                self._supervise(
                    task, lane, sub_call, self._forward,
                    (task, lane, sub_call, (fd, entry), {}, None),
                )
                for entry in vec
            ]
            return sum(results) if name == "writev" else results
        calls = tuple((sub_call, (fd, entry), {}, None) for entry in vec)
        results = self._supervise(
            task, lane, name, self._round_trip,
            (task, lane, calls, name, name, len(vec)),
        )
        return sum(results) if name == "writev" else results

    def _supervise(self, task, lane, site, attempt, args, exhausted=None):
        """The one retry loop around every host→CVM crossing.

        Each pass checks (or repairs) the container, then runs
        ``attempt(*args)``.  A delegation-layer failure — channel
        corruption, a dead proxy, a crashed container, a lost doorbell —
        is retried under :attr:`recovery`; when recovery is disabled or
        exhausted it becomes EIO, so a redirected call returns a result
        or a well-defined errno, never a hang and never a simulator
        exception.  The EIO raises at the call site, or — for deferred
        windows, whose call site is long gone — goes to ``exhausted``
        (the failure in hand) to be ledgered for the next fence.
        """
        tries = 0
        while True:
            kernel = lane.cvm.kernel
            if kernel.crashed or kernel.compromised_by is not None:
                self._ensure_container(lane, site)
            try:
                return attempt(*args)
            except DelegationError as failure:
                self._drop_queued(lane)
                tries += 1
                if self.recovery and tries <= MAX_RETRIES:
                    self._recover_from(task, failure, tries, site)
                    continue
                if exhausted is not None:
                    return exhausted(failure)
                raise _delegation_eio(failure, site) from failure

    def _drop_queued(self, lane):
        """Drop what a failed attempt queued on ``lane``.

        Whatever was mid-flight is unrecoverable state once an attempt
        fails.  A multi-call window submits every call before its one
        flush, so a failure mid-submit leaves the earlier calls on the
        submit ring, and a failed flush leaves descriptors on both
        rings.  Dropping them (and the calls and wires their descriptors
        own) lets the retry re-submit from scratch against clean rings
        instead of shipping stale calls a second time.
        """
        lane.channel.reset_rings()

    def _forward(self, task, lane, name, args, kwargs, translated):
        """One lone call's crossing: submit it, ring one doorbell pair,
        complete it.

        :meth:`_round_trip`'s shape for a single call, with no calls
        tuple and no pending or result list.  Under a capture it runs
        inside the ``proxy`` span ``forward:{name}``, opened and closed
        by hand, so the dormant path builds no span and no label.
        """
        clock = self.machine.clock
        span = None
        if not clock.dormant:
            span = clock._bus.span("proxy", f"forward:{name}", task=task,
                                   kernel=self.host_kernel.label,
                                   decision="redirect")
        try:
            pending = self.submit(task, name, args, kwargs, translated,
                                  lane=lane)
            self.flush(task, reason=name, lane=lane)
            result = self.complete(pending, lane=lane)
        except BaseException as exc:
            if span is not None:
                span.__exit__(exc.__class__, exc, exc.__traceback__)
            raise
        if span is not None:
            span.__exit__(None, None, None)
        return result

    def _round_trip(self, task, lane, calls, reason, label, batch=None):
        """Submit each call, ring one doorbell pair, complete each call.

        ``calls`` holds ``(name, args, kwargs, translated)`` tuples; the
        results come back in the same order.  Under a capture it runs
        inside the ``proxy`` span ``forward:{label}`` (tagged ``batch``
        for multi-call windows), opened and closed by hand, so the
        dormant path never formats its label.
        """
        clock = self.machine.clock
        span = None
        if not clock.dormant:
            tags = {} if batch is None else {"batch": batch}
            span = clock._bus.span("proxy", f"forward:{label}", task=task,
                                   kernel=self.host_kernel.label,
                                   decision="redirect", **tags)
        try:
            pendings = []
            for name, args, kwargs, translated in calls:
                pendings.append(self.submit(task, name, args, kwargs,
                                            translated, lane=lane))
            self.flush(task, reason=reason, lane=lane)
            results = []
            for pending in pendings:
                results.append(self.complete(pending, lane=lane))
        except BaseException as exc:
            if span is not None:
                span.__exit__(exc.__class__, exc, exc.__traceback__)
            raise
        if span is not None:
            span.__exit__(None, None, None)
        return results

    def _ensure_container(self, lane, name):
        """Refuse (or repair) forwarding into a crashed or compromised CVM.

        Only :meth:`_supervise` calls this, and only once it has seen the
        lane's kernel crashed or compromised; the healthy crossing never
        enters it.
        """
        kernel = lane.cvm.kernel
        if kernel.crashed:
            if not self.recovery:
                raise SyscallError(
                    errno.EIO, "container VM is down", call=name
                )
            self._recover_reboot(lane, f"container down before {name}")
        if kernel.compromised_by is not None and self.recovery:
            self._recover_reboot(lane, "container compromised")

    def _recover_from(self, task, failure, attempt, name):
        """One bounded recovery step between forwarding attempts."""
        lane = self._lane(task)
        self.machine.clock.advance(
            BACKOFF_NS * attempt, "anception:retry-backoff"
        )
        self._recovered("retry", f"{name} attempt {attempt}: {failure}",
                        f"retry:{name}", task=task,
                        kernel=self.host_kernel.label, attempt=attempt,
                        cause=type(failure).__name__)
        if isinstance(failure, ContainerCrashed) or lane.cvm.crashed:
            self._recover_reboot(lane, str(failure))
        elif isinstance(failure, ProxyDied):
            lane.proxies.remove_proxy(task)
            self._new_proxy(lane, task)
            self._recovered("respawn-proxy", f"host pid {task.pid}",
                            task=task, kernel=lane.cvm.kernel.label)

    def _recover_reboot(self, lane, reason):
        """Reboot one container as a recovery action (cost + telemetry)."""
        self.machine.clock.advance(REBOOT_COST_NS, "anception:cvm-reboot")
        survivors = self.reboot_cvm(lane)
        self._recovered("reboot-cvm", reason, kernel=self.host_kernel.label,
                        reason=reason, survivors=survivors,
                        **self._lane_tags(lane))

    def _recovered(self, action, detail, event=None, **attrs):
        """Log one recovery step and emit its ``recovery`` bus event.

        Every recovery site goes through here, so the log and the bus
        agree one-to-one and in order.  ``event`` names the bus event
        when it differs from the logged action (``retry:<call>``).
        """
        self.recovery_log.append((action, detail))
        maybe_event(self.machine.clock, "recovery", event or action, **attrs)

    def submit(self, task, name, args, kwargs, translated=None, wire=None,
               ring_flags=0, lane=None):
        """Marshal one call onto the submit ring; no doorbell yet.

        Returns the submit :class:`~repro.core.ring.RingDescriptor`,
        which is the pending call: the guest's drain sets its
        ``outcome`` and :meth:`complete` resolves it.  A full ring
        flushes first (bounded backpressure): the in-flight window is
        retired behind one doorbell pair before new work queues.  A
        pre-staged ``wire`` (write-behind or binder-window drain) skips
        the marshal step — the host already paid for packing when the
        call deferred.  ``ring_flags`` overrides the descriptor flags
        (the binder drain tags its descriptors ``RING_FLAG_BINDER``).
        Window-shaped callers resolve the task's ``lane`` once and pass
        it down instead of paying the pool lookup per descriptor.
        """
        if lane is None:
            lane = self._lane(task)
        ring = lane.channel.submit_ring
        if len(ring._queue) >= ring.depth:
            self.flush(task, reason="ring-full", lane=lane)
        proxy = lane.proxies.proxy_for(task)  # not enrolled -> SimulationError
        if translated is not None:
            call_args = translated
        else:
            table = self.fd_tables.get(task.pid)
            if table is None:
                raise SimulationError(f"pid {task.pid} not enrolled")
            call_args = table.translate_args(name, args)
        crypto_offset = None
        clock = self.machine.clock
        costs = self.machine.costs
        if wire is None:
            if self.crypto_fs is not None and args:
                call_args, crypto_offset = self._crypto_outbound(
                    task, name, args, call_args
                )
            wire, _size = marshal_call_into(name, call_args, kwargs)
            if clock.dormant:
                clock._now_ns += costs.marshal_fixed_ns
            else:
                clock.advance(costs.marshal_fixed_ns, "anception:marshal")
            flags = ring_flags
        else:
            flags = ring_flags or RING_FLAG_WRITE_BEHIND
        if clock.dormant:
            clock._now_ns += costs.proxy_dispatch_ns
        else:
            clock.advance(costs.proxy_dispatch_ns, "anception:proxy-post")
        descriptor = RingDescriptor(None, name, wire, flags)
        descriptor.task = task
        descriptor.proxy = proxy
        descriptor.args = args
        descriptor.call_args = call_args
        descriptor.kwargs = kwargs
        descriptor.crypto_offset = crypto_offset
        descriptor.outcome = None
        ring.push(name, wire, flags=flags, pending=descriptor)
        return descriptor

    def flush(self, task=None, reason=None, lane=None):
        """Ring the doorbells: one IRQ submits every in-flight call,
        the CVM drains the ring, one hypercall completes the batch.

        A flush settles exactly one lane — the task's own — so sibling
        CVMs' in-flight windows keep riding their own doorbells.

        When every call in the window failed with an errno there is
        nothing in the completion ring and the hypercall is skipped —
        the same single-doorbell shape the classic errno path had.
        """
        if lane is None:
            lane = (self._lane(task) if task is not None
                    else self.pool.default_lane)
        channel = lane.channel
        queue = channel.submit_ring._queue
        if not queue:
            return
        # The submit ring's queue is the in-flight window, and each of
        # its descriptors is the call it delivers.
        window = tuple(queue)
        count = len(window)
        first = window[0]
        if reason is None:
            reason = first.call if count == 1 else f"batch:{count}"
        elif count > 1:
            reason = f"{reason}:{count}"
        hypervisor = channel.hypervisor
        if not hypervisor.inject_interrupt(reason, coalesced=count):
            self._resignal_guest(lane, reason, first.task, coalesced=count)
        lane.proxies.drain(channel)
        # The host pops the completion ring dry: its descriptors carry
        # only padding (the drain set each outcome), but popping is
        # where their CRC framing and the ring fault sites are checked.
        complete_ring = channel.complete_ring
        completions = len(complete_ring._queue)
        while complete_ring.pop() is not None:
            pass
        for pending in window:
            if pending.outcome is None:
                raise ChannelError(
                    f"no outcome for {pending.call}#{pending.seq}"
                )
        if completions and not hypervisor.hypercall(
                reason, coalesced=completions):
            self._poll_host(reason, first.task)

    def complete(self, pending, lane=None):
        """Resolve one submitted call to its result (or typed errno).

        ``pending`` is the submit descriptor :meth:`submit` returned.
        An unflushed one flushes its window first, so callers can
        always ``complete()`` in any order after batched submission.
        Window-shaped callers pass the already-resolved ``lane``.
        """
        task = pending.task
        if lane is None:
            lane = self._lane(task)
        if pending.outcome is None:
            self.flush(task, lane=lane)
        kind, value = pending.outcome
        if kind == "err":
            raise value
        name = pending.call
        if kind == "cancelled":
            raise SyscallError(
                errno.ECANCELED,
                "aborted by earlier failure in batch",
                call=name,
            )
        if name in FD_ALLOCATING_CALLS:
            adopted = self._adopt_result(task, name, pending.args, value)
        else:
            adopted = value
        if self.crypto_fs is not None:
            return self._crypto_inbound(task, name, pending.args, adopted,
                                        pending.crypto_offset)
        if lane.page_cache is not None:
            self._cache_observe(task, name, pending.args, adopted,
                                lane=lane)
        return adopted

    def _resignal_guest(self, lane, name, task=None, coalesced=1):
        """Re-arm a guest doorbell whose interrupt was lost.

        Callers ring :meth:`~repro.hypervisor.lguest.LguestHypervisor
        .inject_interrupt` themselves and come here only when it reports
        the IRQ dropped.  One doorbell may announce many ring descriptors
        (``coalesced``), which is the whole point of the batched
        transport.  Each lost interrupt costs one timeout before the
        re-signal; when the bounded retries are exhausted the call stalls
        out as a recoverable :class:`ChannelStalled` instead of hanging
        forever.
        """
        hypervisor = lane.channel.hypervisor
        for _ in range(SIGNAL_RETRIES):
            self.machine.clock.advance(
                SIGNAL_TIMEOUT_NS, "anception:irq-timeout"
            )
            self._recovered("resignal-irq", name, task=task,
                            kernel=self.host_kernel.label, call=name)
            if hypervisor.inject_interrupt(name, coalesced=coalesced):
                return
        raise ChannelStalled("to-guest", f"irq lost for {name}")

    def _poll_host(self, name, task=None):
        """The timed host-side poll behind a lost completion hypercall.

        Callers ring :meth:`~repro.hypervisor.lguest.LguestHypervisor
        .hypercall` themselves and come here only when it reports the
        doorbell dropped.  A lost hypercall is survivable: the
        completions already sit in the shared pages, so the host times
        out and polls them out — one timeout per doorbell, however many
        descriptors it covered.
        """
        self.machine.clock.advance(
            SIGNAL_TIMEOUT_NS, "anception:hypercall-poll"
        )
        self._recovered("hypercall-poll", name, task=task,
                        kernel=self.host_kernel.label, call=name)

    def _crypto_outbound(self, task, name, args, call_args):
        """Encrypt write payloads before they cross into the CVM."""
        fs = self.crypto_fs
        offset = None
        if name == "write":
            host_fd, data = args[0], args[1]
            offset = self._proxy_offset(task, host_fd)
            ciphertext = fs.transform_write(task, host_fd, data, offset)
            call_args = (call_args[0], ciphertext) + tuple(call_args[2:])
        elif name == "pwrite64":
            host_fd, data, offset = args[0], args[1], args[2]
            ciphertext = fs.transform_write(task, host_fd, data, offset)
            call_args = (call_args[0], ciphertext) + tuple(call_args[2:])
        elif name == "read":
            offset = self._proxy_offset(task, args[0])
        elif name == "pread64":
            offset = args[2]
        return call_args, offset

    def _crypto_inbound(self, task, name, args, result, offset):
        """Decrypt read results after they return from the CVM."""
        fs = self.crypto_fs
        if name == "open" and isinstance(result, int):
            fs.on_open(task, self._abs(task, args[0]), result)
        elif name in ("read", "pread64") and isinstance(result, bytes):
            result = fs.transform_read(
                task, args[0], result, offset or 0,
                verify_integrity=self.iago_verify,
            )
        return result

    def _proxy_offset(self, task, host_fd):
        """Current file offset of the proxy-side open file, if any."""
        stub = task.fd_table.get(host_fd)
        if stub.__class__ is not RemoteFdStub:
            return 0
        proxy = self._lane(task).proxies.proxy_for(task)
        return getattr(proxy.guest_task.fd_table.get(stub.proxy_fd),
                       "offset", 0)

    def _adopt_result(self, task, name, args, result):
        """Map a resource-allocating result (``name`` is one of
        :data:`~repro.core.marshal.FD_ALLOCATING_CALLS`) back into the
        host fd space, whose numbers :meth:`_route_redirect` checked
        free before the call crossed."""
        if name == "pipe":
            if not isinstance(result, tuple):
                return result
            return tuple(task.alloc_fd(RemoteFdStub(proxy_fd, "pipe"))
                         for proxy_fd in result)
        if not isinstance(result, int):
            return result
        label = args[0] if name == "open" and args else name
        # alloc_fd's body inline: one frame fewer per redirected open.
        fd = task.free_fd()
        task.fd_table[fd] = RemoteFdStub(result, str(label))
        return fd

    # ------------------------------------------------------------------
    # host-side page cache for delegated reads
    # ------------------------------------------------------------------

    def _remote_file(self, task, host_fd, lane=None):
        """Proxy-side OpenFile behind a remote fd, if it is a plain file.

        Anything that is not a regular CVM file — sockets, pipes, device
        nodes, host fds — is uncacheable and returns ``None``.  The one
        resolve of a remote fd for the cache and write-behind: the fd
        table, the proxy fd, then the proxy's own descriptor (the shadow
        of the file the CVM kernel serves), read in one body.
        """
        if not isinstance(host_fd, int):
            return None
        stub = task.fd_table.get(host_fd)
        if stub.__class__ is not RemoteFdStub:
            return None
        if lane is None:
            lane = self.pool.lane_for(task)
        # proxy_for raises the classic "not enrolled (no proxy)" error.
        desc = lane.proxies.proxy_for(task).guest_task.fd_table.get(
            stub.proxy_fd)
        inode = getattr(desc, "inode", None)
        if inode is None or inode.kind is not InodeKind.FILE:
            return None
        return desc

    def _cache_lookup(self, task, name, args, lane):
        """Serve a redirected read from ``lane``'s page cache, if warm.

        Returns ``(result,)`` on a hit, ``None`` to forward the call
        unchanged (the demand-miss path is byte-identical to the classic
        redirect).  A hit skips both doorbells and the channel copy and
        pays only ``cache_hit_ns`` per page.  Crypto-FS files, non-file
        descriptors, and a crashed/compromised container all bypass.
        The caller has checked that the lane has a cache and that
        ``name`` is ``read`` or ``pread64``.
        """
        cache = lane.page_cache
        if self.crypto_fs is not None or len(args) < 2:
            return None
        kernel = lane.cvm.kernel
        if kernel.crashed or kernel.compromised_by is not None:
            return None
        desc = self._remote_file(task, args[0], lane=lane)
        if desc is None or not getattr(desc, "readable", False):
            return None
        length = args[1]
        offset = desc.offset if name == "read" else (
            args[2] if len(args) > 2 else 0
        )
        if not isinstance(length, int) or length < 0 \
                or not isinstance(offset, int) or offset < 0:
            return None
        ino = desc.inode.ino
        engine = self.machine.clock.faults
        if engine is not None:
            if engine.fires("cache.evict", name):
                dropped = cache.drop_range(ino, offset, max(length, 1))
                if dropped:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                "evict", task=task,
                                kernel=self.host_kernel.label, ino=ino,
                                pages=dropped)
            if engine.fires("cache.stale", name):
                dropped = cache.invalidate_ino(ino)
                maybe_event(self.machine.clock, "cache-invalidate",
                            "stale", task=task,
                            kernel=self.host_kernel.label, ino=ino,
                            pages=dropped)
                # the log keys on the host fd, not the ino: inode numbers
                # come from a process-global counter, and the chaos
                # report must replay byte-identically across runs
                self._recovered(
                    "cache-invalidate",
                    f"stale fd {args[0]} ({dropped} pages), refetching",
                    task=task, kernel=self.host_kernel.label, call=name)
                cache.misses += 1
                return None
        result = cache.lookup(ino, offset, length)
        if result is None:
            maybe_event(self.machine.clock, "cache-miss", name, task=task,
                        kernel=self.host_kernel.label, ino=ino)
            return None
        pages = max(1, -(-len(result) // PAGE_SIZE))
        clock = self.machine.clock
        if clock.dormant:
            clock._now_ns += self.machine.costs.cache_hit_ns * pages
        else:
            with maybe_span(clock, "cache-hit",
                            f"{name}:{len(result)}B", task=task,
                            kernel=self.host_kernel.label, ino=ino,
                            bytes=len(result), pages=pages):
                clock.advance(
                    self.machine.costs.cache_hit_ns * pages,
                    "anception:cache-hit",
                )
        if name == "read":
            # The layer owns the canonical offset for cached sequential
            # reads; the shadow descriptor *is* the proxy's open file,
            # so both views stay coherent.
            desc.offset = offset + len(result)
        return (result,)

    def _cache_readv(self, task, fd, lengths):
        """Serve a whole readv from cache iff *every* entry is warm.

        Any cold entry forwards the entire vector through the ring —
        partial service would split one doorbell pair into two.
        """
        lane = self._lane(task)
        cache = lane.page_cache
        if cache is None or self.crypto_fs is not None:
            return None
        kernel = lane.cvm.kernel
        if kernel.crashed or kernel.compromised_by is not None:
            return None
        desc = self._remote_file(task, fd, lane)
        if desc is None or not getattr(desc, "readable", False):
            return None
        ino = desc.inode.ino
        offset = desc.offset
        results = []
        pages = 0
        for length in lengths:
            if not isinstance(length, int) or length < 0:
                return None
            chunk = cache.peek(ino, offset, length)
            if chunk is None:
                cache.misses += 1
                maybe_event(self.machine.clock, "cache-miss", "readv",
                            task=task, kernel=self.host_kernel.label,
                            ino=ino)
                return None
            results.append(chunk)
            offset += len(chunk)
            pages += max(1, -(-len(chunk) // PAGE_SIZE))
        cache.count_hits(len(results))
        total = sum(len(r) for r in results)
        with maybe_span(self.machine.clock, "cache-hit",
                        f"readv:{total}B", task=task,
                        kernel=self.host_kernel.label, ino=ino,
                        bytes=total, pages=pages, batch=len(results)):
            self.machine.clock.advance(
                self.machine.costs.cache_hit_ns * pages,
                "anception:cache-hit",
            )
        desc.offset = offset
        return results

    _CACHE_FD_MUTATORS = ("write", "pwrite64", "ftruncate", "ftruncate64",
                          "fallocate", "sendfile")
    _CACHE_PATH_MUTATORS = ("unlink", "rename", "truncate")

    def _cache_observe(self, task, name, args, result, lane=None):
        """Fill and write-through coherence at the completion choke point.

        Every redirected call funnels through :meth:`complete`, so this
        is the single place the cache learns about data movement:
        completed reads fill (demand pages plus a channel window of
        read-ahead, staged while the doorbell pair is already paid);
        completed mutations write through or invalidate *before* any
        later lookup can run.
        """
        if lane is None:
            lane = self._lane(task)
        cache = lane.page_cache
        if name in ("read", "pread64") and isinstance(result, bytes):
            desc = self._remote_file(task, args[0] if args else None,
                                     lane=lane)
            if desc is None:
                return
            if name == "pread64":
                start = args[2] if len(args) > 2 else 0
            else:
                start = desc.offset - len(result)
            if not isinstance(start, int) or start < 0:
                return
            demanded, ahead = cache.fill_window(
                desc.inode.ino, desc.inode.data, start,
                max(len(result), 1), lane.channel.window_bytes,
            )
            if demanded or ahead:
                clock = self.machine.clock
                if not clock.dormant:
                    with maybe_span(clock, "cache-fill",
                                    f"{name}:{demanded + ahead}p", task=task,
                                    kernel=self.host_kernel.label,
                                    ino=desc.inode.ino,
                                    pages=demanded + ahead, readahead=ahead):
                        pass  # overlapped staging: zero simulated time
            return
        if name in self._CACHE_FD_MUTATORS:
            desc = self._remote_file(task, args[0] if args else None,
                                     lane=lane)
            if desc is not None:
                if name == "pwrite64" and not desc.flags & O_APPEND \
                        and isinstance(args[2], int) and args[2] >= 0:
                    # A positional write's range is its own arguments,
                    # even in a drained window.  ``write`` (and writev's
                    # sub-writes) cannot use ``desc.offset``: after a
                    # window it is the window's final offset.
                    touched = cache.refresh_ino(
                        desc.inode.ino, desc.inode.data, args[2], result)
                else:
                    touched = cache.refresh_ino(desc.inode.ino,
                                                desc.inode.data)
                if touched and not self.machine.clock.dormant:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                "write-through", task=task,
                                kernel=self.host_kernel.label,
                                ino=desc.inode.ino, pages=touched)
            return
        if name in self._CACHE_PATH_MUTATORS:
            for path_arg in args[:2] if name == "rename" else args[:1]:
                if not isinstance(path_arg, str):
                    continue
                path = self._abs(task, path_arg)
                ino = (lane.cache_paths.get(path) if name == "truncate"
                       else lane.cache_paths.pop(path, None))
                if ino is None:
                    continue
                dropped = cache.invalidate_ino(ino)
                if dropped:
                    maybe_event(self.machine.clock, "cache-invalidate",
                                name, task=task,
                                kernel=self.host_kernel.label, ino=ino,
                                pages=dropped)
            return
        if name == "open" and isinstance(result, int) and args \
                and isinstance(args[0], str):
            desc = self._remote_file(task, result, lane)
            if desc is None:
                return
            lane.cache_paths[self._abs(task, args[0])] = desc.inode.ino
            if cache.knows(desc.inode.ino):
                # Re-snapshot: an O_TRUNC reopen just emptied the file.
                cache.refresh_ino(desc.inode.ino, desc.inode.data)

    # ------------------------------------------------------------------
    # split-execution handlers
    # ------------------------------------------------------------------

    def _split_close(self, task, table, fd):
        if table.is_remote(fd):
            self._redirect(task, "close", (fd,), {},
                           translated=(table.to_proxy(fd),))
            task.remove_fd(fd)
            if self.crypto_fs is not None:
                self.crypto_fs.on_close(task, fd)
            wb = self._lane(task).write_behind
            if wb is not None:
                # close is a fence: teardown completes, then any errno
                # the window deferred for this fd surfaces (once) here.
                self._surface(wb.take_error(task.pid, fd),
                              f"deferred write-behind error on fd {fd}",
                              "close")
            return 0
        return self.host_kernel.execute_native(task, "close", (fd,), {})

    def _split_dup(self, task, table, fd):
        if table.is_remote(fd):
            # The host number is checked free before the proxy dups.
            task.free_fd()
            new_proxy_fd = self._redirect(
                task, "dup", (fd,), {}, translated=(table.to_proxy(fd),))
            return task.alloc_fd(RemoteFdStub(new_proxy_fd, "dup"))
        return self.host_kernel.execute_native(task, "dup", (fd,), {})

    def _split_dup2(self, task, table, fd, newfd):
        """dup2 across kernels: as natively, ``newfd`` closes exactly when
        ``fd`` is valid and differs from it, ignoring the close's errors,
        and a remote ``newfd`` closes in its proxy too.  A ``newfd`` out
        of the descriptor range is EBADF before anything closes or
        crosses."""
        if not 0 <= newfd < RLIMIT_NOFILE:
            raise SyscallError(errno.EBADF, f"newfd {newfd}", call="dup2")
        remote = table.is_remote(fd)
        if fd != newfd and fd in task.fd_table and newfd in task.fd_table \
                and (remote or table.is_remote(newfd)):
            try:
                self._split_close(task, table, newfd)
            except SyscallError:
                task.fd_table.pop(newfd, None)
        if not remote or fd == newfd:
            return self.host_kernel.execute_native(
                task, "dup2", (fd, newfd), {})
        new_proxy_fd = self._redirect(
            task, "dup", (fd,), {}, translated=(table.to_proxy(fd),))
        task.install_fd(newfd, RemoteFdStub(new_proxy_fd, "dup2"))
        return newfd

    def _split_fcntl(self, task, table, fd, cmd, arg=0):
        if table.is_remote(fd):
            dupfd = cmd == 0  # F_DUPFD
            if dupfd and 0 <= arg < RLIMIT_NOFILE:
                # The host number is checked free before the proxy dups;
                # the proxy's kernel refuses a minfd outside the range.
                task.free_fd(arg)
            proxy_fd = table.to_proxy(fd)
            result = self._redirect(
                task, "fcntl", (fd, cmd, arg), {},
                translated=(proxy_fd, cmd, arg),
            )
            if dupfd and isinstance(result, int):
                # The app's number honours minfd in the host table.
                return task.alloc_fd(RemoteFdStub(result, "fcntl-dup"), arg)
            return result
        return self.host_kernel.execute_native(
            task, "fcntl", (fd, cmd, arg), {}
        )

    _split_fcntl64 = _split_fcntl

    def _split_ioctl(self, task, table, fd, request, arg=None):
        stub = task.fd_table.get(fd)
        if stub.__class__ is RemoteFdStub:
            return self._redirect(task, "ioctl", (fd, request, arg), {},
                                  translated=(stub.proxy_fd, request, arg))
        # Host fd: binder traffic gets the UI inspection
        # (binder.is_ui_transaction and policy.binder_target_is_app,
        # inlined: this is the path of every UI frame and app-to-app
        # call; a property in tests/properties/test_policy_props.py
        # holds both spellings equal).  A target that is not a string
        # names neither a UI service nor an app; it goes to the CVM's
        # service manager, which answers ENOENT as the host's would.
        if request == BINDER_WRITE_READ and isinstance(arg, Transaction):
            target = arg.target
            if not (isinstance(target, str)
                    and (target in self.policy.ui_service_names
                         or target.startswith("app:"))):
                return self._forward_binder(task, fd, request, arg)
            # Host-bound (a UI frame, a window call, an app-to-app or a
            # oneway UI call) on the host binder node: one hop to the
            # driver's ``transact``, where the generic route
            # (execute_native, _do_ioctl, BinderDriver.ioctl) ends, none
            # of which charges anything.  An injected ``ioctl`` trigger
            # must see every call, so with one registered the generic
            # route runs, as it does for a closed or non-device fd.
            if stub.__class__ is OpenFile \
                    and "ioctl" not in self.host_kernel.vulnerabilities:
                inode = stub.inode
                if inode.kind is _DEVICE \
                        and inode.device.__class__ is BinderDriver:
                    return inode.device.transact(task, arg)
        elif request == IOC_WAIT_INPUT_EVT:
            # Waiting for input is an observation point — anything the
            # app fired at the services must land before the world
            # answers back (fence-on-read).
            lane = self._lane(task)
            if lane.binder_ring is not None:
                self._settle(lane, lane.binder_ring, task, "wait-input")
        # UI and app-to-app binder traffic, the input wait, and any
        # other ioctl on a host fd (e.g. a /system file): host.
        return self.host_kernel.execute_native(
            task, "ioctl", (fd, request, arg), {}
        )

    def _forward_binder(self, task, fd, request, transaction):
        """Non-UI binder transaction: full cross-VM round trip.

        The proxy opens the CVM's /dev/binder lazily and replays the
        transaction against the CVM's service instances.  Cost: the fixed
        cross-VM binder latency plus per-byte payload (the channel's world
        switches are charged by the generic forward path).

        With the batched binder ring on, oneway transactions to known
        CVM services defer into a per-task window instead
        (:meth:`_binder_enqueue`); everything reply-carrying is a fence —
        every staged oneway delivers first, and a deferred delivery
        error for this ``(pid, target)`` surfaces here (fence-on-reply).
        Parcels above a page then skip the marshal-interleaved per-byte
        rate and stream through the ring's bulk-copy window at the
        ``binder_parcel_page_ns`` page rate.

        Parcels cross by value both ways: the CVM gets its own copy of
        the transaction and its payload, and the app gets its own copy
        of the reply, so neither side can reach the other's objects.
        """
        lane = self.pool.lane_for(task)
        if lane.binder_ring is not None:
            if self._binder_accepts(task, transaction, lane):
                return self._binder_enqueue(task, request, transaction, lane)
            self._binder_fence(task, transaction.target, "transact", lane)
        clock = self.machine.clock
        if clock.dormant:
            clock._now_ns += self.machine.costs.binder_cvm_fixed_ns
        else:
            clock.advance(self.machine.costs.binder_cvm_fixed_ns,
                          "anception:binder-cvm")
        payload = transaction.payload_size
        proxy = lane.proxies.proxy_for(task)
        proxy_binder_fd = self._ensure_proxy_binder(lane, proxy)
        bulk = self._charge_parcel(lane.binder_ring, payload)
        delivered = Transaction(transaction.target, transaction.method,
                                copy_parcel(transaction.payload),
                                transaction.flags)
        args = (fd, request, transaction)
        translated = (proxy_binder_fd, request, delivered)
        if not bulk:
            return copy_parcel(self._redirect(task, "ioctl", args, {},
                                              translated=translated))
        with lane.channel.bulk_copy():
            return copy_parcel(self._redirect(task, "ioctl", args, {},
                                              translated=translated))

    def _charge_parcel(self, ring, payload):
        """Charge one binder parcel's bytes; ``True`` if it rides bulk.

        With the binder ring on, a parcel above a page skips the
        marshal-interleaved per-byte rate and streams through the bulk
        shared-memory path at the ``binder_parcel_page_ns`` page rate.
        """
        costs = self.machine.costs
        clock = self.machine.clock
        if ring is not None and payload > PAGE_SIZE:
            ring.bulk_parcels += 1
            ns, bulk = costs.binder_parcel_page_ns * costs.chunks(payload), True
            label = "anception:binder-parcel"
        else:
            ns, bulk = int(costs.binder_cvm_per_byte_ns * payload), False
            label = "anception:binder-bytes"
        if clock.dormant:
            clock._now_ns += ns
        else:
            clock.advance(ns, label)
        return bulk

    def _ensure_proxy_binder(self, lane, proxy):
        """The proxy's CVM ``/dev/binder`` fd, opened on its first use.

        Resolved once per proxy and then checked by one fd-table lookup;
        only when that descriptor has left the proxy's table is the
        table scanned (or the device opened) again.
        """
        guest_task = proxy.guest_task
        fd_table = guest_task.fd_table
        fd = proxy.binder_fd
        if fd is not None and fd_table.get(fd) is proxy.binder_file:
            return fd
        for fd, desc in fd_table.items():
            if getattr(desc, "path", "") == "/dev/binder":
                break
        else:
            desc = lane.cvm.kernel.vfs.open(
                "/dev/binder", 0x2, guest_task.credentials
            )
            fd = guest_task.alloc_fd(desc)
        proxy.binder_fd, proxy.binder_file = fd, desc
        return fd

    def _split_mmap2(self, task, table, length, prot, flags, addr=None,
                     fd=None, offset=0):
        """Split mmap (Section III-D "Memory-mapped files").

        File-backed mappings of CVM files: the proxy maps + pins pages in
        the container, the data is copied across once, and the host maps
        it into the app — so later faults never cross the boundary.  All
        mappings are mirrored as zero-filled reservations in the proxy so
        address-space shapes agree; *content* stays host-side (the
        sock_sendpage shellcode never reaches the CVM).
        """
        if fd is not None and table.is_remote(fd):
            self._lane(task).proxies.proxy_for(task)
            proxy_fd = table.to_proxy(fd)
            # Proxy-side mapping with forced read faults (pinning).
            data = self._redirect(
                task, "pread64", (fd, length, offset), {},
                translated=(proxy_fd, length, offset),
            )
            base = task.address_space.mmap(length, prot, flags, addr)
            if data:
                task.address_space.write(base, data, need_prot=0)
            self._mirror_reservation(task, length, prot, flags,
                                     addr if flags & 0x10 else base)
            self._prune_file_mappings(task)
            self._file_mappings[(task.pid, base)] = (
                fd, offset, length, len(data),
                task.address_space.pages[page_of(base)])
            return base
        # Anonymous (or host-file) mapping: host executes; mirror shape.
        result = self.host_kernel.execute_native(
            task, "mmap2", (length, prot, flags, addr, fd, offset), {}
        )
        if isinstance(result, int):
            self._mirror_reservation(task, length, prot, flags, result)
        return result

    _split_mmap = _split_mmap2

    def _mirror_reservation(self, task, length, prot, flags, addr):
        if addr is None:
            return
        proxy = self._lane(task).proxies.proxy_for(task)
        space = proxy.guest_task.address_space
        try:
            space.mmap(length, prot, flags | MAP_ANONYMOUS | MAP_FIXED, addr)
        except SyscallError:
            pass  # overlapping reservation: shape already present

    def _split_msync(self, task, table, addr, length, flags=0):
        """Write-back: synchronise host page content with the CVM file.

        For file-backed split mappings the modified host bytes are
        pwritten back through the proxy; anonymous regions just cross
        the channel (nothing to persist).  Only the bytes the file
        backed at map time are written: msync never grows a file.
        """
        mapping = self._find_file_mapping(task, addr)
        if mapping is not None:
            base, (host_fd, file_offset, _length, extent, _page) = mapping
            sync_offset = addr - base
            sync_length = min(length, extent - sync_offset)
            if sync_length > 0:
                data = task.address_space.read(addr, sync_length,
                                               need_prot=0)
                self._redirect(
                    task, "pwrite64",
                    (host_fd, data, file_offset + sync_offset), {},
                )
            return 0
        data = task.address_space.read(addr, length, need_prot=0)
        lane = self._lane(task)
        self._supervise(task, lane, "msync", self._msync_crossing,
                        (lane, task, data))
        return 0

    def _msync_crossing(self, lane, task, data):
        """Anonymous msync: the bytes cross, then one doorbell pair."""
        channel = lane.channel
        channel.send_to_guest(data)
        if not channel.hypervisor.inject_interrupt("msync"):
            self._resignal_guest(lane, "msync", task)
        if not channel.hypervisor.hypercall("msync-ack"):
            self._poll_host("msync-ack", task)

    def _find_file_mapping(self, task, addr):
        """The live file-backed split mapping of ``task`` holding
        ``addr``, as ``(base, info)``, or ``None``."""
        self._prune_file_mappings(task)
        for (pid, base), info in self._file_mappings.items():
            if pid == task.pid and base <= addr < base + info[2]:
                return base, info
        return None

    def _prune_file_mappings(self, task):
        """Forget ``task``'s file-backed split mappings that are gone.

        munmap and execve run on the host and never tell the layer, so
        an entry is live only while its base page is still the
        :class:`~repro.kernel.memory.PageMapping` the split mmap made —
        compared by identity, since a later mapping at the same address
        may even reuse the frame.
        """
        pages = task.address_space.pages
        maps = self._file_mappings
        for key in [key for key, info in maps.items()
                    if key[0] == task.pid
                    and pages.get(page_of(key[1])) is not info[4]]:
            del maps[key]

    def _split_shmat(self, task, table, shmid):
        """Split shmat: content frames on the host, id from the CVM.

        ``shmid`` names a CVM-registry segment (shmget was redirected).
        The layer keeps one host-side shadow segment per CVM id; every
        enrolled app attaching that id maps the *same host frames* — so
        apps share memory at native speed while the CVM only ever holds
        the (empty) bookkeeping segment.
        """
        lane = self._lane(task)
        cvm_segment = lane.cvm.kernel.shm.require(shmid)
        shadow = lane.shm_shadows.get(shmid)
        if shadow is None:
            shadow = self.host_kernel.shm.shmget(
                task, 0, cvm_segment.size, 0o1000
            )
            lane.shm_shadows[shmid] = shadow
        base = self.host_kernel.execute_native(task, "shmat", (shadow,), {})
        lane.shm_attach_map[(task.pid, base)] = shmid
        # The proxy attaches the CVM segment too, keeping the container's
        # attach counts honest (its frames stay zero-filled).
        proxy = lane.proxies.proxy_for(task)
        lane.cvm.kernel.shm.shmat(proxy.guest_task, shmid)
        return base

    def _handle_shmdt(self, task, addr):
        """Detach both sides of a split shared-memory attachment."""
        result = self.host_kernel.execute_native(task, "shmdt", (addr,), {})
        lane = self._lane(task)
        shmid = lane.shm_attach_map.pop((task.pid, addr), None)
        if shmid is not None:
            proxy = lane.proxies.proxy_for(task)
            guest_shm = lane.cvm.kernel.shm
            for (pid, guest_addr), sid in list(guest_shm._attached.items()):
                if pid == proxy.guest_task.pid and sid == shmid:
                    guest_shm.shmdt(proxy.guest_task, guest_addr)
                    break
        return result

    def _split_fork(self, task, table, flags=0):
        # Host fork; the on_fork hook mirrors the child into the CVM.
        # The child shares the parent's files, and its own staged writes
        # drain at its exit, so the parent's must land first.
        lane = self._lane(task)
        if lane.write_behind is not None:
            self._wb_fence(task, "fork", lane=lane)
        return self.host_kernel.execute_native(task, "fork", (flags,), {})

    _split_clone = _split_fork

    def _split_execve(self, task, table, path, argv=()):
        """Exec: host copy for system binaries, exec-cache for user code."""
        if self.policy.is_code_path(task, path) or path.startswith("/system"):
            return self.host_kernel.execute_native(
                task, "execve", (path, argv), {}
            )
        # User-generated code lives in the CVM: check it as execve would
        # (search and exec rights, a regular file), copy out, stage, exec.
        creds = task.credentials
        try:
            inode = self._lane(task).cvm.kernel.vfs.resolve(
                self._abs(task, path), creds)
            inode.check_permission(creds, want_exec=True)
            if inode.kind is not InodeKind.FILE:
                raise SyscallError(errno.EACCES, path)
            data = bytes(inode.data)
        except SyscallError as exc:
            raise SyscallError(exc.errno, f"exec source {path}",
                               call="execve") from exc
        cache_path = self.exec_cache.stage(path, data)
        return self.host_kernel.execute_native(
            task, "execve", (cache_path, argv), {}
        )

    @staticmethod
    def _abs(task, path):
        if not path.startswith("/"):
            path = posixpath.join(task.cwd, path)
        return posixpath.normpath(path)

    # ------------------------------------------------------------------
    # host-controlled firewalling of the container
    # ------------------------------------------------------------------

    def set_firewall(self, allow=None, rule=None):
        """Install host-side firewall rules on the CVM's network stack.

        Either pass ``allow`` — an iterable of permitted remote addresses
        (everything else refused) — or ``rule``, a callable
        ``address -> bool``.  Passing neither clears the firewall.
        """
        if rule is not None:
            self._firewall_rule = rule
        elif allow is not None:
            allowed = set(allow)
            self._firewall_rule = lambda address: address in allowed
        else:
            self._firewall_rule = None
        for lane in self.pool.lanes:
            lane.cvm.kernel.network.firewall = self._firewall_rule

    # ------------------------------------------------------------------
    # container reboot (recovery from a crashed CVM)
    # ------------------------------------------------------------------

    def reboot_cvm(self, lane=None):
        """Restart one dead (or live) container and re-enroll survivors.

        Reboots are lane-scoped: only the apps resident on ``lane``
        (default: lane 0) lose their container; siblings keep running
        untouched.  App data survives on the virtual disk; open CVM
        descriptors do not: every surviving app on the lane gets a fresh
        proxy in the new container through :meth:`_new_proxy`, which
        drops the app's stubs (subsequent use gets EBADF, like any fd
        whose backing object died).  All lane-held transport state re-arms
        through :meth:`_bind_lane` — the same choke point boot uses —
        so nothing stale can survive the swap.
        """
        if lane is None:
            lane = self.pool.default_lane
        lane.cvm.reboot()
        self._bind_lane(lane)
        survivors = [
            task for task in self.host_kernel.pids.all_tasks()
            if task.redirection_entry and task.is_alive()
            and self.pool.lane_for(task) is lane
        ]
        for task in survivors:
            self._new_proxy(lane, task)
        self._recovered("channels-rebound",
                        f"{lane.name}: {len(survivors)} survivors",
                        kernel=self.host_kernel.label,
                        survivors=len(survivors), **self._lane_tags(lane))
        return len(survivors)

    # ------------------------------------------------------------------
    # explicit batch windows (opt-in syscall batching)
    # ------------------------------------------------------------------

    def run_batch(self, task, calls):
        """Run ``calls`` — ``(name, *args)`` tuples — under one window.

        The kernel-facing entry for the opt-in batched dispatch path
        (``libc.syscall_batch``): every call goes through the normal
        alternate-table dispatch, so host/block/split decisions apply
        unchanged; only redirected deferrable calls (``write``,
        ``pwrite64``) queue, consecutive writes to the same fd coalesce
        into one descriptor, and the window's end flushes everything
        behind a single doorbell pair.  Deferred writes complete
        *optimistically* (the byte count returns immediately); a
        failure surfaces at the flush as the usual typed errno.  A call
        that raises ends the window: the writes queued before it flush
        first, as native has already run them, and then its errno
        surfaces, unless the flush itself fails, whose errno then wins
        as it would have at that earlier call.  The crypto filesystem
        disables deferral — its transform needs the live proxy-side
        file offset per call.
        """
        batch = self._batch = DelegationBatch(self, task)
        try:
            results = [self.host_kernel.syscall(task, call[0], *call[1:])
                       for call in calls]
        except SyscallError:
            self._batch = None
            batch.flush()
            raise
        finally:
            self._batch = None
        batch.flush()
        return results

    # ------------------------------------------------------------------
    # deferred windows: write-behind and batched binder
    # ------------------------------------------------------------------
    #
    # ``lane.write_behind`` and ``lane.binder_ring`` are two instances of
    # one DeferredWindows primitive, and every step after admission —
    # staging, draining, settling, running a window, ledgering its
    # failures — is shared.  Only the admission rules and the fence
    # points below are kind-specific.

    _WB_DEFERRABLE = ("write", "pwrite64", "ftruncate")
    _WB_FENCE_SURFACING = ("fsync", "fdatasync", "read", "pread64", "readv",
                           "fence")

    def _wb_accepts(self, task, name, args, kwargs, lane):
        """Whether this call may defer into a write-behind window.

        Only side-effect-only calls whose results are known up front
        (byte counts / zero) on pre-validated writable regular CVM
        files qualify — so in an unfaulted run a deferred call cannot
        fail, and async results stay byte-identical to sync.  The
        caller has checked that ``name`` is in :attr:`_WB_DEFERRABLE`.
        """
        if kwargs:
            return False
        if not args or not isinstance(args[0], int):
            return False
        if not self._wb_target(task, args[0], lane):
            return False
        if name == "ftruncate":
            # A negative length must take the sync path so the kernel's
            # own EINVAL surfaces at the call site.
            return (len(args) == 2 and isinstance(args[1], int)
                    and args[1] >= 0)
        if name == "write":
            if len(args) != 2:
                return False
        elif len(args) != 3 or not isinstance(args[2], int) \
                or args[2] < 0:
            return False
        return isinstance(args[1], (bytes, bytearray, memoryview))

    def _wb_accepts_writev(self, task, fd, vec, lane):
        """writev defers iff a plain write to the same fd would."""
        return self._wb_target(task, fd, lane) and all(
            isinstance(entry, (bytes, bytearray, memoryview))
            for entry in vec)

    def _wb_target(self, task, fd, lane):
        """Whether ``fd`` is a writable regular CVM file on a healthy
        lane, with no crypto FS or explicit batch window in the way."""
        if self.crypto_fs is not None or self._batch is not None:
            return False
        kernel = lane.cvm.kernel
        if kernel.crashed or kernel.compromised_by is not None:
            return False
        desc = self._remote_file(task, fd, lane)
        return desc is not None and getattr(desc, "writable", False)

    def _binder_accepts(self, task, transaction, lane):
        """Whether this transaction may defer into a binder window.

        Only oneway transactions to services that already exist in the
        CVM qualify — the name lookup happens at enqueue time, so a
        missing target raises ENOENT at the call site in every mode and
        an unfaulted deferred delivery cannot fail (the driver swallows
        service-side errors for oneway in every mode too).
        """
        if not transaction.is_oneway:
            return False
        if self._batch is not None:
            return False
        kernel = lane.cvm.kernel
        if kernel.crashed or kernel.compromised_by is not None:
            return False
        return lane.cvm.android.has_service(transaction.target)

    def _wb_enqueue(self, task, name, args, lane):
        """Stage one deferred call; return its optimistic result.

        The host pays only the fixed marshal plus a page-rate staging
        copy, then keeps running — posting, channel bytes, doorbells,
        and CVM execution all land on the owning CVM's clock lane at
        drain time.
        """
        wb = lane.write_behind
        window = wb.windows.get(task.pid)
        if window is None or len(window.entries) >= wb.depth:
            proxy = lane.proxies._by_host_pid.get(task.pid)
            window = self._window_with_room(lane, wb, task)
            if lane.proxies._by_host_pid.get(task.pid) is not proxy:
                # The drain renewed the task's proxy and dropped this
                # fd's stub: the call is no longer deferrable, so it
                # takes the synchronous path and fails there.
                return self._redirect(task, name, args, {})
        if name == "write":
            payload = bytes(args[1])
            args = (args[0], payload)
            result = len(payload)
        elif name == "pwrite64":
            payload = bytes(args[1])
            args = (args[0], payload, args[2])
            result = len(payload)
        else:
            args = (args[0], args[1])
            result = 0
        call_args = self.fd_tables[task.pid].translate_args(name, args)
        wire, size = marshal_call(name, call_args, {})
        entry = DeferredEntry(name, args, call_args, wire, args[0], result)
        clock = self.machine.clock
        if clock.dormant:
            # _stage's charge as one add (a wire carries at least the
            # call name, so it starts at least one page).
            costs = self.machine.costs
            clock._now_ns += (costs.marshal_fixed_ns
                              + costs.wb_stage_page_ns * -(-size // PAGE_SIZE))
            wb.push(window, entry)
        else:
            self._stage(wb, window, task, entry, size, name)
        return result

    def _binder_enqueue(self, task, request, transaction, lane):
        """Stage one oneway transaction; return ``None`` optimistically.

        The parcel is copied now (by value: a later payload mutation
        must not reach the service), the host pays the fixed marshal
        plus a page-rate staging copy, and keeps running — the cross-VM
        fixed cost, channel bytes, doorbells, and CVM execution all land
        on the ``cvm`` lane at drain time, shared across the whole
        window.  The parcel is sized once, by the marshal.
        """
        ring = lane.binder_ring
        window = ring.windows.get(task.pid)
        if window is None or len(window.entries) >= ring.depth:
            window = self._window_with_room(lane, ring, task)
        staged = Transaction(transaction.target, transaction.method,
                             copy_parcel(transaction.payload),
                             transaction.flags)
        proxy = lane.proxies.proxy_for(task)
        proxy_binder_fd = self._ensure_proxy_binder(lane, proxy)
        call_args = (proxy_binder_fd, request, staged)
        wire, size = marshal_call("ioctl", call_args, {})
        entry = DeferredEntry("ioctl", call_args, call_args, wire,
                              staged.target,
                              payload_bytes=size - _BINDER_WIRE_FRAME)
        clock = self.machine.clock
        if clock.dormant:
            # _stage's charge as one add, as in _wb_enqueue.
            costs = self.machine.costs
            clock._now_ns += (costs.marshal_fixed_ns
                              + costs.wb_stage_page_ns * -(-size // PAGE_SIZE))
            ring.push(window, entry)
        else:
            self._stage(ring, window, task, entry, size,
                        f"{staged.target}.{staged.method}")
        return None

    def _window_with_room(self, lane, windows, task):
        """The task's open window, drained first if it is full.

        The enqueues call this only when the window is missing or full.
        A drain removes the task's window, so a full one is read again
        after its drain.  A task opening a window first drains one that
        another task of its app (a forked parent or child, sharing its
        files) still holds, so their staged calls land in the order
        they were made, not in pid order.
        """
        if windows.windows and task.pid not in windows.windows:
            for window in windows.pending_windows():
                if window.task.launch_uid == task.launch_uid:
                    self._drain(lane, windows, window.task, "handoff")
        window = windows.window(task)
        if len(window.entries) >= windows.depth:
            # Bounded depth: a full window is the only point deferral
            # blocks (drain waits for the lane before re-posting).
            self._drain(lane, windows, task, "window-full")
            window = windows.window(task)
        return window

    def _stage(self, windows, window, task, entry, size, name):
        """Charge the host's marshal and staging copy, then stage.

        The captured path: a dormant enqueue makes the same charge as
        one integer add and pushes the entry itself.
        """
        costs = self.machine.costs
        clock = self.machine.clock
        stage_ns = costs.wb_stage_page_ns * max(costs.chunks(size), 1)
        clock.advance(costs.marshal_fixed_ns, "anception:marshal")
        clock.advance(stage_ns, f"anception:{windows.label}-stage")
        depth = windows.push(window, entry)
        maybe_event(clock, f"{windows.label}-submit", name, task=task,
                    kernel=self.host_kernel.label, depth=depth, bytes=size)

    def _drain(self, lane, windows, task, reason):
        """Ship one task's staged window through the ring on its lane."""
        entries = windows.take(task.pid)
        if entries is None:
            return
        label = windows.label
        run = self._run_window if label == "wb" else self._run_binder_window
        clock = self.machine.clock
        # The previous drain must retire before this one posts — the
        # bounded in-flight depth is the backpressure contract.
        clock.wait_for(lane.cvm.lane, f"anception:{label}-backpressure")
        if clock.dormant:
            with clock.overlap(lane.cvm.lane):
                run(lane, task, entries)
            return
        with maybe_span(clock, f"{label}-drain", f"{reason}:{len(entries)}",
                        task=task, kernel=self.host_kernel.label,
                        batch=len(entries), reason=reason,
                        **self._lane_tags(lane)) as span:
            with clock.overlap(lane.cvm.lane):
                run(lane, task, entries)
            # The backpressure fence above settled the lane, so the
            # post-window backlog is exactly the lane time this drain
            # consumed — the overlap-ratio numerator for the analyzer.
            span.set(lane_ns=clock.lane_backlog_ns(lane.cvm.lane))

    def _settle(self, lane, windows, task, name):
        """Drain one lane's staged windows of one kind, settle its clock."""
        drained = 0
        for window in windows.pending_windows():
            drained += len(window.entries)
            self._drain(lane, windows, window.task, f"fence:{name}")
        clock = self.machine.clock
        waited = clock.wait_for(
            lane.cvm.lane, f"anception:{windows.label}-fence:{name}"
        )
        if drained or waited:
            windows.fences += 1
            maybe_event(clock, f"{windows.label}-fence", name, task=task,
                        kernel=self.host_kernel.label, drained=drained,
                        waited_ns=waited, **self._lane_tags(lane))

    def _wb_fence(self, task, name, args=(), lane=None):
        """Drain the owning lane, settle it, surface deferred errnos.

        Fences are lane-scoped: only the fencing task's own CVM drains
        and settles — sibling lanes' windows keep riding their own
        clocks (the cross-lane barrier is :meth:`async_fence`).
        fsync/fdatasync/read-after-write (and the explicit ``fence``
        veneer) additionally pop the ledger entry for their fd — the
        pop is what makes a deferred errno surface *exactly once*;
        ``close`` surfaces in :meth:`_split_close` after teardown.
        """
        if lane is None:
            lane = self._lane(task)
        wb = lane.write_behind
        clock = self.machine.clock
        if not wb.windows and not wb.errors \
                and clock._overlap_lane is None \
                and clock._lane_busy.get(lane.cvm.lane, 0) <= clock._now_ns:
            # Nothing staged, nothing ledgered, the lane idle and no
            # overlap window open: the settle below would drain nothing,
            # wait 0 ns, count no fence and emit nothing, and the ledger
            # pop would find nothing.
            return
        self._settle(lane, wb, task, name)
        if name in self._WB_FENCE_SURFACING and args \
                and isinstance(args[0], int):
            self._surface(wb.take_error(task.pid, args[0]),
                          f"deferred write-behind error on fd {args[0]}",
                          name)

    def wb_fence(self, task, fd=None):
        """Explicit write-behind barrier (the libc ``fence`` veneer).

        Drains every staged window, waits out the CVM lane, and — when
        ``fd`` names a descriptor with a ledgered deferred error —
        surfaces that errno exactly once.  No-op when write-behind is
        off, so the same op-script runs in every mode.
        """
        if self._lane(task).write_behind is None:
            return 0
        self._wb_fence(task, "fence", (fd,) if fd is not None else ())
        return 0

    def _binder_fence(self, task, target, name, lane):
        """Fence-on-reply: settle the lane, surface this target's errno.

        Every staged oneway (to any target, preserving submission order
        across services) delivers before the fencing transaction runs;
        the ledger pop makes a deferred delivery error surface *exactly
        once*, at the next reply-carrying call to that target.
        """
        self._settle(lane, lane.binder_ring, task, name)
        self._surface(lane.binder_ring.take_error(task.pid, target),
                      f"deferred binder delivery error for {target!r}",
                      "ioctl")

    def async_fence(self, task, fd=None):
        """Explicit async-delegation barrier (the libc ``fence`` veneer).

        The one *cross-lane* fence: every lane's staged write-behind
        *and* binder windows drain — in lane order, each settling its
        own clock cursor — and a ledgered deferred errno surfaces
        exactly once, always from the fencing task's own lane: by
        ``fd`` for write-behind, earliest-target-first for binder (the
        barrier names no target).  No-op when both async features are
        off, so the same program runs in every mode.
        """
        own = self._lane(task)
        for lane in self.pool.lanes:
            for windows in (lane.write_behind, lane.binder_ring):
                if windows is not None:
                    self._settle(lane, windows, task, "fence")
        if own.write_behind is not None and fd is not None:
            self._surface(own.write_behind.take_error(task.pid, fd),
                          f"deferred write-behind error on fd {fd}",
                          "fence")
        if own.binder_ring is not None:
            self._surface(own.binder_ring.take_any_error(task.pid),
                          "deferred binder delivery error", "fence")
        return 0

    @staticmethod
    def _surface(deferred, message, call):
        """Raise a ledgered deferred errno at its fence; the caller's
        ledger pop is what makes it surface exactly once."""
        if deferred is not None:
            raise SyscallError(deferred.errno, message,
                               call=call) from deferred

    def _run_window(self, lane, task, entries):
        """Forward one drained write-behind window (see
        :meth:`_forward_window`)."""
        self._forward_window(lane, lane.write_behind, task, entries)

    def _run_binder_window(self, lane, task, entries):
        """Forward one drained binder window (see
        :meth:`_forward_window`)."""
        self._forward_window(lane, lane.binder_ring, task, entries)

    def _forward_window(self, lane, windows, task, entries):
        """Forward one drained window behind one doorbell pair.

        Runs inside the lane's overlap window, under the same retry
        loop as every other crossing (:meth:`_supervise`).  Failures
        never raise to the (long-gone) call site: they ledger per
        ``(pid, key)`` for the next fence to surface — including the
        EIO once recovery gives up, charged to every entry.
        """
        site = "binder-ring" if windows.label == "binder" else "write-behind"
        # The manager's dict, not proxy_for: no added frame per drain.
        self._supervise(
            task, lane, site, self._window_attempt,
            (lane, lane.proxies._by_host_pid.get(task.pid), windows, task,
             entries),
            exhausted=lambda failure: self._fail_entries(
                windows, task, entries,
                _delegation_eio(failure, entries[0].name)),
        )

    def _window_attempt(self, lane, proxy, windows, task, entries):
        """One pass of a drained window: post, flush, reap, ledger.

        ``proxy`` is the task's proxy when the drain began.  If a
        respawn or reboot renewed it since (a retry's, or one before the
        first pass), the window ends unrun: its entries name what the
        lost proxy held, whose host stubs and ledger are already gone.

        The kinds differ only where ``binder`` is tested:

        * a binder window may be reordered (``binder.reorder``) and pays
          the fixed cross-VM binder cost once for the whole window —
          that is the batching win;
        * ``binder.drop`` loses one transaction while the rest still
          deliver, each paying its parcel bytes (above a page at the
          bulk-parcel page rate); ``wb.error`` fails one write and
          cancels the rest of its window;
        * the ring flag, the reap-loss site and the labels.
        """
        if lane.proxies._by_host_pid.get(task.pid) is not proxy:
            return
        binder = windows.label == "binder"
        if binder:
            noun, flags = "binder", RING_FLAG_BINDER
        else:
            noun, flags = "write-behind", RING_FLAG_WRITE_BEHIND
        clock = self.machine.clock
        engine = clock.faults
        live = entries
        if binder and engine is not None and len(live) > 1 \
                and engine.fires("binder.reorder", "ioctl"):
            live = [live[1], live[0], *live[2:]]
            windows.reordered += 1
        pendings = []
        with lane.channel.bulk_copy():
            if binder:
                clock.advance(self.machine.costs.binder_cvm_fixed_ns,
                              "anception:binder-window")
            for index, entry in enumerate(live):
                failure = self._entry_step(engine, windows, entry)
                if failure is not None and binder:
                    self._record(windows, task, entry.key, failure)
                    continue
                if failure is not None:
                    self._fail_entries(windows, task, live[index:], failure)
                    break
                pendings.append((entry, self.submit(
                    task, entry.name, entry.args, {},
                    translated=entry.call_args, wire=entry.wire,
                    ring_flags=flags, lane=lane,
                )))
            if not pendings:
                return
            self.flush(task, reason=f"{noun}:{len(pendings)}", lane=lane)
        if engine is not None and (
                engine.fires("binder.reply-loss", "ioctl") if binder
                else engine.fires("wb.reap-loss")):
            # The reaper missed the batch.  With recovery on, the
            # completions already sit in the shared pages, so it times
            # out and polls them back — it never re-submits (a replayed
            # call is not idempotent).
            if not self.recovery:
                self._fail_entries(
                    windows, task, [entry for entry, _ in pendings],
                    SyscallError(errno.EIO, f"{noun} completions lost",
                                 call=pendings[0][0].name),
                )
                return
            poll = f"{windows.label}-reap-poll"
            clock.advance(SIGNAL_TIMEOUT_NS, f"anception:{poll}")
            self._recovered(poll, f"{len(pendings)} completions", task=task,
                            kernel=self.host_kernel.label,
                            batch=len(pendings))
        for entry, pending in pendings:
            try:
                self.complete(pending, lane=lane)
            except SyscallError as exc:
                self._record(windows, task, entry.key, exc)

    def _entry_step(self, engine, windows, entry):
        """One entry's kind-specific step before it is posted.

        Returns the injected failure (``binder.drop`` or ``wb.error``)
        that keeps the entry off the ring; a binder entry that does go
        out pays its parcel bytes here.
        """
        if windows.label != "binder":
            injected = engine is not None and engine.errno_at(
                "wb.error", entry.name)
            if injected:
                return SyscallError(injected, "injected fault: wb.error",
                                    call=entry.name)
            return None
        if engine is not None:
            injected = engine.errno_at("binder.drop", "ioctl")
            if injected:
                windows.dropped += 1
                return SyscallError(injected, "injected fault: binder.drop",
                                    call="ioctl")
        self._charge_parcel(windows, entry.payload_bytes)
        return None

    def _fail_entries(self, windows, task, entries, first):
        """Ledger ``first`` for the first entry, ECANCELED for the rest."""
        for index, entry in enumerate(entries):
            self._record(windows, task, entry.key, first if index == 0
                         else SyscallError(
                             errno.ECANCELED,
                             "aborted by earlier failure in window",
                             call=entry.name,
                         ))

    def _record(self, windows, task, key, exc):
        """Ledger one deferred failure (first per ``(pid, key)`` wins)."""
        if not windows.record_error(task.pid, key, exc):
            return
        if windows.label == "binder":
            maybe_event(self.machine.clock, "binder-error", key, task=task,
                        kernel=self.host_kernel.label, target=key,
                        errno=exc.errno)
        else:
            maybe_event(self.machine.clock, "wb-error",
                        getattr(exc, "call", None) or "write-behind",
                        task=task, kernel=self.host_kernel.label, fd=key,
                        errno=exc.errno)

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------

    def on_fork(self, parent, child):
        """Extend the sandbox to forked children (GingerBreak step: the
        restarted logcat stays bound to the app's container).  Of the
        stubs the host fork copied, the child keeps those whose descriptor
        its parent's proxy still holds (:meth:`_new_proxy`)."""
        if not parent.redirection_entry:
            return
        child.redirection_entry = parent.redirection_entry
        child.launch_uid = parent.launch_uid
        # Children join the parent's lane: the shared fd/proxy state
        # they inherit lives in that container.
        lane = self._lane(parent)
        self.pool.adopt(child, lane)
        self._new_proxy(lane, child, parent)
        self.fd_tables[child.pid] = FdTranslationTable(child.fd_table)

    def on_exit(self, task, exit_code):
        """Flush, then end, an exiting app (``Kernel.reap_task``).

        Exit drains the app's own deferred windows through the
        supervised path, as a ``close`` fence would, while the proxy
        still lives: staged writes are durable and staged oneways
        delivered, as they would be on a native kernel.  A dead app can
        surface no deferred errno, so its ledger entries go with the
        rest of its per-pid state: fd table, mappings, windows and
        placement.  Its proxy exits with ``exit_code`` in the CVM.
        """
        pid = task.pid
        lane = self._lane(task)
        try:
            for windows in (lane.write_behind, lane.binder_ring):
                if windows is not None:
                    self._drain(lane, windows, task, "exit")
        except SyscallError:
            pass  # container down, recovery off: nothing to flush into
        finally:
            self.fd_tables.pop(pid, None)
            for maps in (self._file_mappings, lane.shm_attach_map):
                for key in [key for key in maps if key[0] == pid]:
                    del maps[key]
            for windows in (lane.write_behind, lane.binder_ring):
                if windows is not None:
                    windows.forget(pid)
            lane.proxies.remove_proxy(task, exit_code)
            self.pool.release(pid)

    def on_credentials_changed(self, task):
        """Kill any app whose UID changed after launch (footnote 3)."""
        if task.launch_uid is None or not task.redirection_entry:
            return
        if task.credentials.uid != task.launch_uid:
            self.killed_apps.append(task.pid)
            self.host_kernel.reap_task(task, exit_code=-9)
            raise ProcessKilled(
                task.pid,
                f"UID changed after launch ({task.launch_uid} -> "
                f"{task.credentials.uid})",
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    _AGG_FIRST_KEYS = ("depth", "max_pages")
    _AGG_MAX_KEYS = ("max_depth_seen",)

    @classmethod
    def _agg(cls, dicts):
        """Merge per-lane stats dicts into one fleet-wide view.

        Numeric counters sum, bools OR, configured bounds take the
        first lane's value, high-water marks take the max, nested dicts
        merge recursively, and the cache hit rate is recomputed from
        the summed hits/misses.  One lane merges to its own values.
        """
        merged = {}
        for key in dicts[0]:
            values = [d[key] for d in dicts]
            first = values[0]
            if key in cls._AGG_FIRST_KEYS:
                merged[key] = first
            elif key in cls._AGG_MAX_KEYS:
                merged[key] = max(values)
            elif isinstance(first, dict):
                merged[key] = cls._agg(values)
            elif isinstance(first, bool):
                merged[key] = any(values)
            elif isinstance(first, (int, float)):
                merged[key] = sum(values)
            else:
                merged[key] = first
        if "hit_rate" in merged and "hits" in merged and "misses" in merged:
            looked = merged["hits"] + merged["misses"]
            merged["hit_rate"] = (
                round(merged["hits"] / looked, 4) if looked else 0.0
            )
        return merged

    def stats(self):
        """Layer-wide summary; counters aggregate across every lane.

        One schema at every pool size: the top-level counters are
        fleet-wide sums, ``pool`` holds assignment and residency counts
        and ``per_cvm`` the per-lane breakdown.  Disabled features report
        ``None``.  These component counters are the only count of each
        event; the metrics registry keeps just the span-fed ones.
        """
        lanes = self.pool.lanes
        return {
            "decisions": dict(self.decision_counts),
            "proxies": sum(lane.proxies.count for lane in lanes),
            "blocked_calls": self.decision_counts.get(
                Decision.BLOCK.value, 0),
            "killed_apps": self.killed_apps.total,
            "channel": self._agg([lane.channel.stats() for lane in lanes]),
            "read_cache": self._optional_stats(lanes, "page_cache"),
            "write_behind": self._optional_stats(lanes, "write_behind"),
            "binder_ring": self._optional_stats(lanes, "binder_ring"),
            "cvm_crashed": any(lane.cvm.crashed for lane in lanes),
            "cvm_reboots": sum(lane.cvm.reboot_count for lane in lanes),
            "recoveries": self.recovery_log.total,
            "pool": self.pool.stats(),
            "per_cvm": {
                lane.name: {
                    "residents": len(self.pool.pids_on(lane)),
                    "proxies": lane.proxies.count,
                    "crashed": lane.cvm.crashed,
                    "reboots": lane.cvm.reboot_count,
                    "channel": lane.channel.stats(),
                    "read_cache": self._optional_stats([lane], "page_cache"),
                    "write_behind": self._optional_stats([lane],
                                                         "write_behind"),
                    "binder_ring": self._optional_stats([lane],
                                                        "binder_ring"),
                }
                for lane in lanes
            },
        }

    def _optional_stats(self, lanes, attr):
        """Merged ``stats()`` of one optional lane component, or ``None``
        when the feature is off."""
        if getattr(lanes[0], attr) is None:
            return None
        return self._agg([getattr(lane, attr).stats() for lane in lanes])


_HOST, _SPLIT = Decision.HOST.value, Decision.SPLIT.value
_DEVICE = InodeKind.DEVICE

_ROUTE_HANDLERS = {
    _HOST: AnceptionLayer._route_host,
    Decision.REDIRECT.value: AnceptionLayer._route_redirect,
    Decision.BLOCK.value: AnceptionLayer._route_block,
}
"""The alternate syscall table's second half: decision value -> the
layer's route for it (plain functions, called with the layer).  A split
call takes its handler from :data:`_SPLIT_HANDLERS`, or the host route
when it has none."""

_SPLIT_HANDLERS = {
    name[len("_split_"):]: handler
    for name, handler in vars(AnceptionLayer).items()
    if name.startswith("_split_")
}
"""Split-class call name -> its dedicated handler (plain functions)."""
