"""The CVM pool: shard enrolled apps across container VMs.

The paper's architecture anticipates per-app trust domains, but a single
64 MB container is a shared-fate (and shared-vCPU) domain: one crashed
or saturated CVM takes every enrolled app with it.  This module turns
"the CVM" into "a routed transport": a :class:`CVMPool` owns N
:class:`CVMLane` bundles — each a complete delegation stack (container,
channel, ring pair, proxy manager, page cache, write-behind and binder
windows, deferred-errno ledgers) — and a hash of each enrolled task's
launch uid maps it to exactly one lane.

Design rules, all load-bearing for the ``cvms=1`` byte-identity pin:

* lane resolution charges **zero simulated time** — routing is host
  bookkeeping, not a delegation cost;
* lane 0 keeps the classic ``"cvm"`` clock-lane name and guest kernel
  label, so every event, span, and error message a single-CVM world
  emits is byte-identical to the pre-pool layer;
* placement is a pure function of the launch uid — crc32-based, never
  Python's randomized ``hash()`` — so the same apps land on the same
  lanes on every run, including after a lane reboot;
* unassigned pids resolve to lane 0, preserving the legacy error paths
  (an unenrolled task still fails in ``proxy_for`` with the classic
  message, never in the pool).
"""

from __future__ import annotations

from zlib import crc32

from repro.errors import SimulationError


class CVMLane:
    """One container VM plus every piece of lane-held transport state.

    The bundle the tentpole refactor routes through: everything that
    used to be a singleton attribute of ``AnceptionLayer`` (``cvm``,
    ``channel``, ``proxies``, ``page_cache``, write-behind / binder
    windows, learned path->ino bindings, shm shadows) lives here, one
    instance per CVM.  The layer's ``_bind_lane`` helper is the single
    choke point that (re)arms the mutable half — at boot and after a lane-scoped reboot alike.
    """

    __snapshot__ = "auto"

    __slots__ = ("cvm_id", "cvm", "channel", "proxies", "page_cache",
                 "cache_paths", "write_behind", "binder_ring",
                 "shm_shadows", "shm_attach_map")

    def __init__(self, cvm_id):
        self.cvm_id = cvm_id
        self.cvm = None
        self.channel = None
        self.proxies = None
        self.page_cache = None
        self.cache_paths = {}
        """abs path -> CVM ino learned through this lane's opens."""
        self.write_behind = None
        self.binder_ring = None
        self.shm_shadows = {}
        """CVM shmid -> host shadow segment id (split shmat)."""
        self.shm_attach_map = {}
        """(host pid, base) -> CVM shmid for live attachments."""

    @property
    def name(self):
        """Stable human/JSON key for this lane ("cvm", "cvm1", ...)."""
        return "cvm" if self.cvm_id == 0 else f"cvm{self.cvm_id}"

    def __repr__(self):
        state = "unbound"
        if self.cvm is not None:
            state = "crashed" if self.cvm.crashed else "running"
        return f"CVMLane({self.name}, {state})"


def _stable_bucket(uid, buckets):
    """Deterministic hash bucket of a launch uid (never Python hash()).

    crc32 of the salted uid, then a murmur3-style finalizer.  The salt
    string and the finalizer define the pinned lane map: every
    multi-lane digest depends on which app lands where, so neither may
    change.
    """
    h = crc32(f"0:uid:{uid}".encode())
    h = (h ^ (h >> 16)) * 0x85EBCA6B & 0xFFFFFFFF
    h = (h ^ (h >> 13)) * 0xC2B2AE35 & 0xFFFFFFFF
    return (h ^ (h >> 16)) % buckets


class CVMPool:
    """The routed half of the delegation transport: lanes + a pid map.

    The pool never touches the simulated clock — assignment and lookup
    are free — and it never builds lane internals itself (the layer's
    ``_bind_lane`` owns construction, so boot and reboot share one
    re-arm path).
    """

    __snapshot__ = "auto"

    def __init__(self, clock, cvms=1):
        if cvms < 1:
            raise SimulationError(f"a pool needs >= 1 CVM, got {cvms}")
        self.clock = clock
        self.lanes = [CVMLane(cvm_id) for cvm_id in range(cvms)]
        self._lane_by_pid = {}
        self.assignments = 0
        self.flaps = 0
        """Assignments diverted one lane over by ``pool.placement-flap``."""

    # -- lookup --------------------------------------------------------------

    @property
    def default_lane(self):
        return self.lanes[0]

    def lane_for(self, task):
        """The lane owning ``task`` (lane 0 for unassigned pids).

        The fallback keeps legacy error paths intact: an unenrolled
        task resolves to lane 0 and fails there with the classic
        "not enrolled (no proxy)" message, never a pool error.
        """
        return self._lane_by_pid.get(task.pid, self.lanes[0])

    def pids_on(self, lane):
        """Resident pids of one lane, in deterministic order."""
        return sorted(pid for pid, owner in self._lane_by_pid.items()
                      if owner is lane)

    def load_by_lane(self):
        """Resident-pid counts indexed like ``lanes``."""
        loads = [0] * len(self.lanes)
        for lane in self._lane_by_pid.values():
            loads[lane.cvm_id] += 1
        return loads

    # -- assignment ----------------------------------------------------------

    def assign(self, task):
        """Place a newly enrolled task by its launch uid; returns its lane.

        The same uid always lands on the same lane, including after a
        lane reboot.  The ``pool.placement-flap`` fault site diverts an
        assignment one lane over (simulating a racing scheduler
        decision) — only meaningful with >1 lane, so single-CVM chaos
        replays are untouched.
        """
        index = 0
        if len(self.lanes) > 1:
            uid = getattr(task, "launch_uid", None)
            if uid is None:
                uid = task.credentials.uid
            index = _stable_bucket(uid, len(self.lanes))
            engine = self.clock.faults
            if engine is not None and engine.fires("pool.placement-flap",
                                                   task.name):
                index = (index + 1) % len(self.lanes)
                self.flaps += 1
        lane = self.lanes[index]
        self._lane_by_pid[task.pid] = lane
        self.assignments += 1
        return lane

    def adopt(self, task, lane):
        """Pin ``task`` to ``lane`` (fork children join the parent)."""
        self._lane_by_pid[task.pid] = lane
        return lane

    def release(self, pid):
        self._lane_by_pid.pop(pid, None)

    # -- introspection -------------------------------------------------------

    def stats(self):
        return {
            "cvms": len(self.lanes),
            "assignments": self.assignments,
            "flaps": self.flaps,
            "residents": {
                lane.name: len(self.pids_on(lane)) for lane in self.lanes
            },
        }

    def __len__(self):
        return len(self.lanes)

    def __iter__(self):
        return iter(self.lanes)

    def __repr__(self):
        return f"CVMPool({len(self.lanes)} lanes)"
