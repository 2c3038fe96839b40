"""The CVM pool: shard enrolled apps across container VMs.

The paper's architecture anticipates per-app trust domains, but a single
64 MB container is a shared-fate (and shared-vCPU) domain: one crashed
or saturated CVM takes every enrolled app with it.  This module turns
"the CVM" into "a routed transport": a :class:`CVMPool` owns N
:class:`CVMLane` bundles — each a complete delegation stack (container,
channel, ring pair, proxy manager, page cache, write-behind and binder
windows, deferred-errno ledgers) — and a deterministic
:class:`Placement` policy maps every enrolled task to exactly one lane.

Design rules, all load-bearing for the ``cvms=1`` byte-identity pin:

* lane resolution charges **zero simulated time** — routing is host
  bookkeeping, not a delegation cost;
* lane 0 keeps the classic ``"cvm"`` clock-lane name and guest kernel
  label, so every event, span, and error message a single-CVM world
  emits is byte-identical to the pre-pool layer;
* placement is a pure function of ``(policy, seed, uid stream)`` —
  crc32-based, never Python's randomized ``hash()`` — so the same apps
  land on the same lanes on every run, including after a lane reboot;
* unassigned pids resolve to lane 0, preserving the legacy error paths
  (an unenrolled task still fails in ``proxy_for`` with the classic
  message, never in the pool).
"""

from __future__ import annotations

from zlib import crc32

from repro.errors import SimulationError
from repro.faults.engine import maybe_engine


class CVMLane:
    """One container VM plus every piece of lane-held transport state.

    The bundle the tentpole refactor routes through: everything that
    used to be a singleton attribute of ``AnceptionLayer`` (``cvm``,
    ``channel``, ``proxies``, ``page_cache``, write-behind / binder
    windows, in-flight descriptors, learned path->ino bindings, shm
    shadows) lives here, one instance per CVM.  The layer's
    ``_bind_lane`` helper is the single choke point that (re)arms the
    mutable half — at boot and after a lane-scoped reboot alike.
    """

    __snapshot__ = "auto"

    __slots__ = ("cvm_id", "cvm", "channel", "proxies", "page_cache",
                 "cache_paths", "inflight", "write_behind", "binder_ring",
                 "shm_shadows", "shm_attach_map")

    def __init__(self, cvm_id):
        self.cvm_id = cvm_id
        self.cvm = None
        self.channel = None
        self.proxies = None
        self.page_cache = None
        self.cache_paths = {}
        """abs path -> CVM ino learned through this lane's opens."""
        self.inflight = []
        """Submitted-but-unflushed PendingCall descriptors on this
        lane's submit ring."""
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


def _stable_bucket(seed, key, buckets):
    """Deterministic, seed-stable hash bucket (never Python hash()).

    crc32 alone is linear over GF(2): for equal-length keys, bumping
    the seed prefix XORs every hash by the *same* delta, so adjacent
    seeds could produce identical bucket maps.  The murmur3-style
    finalizer below restores avalanche while staying a pure function
    of ``(seed, key)``.
    """
    h = crc32(f"{seed}:{key}".encode())
    h = (h ^ (h >> 16)) * 0x85EBCA6B & 0xFFFFFFFF
    h = (h ^ (h >> 13)) * 0xC2B2AE35 & 0xFFFFFFFF
    return (h ^ (h >> 16)) % buckets


class Placement:
    """Deterministic task -> lane scheduler for the pool.

    Policies (all pure functions of the enrollment stream, so a fixed
    ``(apps, seed)`` pair reproduces the same lane map on every run):

    * ``by-uid`` (default) — crc32 of the launch uid, salted with the
      seed.  The same app always lands on the same lane; colocation is
      uniform-random across seeds.
    * ``by-trust-class`` — system-range uids (appId < 10000) pin to
      lane 0 (the most-trusted domain, colocated with the legacy
      default); app uids shard by assurance band (appId // 1000), so
      apps in the same band share a fate domain.
    * ``by-load`` — least-loaded lane at enrollment time (fewest
      resident pids, lowest ``cvm_id`` tie-break).  Deterministic
      because enrollment order is deterministic.
    """

    __snapshot__ = "auto"

    POLICIES = ("by-uid", "by-trust-class", "by-load")

    def __init__(self, policy="by-uid", seed=0):
        if policy not in self.POLICIES:
            known = ", ".join(self.POLICIES)
            raise SimulationError(
                f"unknown placement policy {policy!r} (known: {known})"
            )
        self.policy = policy
        self.seed = seed

    @classmethod
    def parse(cls, value, seed=0):
        """Coerce ``None`` / a policy string / a Placement instance."""
        if value is None:
            return cls(seed=seed)
        if isinstance(value, cls):
            return value
        return cls(str(value), seed=seed)

    @staticmethod
    def _uid(task):
        uid = getattr(task, "launch_uid", None)
        if uid is None:
            uid = task.credentials.uid
        return uid

    def lane_index(self, pool, task):
        """The lane this task enrolls on (an index into pool.lanes)."""
        buckets = len(pool.lanes)
        if buckets == 1:
            return 0
        uid = self._uid(task)
        if self.policy == "by-uid":
            return _stable_bucket(self.seed, f"uid:{uid}", buckets)
        if self.policy == "by-trust-class":
            app_id = uid % 100_000
            if app_id < 10_000:
                return 0
            band = app_id // 1000
            return _stable_bucket(self.seed, f"class:{band}", buckets)
        # by-load: fewest resident pids, lowest cvm_id wins ties
        loads = pool.load_by_lane()
        return min(range(buckets), key=lambda index: (loads[index], index))

    def describe(self):
        return {"policy": self.policy, "seed": self.seed}

    def __repr__(self):
        return f"Placement({self.policy!r}, seed={self.seed})"


class CVMPool:
    """The routed half of the delegation transport: lanes + a pid map.

    The pool never touches the simulated clock — assignment and lookup
    are free — and it never builds lane internals itself (the layer's
    ``_bind_lane`` owns construction, so boot and reboot share one
    re-arm path).
    """

    __snapshot__ = "auto"

    def __init__(self, clock, cvms=1, placement=None, seed=0):
        if cvms < 1:
            raise SimulationError(f"a pool needs >= 1 CVM, got {cvms}")
        self.clock = clock
        self.lanes = [CVMLane(cvm_id) for cvm_id in range(cvms)]
        self.placement = Placement.parse(placement, seed=seed)
        self._lane_by_pid = {}
        self.assignments = 0
        self.flaps = 0
        """Assignments diverted one lane over by ``pool.placement-flap``."""
        self.migrations = 0
        """Apps warm-moved between lanes by ``AnceptionLayer.migrate``."""
        self.layer = None
        """Backref to the owning :class:`AnceptionLayer`; set at boot so
        pool-level entry points (``migrate``) can drive the protocol."""

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

    def lane_by_id(self, cvm_id):
        for lane in self.lanes:
            if lane.cvm_id == cvm_id:
                return lane
        raise SimulationError(f"no CVM lane with id {cvm_id}")

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
        """Place a newly enrolled task; returns its lane.

        The ``pool.placement-flap`` fault site diverts an assignment
        one lane over (simulating a racing scheduler decision) — only
        meaningful with >1 lane, so single-CVM chaos replays are
        untouched.
        """
        index = self.placement.lane_index(self, task)
        if len(self.lanes) > 1:
            engine = maybe_engine(self.clock)
            if engine is not None and engine.pool_placement_flap(
                    call=task.name):
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

    def record_migration(self, pid, lane):
        """Re-home a pid (the warm-migration commit point)."""
        self._lane_by_pid[pid] = lane
        self.migrations += 1

    def migrate(self, pid, lane):
        """Warm-move a resident pid's app to ``lane``; returns commit.

        The pool-level entry to :meth:`AnceptionLayer.migrate`: the
        app's full per-lane slice (open remote fds, private data tree,
        still-pending write-behind windows, deferred-errno ledgers,
        cached pages) travels with it.
        """
        if self.layer is None:
            raise SimulationError("pool has no delegation layer attached")
        task = self.layer.host_kernel.pids.get(pid)
        if task is None:
            raise SimulationError(f"no task with pid {pid}")
        if not isinstance(lane, CVMLane):
            lane = self.lane_by_id(int(lane))
        return self.layer.migrate(task, lane)

    def release(self, pid):
        self._lane_by_pid.pop(pid, None)

    # -- introspection -------------------------------------------------------

    def stats(self):
        return {
            "cvms": len(self.lanes),
            "placement": self.placement.describe(),
            "assignments": self.assignments,
            "flaps": self.flaps,
            "migrations": self.migrations,
            "residents": {
                lane.name: len(self.pids_on(lane)) for lane in self.lanes
            },
        }

    def __len__(self):
        return len(self.lanes)

    def __iter__(self):
        return iter(self.lanes)

    def __repr__(self):
        return (f"CVMPool({len(self.lanes)} lanes, "
                f"{self.placement.policy})")
