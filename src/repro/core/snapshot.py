"""Deterministic world snapshot/restore: the warm-start substrate.

Every soak scenario, chaos campaign, and benchmark sweep used to pay a
full world boot per run.  This module serializes the *whole* simulated
world — kernel (tasks, fd tables, VFS, SysV shm), SimClock lanes and
overlap cursors, hypervisor and channel state, and each CVM lane's full
delegation bundle (ring pairs with in-flight descriptors serialized as
staged, page cache, write-behind and binder windows with their
deferred-errno ledgers, proxies, placement map) — into a versioned blob
that restores byte-identically: snapshot → restore → run produces the
same trace digests, stats, and VFS tree as a never-snapshotted run,
including mid-chaos-plan snapshots that resume with the fault engine's
trigger cursor and PRNG state intact.

Format (``DESIGN.md`` §14)::

    +----------+---------+-------+-------------+----------------+---------+
    | magic 8B | ver u16 | flags | len u64     | sha256 32B     | payload |
    | ANCSNAP1 |         | u16   | of payload  | of payload     | zlib    |
    +----------+---------+-------+-------------+----------------+---------+

The payload is a zlib-compressed pickle of a *section table* — named
roots (``clock``, ``machine``, ``pool``, ``anception``, ``world``, …)
plus a component manifest — serialized in **one** pickle so every shared
object keeps its identity across the section boundaries (a task
referenced by the kernel, a proxy, and an fd table is one object before
and after restore; serializing sections separately would fork it).

Determinism contract:

* two snapshots of the same world object are byte-identical (pickle
  traversal order is a pure function of the object graph);
* two restores of the same blob produce behaviorally identical worlds,
  and re-snapshotting either produces the same bytes as the other;
* restore of a corrupted or truncated blob raises
  :class:`~repro.errors.SnapshotError` and never a partial world.

Conformance is enforced *at serialization time*, not only in tests:
every repro-package component reachable from the world must either
declare a ``__snapshot__`` audit marker (``"auto"`` — default pickling
is complete and deterministic; ``"custom"`` — the class implements
``__getstate__``/``__setstate__`` or ``snapshot_state``/
``restore_state``) or carry a documented exemption in
:data:`SNAPSHOT_EXEMPT`.  An unaudited class fails the snapshot with
the missing names, mirroring the syscall-conformance suite's
to-do-list-style failures.

The same machinery serves warm migration: :func:`app_slice` serializes
one enrolled app's lane-held delegation state (open remote fds, cached
pages, pending write-behind windows, deferred-errno ledgers, private
data tree) and :func:`apply_app_slice` re-materializes it on another
lane — the pool's ``migrate`` path.
"""

from __future__ import annotations

import enum
import hashlib
import io
import pickle
import pickletools
import struct
import zlib
from collections import OrderedDict, deque

from repro.errors import SnapshotError


SNAPSHOT_MAGIC = b"ANCSNAP1"
SNAPSHOT_VERSION = 14
_HEADER = struct.Struct("<8sHHQ32s")
_PICKLE_PROTOCOL = 4
"""Pinned pickle protocol: the blob format is versioned, so the
serialization substrate must not drift with the interpreter default."""

SNAPSHOT_EXEMPT = {
    # name -> why this component is legitimately outside the audit.
    "repro.events.COMPROMISE_EVENTS": (
        "process-global simulation bookkeeping shared by every world in "
        "the process; deliberately outside the snapshot boundary"
    ),
}


# ---------------------------------------------------------------------------
# component walk + conformance audit
# ---------------------------------------------------------------------------

_CONTAINERS = (list, tuple, set, frozenset, deque)


def _slot_names(cls):
    names = []
    for klass in type.mro(cls):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return names


def walk_components(root):
    """Yield every repro-package object reachable from ``root``.

    The traversal follows instance attributes (``__dict__`` and
    ``__slots__``) and the standard containers; it stops at non-repro
    leaves (ints, bytes, stdlib objects) except to look inside
    containers.  Each object is yielded exactly once.
    """
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, _CONTAINERS):
            stack.extend(obj)
            continue
        cls = type(obj)
        module = getattr(cls, "__module__", "") or ""
        if not (module == "repro" or module.startswith("repro.")):
            continue
        yield obj
        state = getattr(obj, "__dict__", None)
        if state:
            stack.extend(state.values())
        for name in _slot_names(cls):
            try:
                stack.append(getattr(obj, name))
            except AttributeError:
                continue


def component_manifest(root):
    """Sorted {qualified class name: instance count} for the reachable set."""
    counts = {}
    for obj in walk_components(root):
        cls = type(obj)
        name = f"{cls.__module__}.{cls.__qualname__}"
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def audit_components(root):
    """Conformance gate: every reachable component must be audited.

    Returns the component manifest on success; raises
    :class:`SnapshotError` listing every unaudited class otherwise —
    the same fail-with-a-to-do-list shape the syscall conformance
    suite uses.
    """
    counts = {}
    missing = set()
    for obj in walk_components(root):
        cls = type(obj)
        name = f"{cls.__module__}.{cls.__qualname__}"
        counts[name] = counts.get(name, 0) + 1
        if isinstance(obj, enum.Enum):
            continue  # enums pickle by name: deterministic by construction
        if getattr(cls, "__snapshot__", None) in ("auto", "custom"):
            continue
        if name in SNAPSHOT_EXEMPT:
            continue
        missing.add(name)
    if missing:
        raise SnapshotError(
            "components reachable from the world lack snapshot audit "
            "markers (__snapshot__ = 'auto'|'custom') and are not in "
            "SNAPSHOT_EXEMPT: " + ", ".join(sorted(missing))
        )
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# whole-world snapshot / restore
# ---------------------------------------------------------------------------

def _sections(world):
    """The named roots of the snapshot payload.

    One pickle serializes the whole table, so the sections are views
    into a single shared object graph — ``sections["clock"]`` and
    ``sections["world"].clock`` are the same object after restore.
    """
    anception = getattr(world, "anception", None)
    sections = OrderedDict()
    sections["clock"] = world.clock
    sections["machine"] = world.machine
    sections["system"] = world.system
    sections["anception"] = anception
    sections["pool"] = None if anception is None else anception.pool
    sections["faults"] = getattr(world.clock, "faults", None)
    sections["world"] = world
    return sections


def snapshot_world(world, meta=None):
    """Serialize ``world`` into a self-contained versioned blob.

    ``meta`` is an optional JSON-like dict stored alongside the
    sections (the CLI records the workload name and knob set there so
    ``anception resume`` can re-run and verify without being told).
    """
    manifest = audit_components(world)
    table = {
        "format": SNAPSHOT_VERSION,
        "manifest": manifest,
        "meta": dict(meta or {}),
        "sections": _sections(world),
    }
    try:
        raw = pickle.dumps(table, protocol=_PICKLE_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"world is not serializable: {exc!r}"
        ) from exc
    payload = zlib.compress(raw, 6)
    digest = hashlib.sha256(payload).digest()
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0,
                          len(payload), digest)
    return header + payload


def describe_snapshot(blob):
    """Parse and verify a blob's header without restoring it.

    Returns ``{"version", "payload_bytes", "digest"}``; raises
    :class:`SnapshotError` on malformed input.
    """
    if len(blob) < _HEADER.size:
        raise SnapshotError(
            f"snapshot too short for a header "
            f"({len(blob)} < {_HEADER.size} bytes)"
        )
    magic, version, _flags, length, digest = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot truncated: header claims {length} payload bytes, "
            f"{len(payload)} present"
        )
    actual = hashlib.sha256(payload).digest()
    if actual != digest:
        raise SnapshotError(
            "snapshot payload failed its content digest "
            f"(expected {digest.hex()[:16]}…, got {actual.hex()[:16]}…)"
        )
    return {
        "version": version,
        "payload_bytes": length,
        "digest": digest.hex(),
    }


def snapshot_digest(blob):
    """The content digest recorded in a blob's header (hex)."""
    return describe_snapshot(blob)["digest"]


#: Extra module prefixes the restore path will resolve globals from.
#: Worlds only ever hold repro.* objects plus stdlib scaffolding, but an
#: embedder's app classes live in its own package — register that
#: package here (e.g. ``allow_app_modules("tests.")`` in a conftest)
#: before restoring snapshots of worlds that launched such apps.
_EXTRA_PREFIXES = []


def allow_app_modules(*prefixes):
    """Permit ``prefixes`` (e.g. ``"myapp."``) during restore."""
    for prefix in prefixes:
        if prefix not in _EXTRA_PREFIXES:
            _EXTRA_PREFIXES.append(prefix)


class _RestrictedUnpickler(pickle.Unpickler):
    """Refuse globals outside the packages a world can legitimately hold.

    A snapshot is trusted input in this codebase's threat model (it is
    produced by the same process or CI step that consumes it), but the
    allowlist keeps a corrupted-yet-digest-valid blob from reaching
    arbitrary constructors and turns such corruption into a clean
    :class:`SnapshotError`.
    """

    _ALLOWED_PREFIXES = ("repro.", "collections", "builtins", "random",
                         "errno", "enum", "copyreg", "__builtin__")

    def find_class(self, module, name):
        if module == "repro" or any(
                module == prefix.rstrip(".") or module.startswith(prefix)
                for prefix in (*self._ALLOWED_PREFIXES,
                               *_EXTRA_PREFIXES)):
            return super().find_class(module, name)
        raise SnapshotError(
            f"snapshot references disallowed global {module}.{name}"
        )


def _load_table(blob):
    """Decompress and unpickle a verified blob's section table."""
    describe_snapshot(blob)  # magic / version / length / digest
    payload = blob[_HEADER.size:]
    try:
        raw = zlib.decompress(payload)
        table = _RestrictedUnpickler(io.BytesIO(raw)).load()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(
            f"snapshot payload failed to deserialize: {exc!r}"
        ) from exc
    if not isinstance(table, dict) or "sections" not in table:
        raise SnapshotError("snapshot payload has no section table")
    return table


def restore_world(blob):
    """Reconstruct a world from a blob; all-or-nothing.

    Raises :class:`SnapshotError` for malformed, truncated, corrupted,
    or version-mismatched blobs — never returns a partial world.
    """
    table = _load_table(blob)
    sections = table["sections"]
    world = sections.get("world")
    from repro.world import _World

    if not isinstance(world, _World):
        raise SnapshotError(
            f"snapshot world section holds {type(world).__name__!r}, "
            "not a world"
        )
    if world.clock is not sections.get("clock"):
        raise SnapshotError(
            "snapshot sections lost object identity (clock section is "
            "not the world's clock)"
        )
    # The flag is derived state: rederive it from the restored bus
    # state rather than trust the pickled copy.
    world.clock._refresh_dormant()
    return world


def snapshot_manifest(blob):
    """The component manifest recorded inside a blob (restores it)."""
    return _load_table(blob).get("manifest", {})


def snapshot_meta(blob):
    """The caller-provided metadata stored at snapshot time."""
    return _load_table(blob).get("meta", {})


def stable_pickle_digest(obj):
    """sha256 hex of ``obj``'s optimized pickle (a state digest).

    ``pickletools.optimize`` strips unused memo PUTs so equal graphs
    serialize to equal bytes regardless of sharing history differences
    introduced by a restore (interned literals vs unpickled strings).
    """
    raw = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)
    return hashlib.sha256(pickletools.optimize(raw)).hexdigest()


# ---------------------------------------------------------------------------
# behavioral digests (the restore≡boot pins)
# ---------------------------------------------------------------------------

def vfs_digest(kernel, root_path="/"):
    """sha256 hex over one kernel's VFS subtree (content + metadata).

    The walk is sorted-name recursive and excludes inode numbers (a
    world-global allocation counter), matching the differential
    harness's tree normalization.
    """
    from repro.errors import SyscallError
    from repro.kernel.process import Credentials
    from repro.kernel.vfs import InodeKind

    root = Credentials(0)
    h = hashlib.sha256()

    def visit(path, rel):
        try:
            inode = kernel.vfs.resolve(path, root)
        except SyscallError as exc:
            # Dynamic pseudo-entries (/proc/<pid>/exe with no image, a
            # connection that closed) resolve lazily and may legitimately
            # be absent; their errno is part of the observable state.
            h.update(f"E {rel} {exc.errno}\n".encode())
            return
        if inode.kind is InodeKind.DIRECTORY:
            names = sorted(kernel.vfs.listdir(path, root))
            h.update(f"D {rel} {inode.mode:o} {names}\n".encode())
            for name in names:
                visit(f"{path}/{name}" if path != "/" else f"/{name}",
                      f"{rel}/{name}")
        elif inode.kind is InodeKind.FILE:
            data = bytes(inode.data) if inode.data is not None else b""
            h.update(f"F {rel} {inode.mode:o} {len(data)} ".encode())
            h.update(hashlib.sha256(data).digest())
            h.update(b"\n")
        else:
            h.update(f"O {rel} {inode.kind.value} {inode.mode:o}\n".encode())

    visit(root_path, "")
    return h.hexdigest()


def world_digest(world):
    """One behavioral digest of a world: clock + stats + every VFS tree.

    This is the equality the acceptance gate pins: a restored world that
    runs the remaining ops must end with the same digest as the
    never-snapshotted run.
    """
    h = hashlib.sha256()
    h.update(f"clock {world.clock.now_ns}\n".encode())
    h.update(f"host {vfs_digest(world.machine.kernel)}\n".encode())
    anception = getattr(world, "anception", None)
    if anception is not None:
        h.update(repr(anception.stats()).encode())
        for lane in anception.pool.lanes:
            h.update(
                f"\n{lane.name} {vfs_digest(lane.cvm.kernel)}\n".encode()
            )
        h.update(repr(sorted(anception.fd_tables)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# per-app slices (warm migration)
# ---------------------------------------------------------------------------

class AppSliceError(SnapshotError):
    """The app's lane-held state cannot be sliced for migration
    (non-file remote descriptors, live SysV shm attachments)."""


def app_slice(layer, task):
    """Serialize one enrolled app's lane-held delegation state.

    The slice is the per-app cut of the world serializer: everything the
    owning lane holds *for this pid* — remote fd descriptors (path,
    flags, offset), the private ``/data/data`` tree, pending
    write-behind window entries (staged, not drained), both
    deferred-errno ledgers, and the app's cached pages in LRU recency
    order.  Raises :class:`AppSliceError` for apps whose lane state
    cannot be transparently re-materialized elsewhere (non-file remote
    fds, live shm attachments).
    """
    from repro.kernel.vfs import InodeKind

    lane = layer._lane(task)
    pid = task.pid
    table = layer._fd_table(task)
    proxy = lane.proxies.proxy_for(task)

    if any(key[0] == pid for key in lane.shm_attach_map):
        raise AppSliceError(
            f"pid {pid} holds live SysV shm attachments on {lane.name}"
        )
    fds = []
    for host_fd in sorted(table.remote_fds()):
        desc = proxy.guest_task.fd_table.get(table.to_proxy(host_fd))
        inode = getattr(desc, "inode", None)
        if inode is None or inode.kind is not InodeKind.FILE:
            raise AppSliceError(
                f"pid {pid} holds non-file CVM fd {host_fd} on {lane.name}"
            )
        fds.append({
            "host_fd": host_fd,
            "path": desc.path,
            "flags": desc.flags,
            "offset": desc.offset,
        })

    tree = _app_tree(lane, task)

    wb_entries = []
    wb_errors = {}
    if lane.write_behind is not None:
        window = lane.write_behind.windows.get(pid)
        if window is not None:
            wb_entries = [
                {"name": entry.name, "args": entry.args,
                 "result": entry.result}
                for entry in window.entries
            ]
        wb_errors = lane.write_behind.errors_for(pid)
    binder_errors = {}
    if lane.binder_ring is not None:
        binder_errors = lane.binder_ring.errors_for(pid)

    cache = []
    if lane.page_cache is not None:
        prefix = task.cwd.rstrip("/") + "/"
        app_paths = {
            ino: path for path, ino in lane.cache_paths.items()
            if path == task.cwd or path.startswith(prefix)
        }
        for ino, pages, size in lane.page_cache.export_inos(
                sorted(app_paths)):
            cache.append({
                "path": app_paths[ino],
                "size": size,
                "pages": pages,
            })

    return {
        "pid": pid,
        "uid": task.credentials.uid,
        "cwd": task.cwd,
        "source_lane": lane.cvm_id,
        "fds": fds,
        "tree": tree,
        "wb_entries": wb_entries,
        "wb_errors": wb_errors,
        "binder_errors": binder_errors,
        "cache": cache,
    }


def _app_tree(lane, task):
    """Flatten the app's private CVM tree into sorted (rel, kind, …) rows."""
    from repro.kernel.process import Credentials
    from repro.kernel.vfs import InodeKind

    root_creds = Credentials(0)
    kernel = lane.cvm.kernel
    rows = []
    root = task.cwd
    if not kernel.vfs.exists(root, root_creds):
        return rows

    def visit(path, rel):
        inode = kernel.vfs.resolve(path, root_creds,
                                   follow_symlinks=False)
        if inode.kind is InodeKind.DIRECTORY:
            if rel:
                rows.append((rel, "dir", inode.mode, None))
            for name in sorted(kernel.vfs.listdir(path, root_creds)):
                visit(f"{path}/{name}", f"{rel}/{name}" if rel else name)
        elif inode.kind is InodeKind.FILE:
            data = bytes(inode.data) if inode.data is not None else b""
            rows.append((rel, "file", inode.mode, data))

    visit(root, "")
    return rows


def apply_app_slice(layer, task, slice_, target):
    """Re-materialize an app slice on ``target``; returns the new fd map.

    The inverse of :func:`app_slice`: replays the private tree, rebuilds
    the proxy, re-opens every remote fd with its original flags (minus
    O_CREAT|O_TRUNC, so replayed contents survive) and offset,
    re-stages pending write-behind entries against the new proxy fd
    space at zero simulated cost (their staging time was already paid on
    the source), carries both deferred-errno ledgers, and adopts the
    app's cached pages under the target container's inode numbers in
    their original LRU recency order.
    """
    from repro.core.marshal import marshal_call
    from repro.kernel.vfs import O_CREAT, O_TRUNC

    # Private tree first: re-opened fds resolve against it.
    target.cvm.ensure_private_dir(task)
    uid = slice_["uid"]
    kernel = target.cvm.kernel
    root_creds = layer._root
    for rel, kind, mode, data in slice_["tree"]:
        path = f"{slice_['cwd']}/{rel}"
        if kind == "dir":
            if not kernel.vfs.exists(path, root_creds):
                kernel.vfs.mkdir(path, root_creds, mode=mode)
                kernel.vfs.chown(path, uid, uid, root_creds)
        else:
            target.cvm.copy_in_file(path, data, uid, mode=mode)

    target.proxies.create_proxy(task)
    proxy = target.proxies.proxy_for(task)

    from repro.core.anception import FdTranslationTable, RemoteFdStub

    new_table = FdTranslationTable()
    for entry in slice_["fds"]:
        open_file = kernel.vfs.open(
            entry["path"], entry["flags"] & ~(O_CREAT | O_TRUNC),
            proxy.guest_task.credentials,
        )
        open_file.offset = entry["offset"]
        proxy_fd = proxy.guest_task.alloc_fd(open_file)
        stub = task.fd_table.get(entry["host_fd"])
        if isinstance(stub, RemoteFdStub):
            stub.proxy_fd = proxy_fd
        new_table.bind(entry["host_fd"], proxy_fd)
    layer.fd_tables[task.pid] = new_table

    if target.write_behind is not None:
        from repro.core.windows import DeferredEntry

        # A window only for staged entries: an empty one would defeat
        # the write-behind fence's "nothing staged" fast exit.
        window = (target.write_behind.window(task) if slice_["wb_entries"]
                  else None)
        for entry in slice_["wb_entries"]:
            call_args = new_table.translate_args(entry["name"],
                                                 entry["args"])
            wire, _size = marshal_call(entry["name"], call_args, {})
            window.entries.append(DeferredEntry(
                entry["name"], entry["args"], call_args, wire,
                entry["args"][0], entry["result"],
            ))
        for key, exc in slice_["wb_errors"].items():
            target.write_behind.errors.setdefault(key, exc)
    if target.binder_ring is not None:
        for key, exc in slice_["binder_errors"].items():
            target.binder_ring.errors.setdefault(key, exc)

    if target.page_cache is not None:
        for entry in slice_["cache"]:
            ino = kernel.vfs.resolve(entry["path"], root_creds).ino
            target.cache_paths[entry["path"]] = ino
            target.page_cache.import_ino(ino, entry["size"],
                                         entry["pages"])
    return new_table
