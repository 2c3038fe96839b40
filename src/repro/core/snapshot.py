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

* two snapshots of the same world are byte-identical, in one process
  or two, whatever ``PYTHONHASHSEED`` is (pickle traversal order is a
  pure function of the object graph, and the audit refuses any set
  whose order is not);
* two restores of the same blob produce behaviorally identical worlds,
  and re-snapshotting either produces the same bytes as the other;
* restore of a corrupted or truncated blob raises
  :class:`~repro.errors.SnapshotError` and never a partial world.

Conformance is enforced *at serialization time*, not only in tests:
every repro-package component reachable from the world must either
declare a ``__snapshot__`` audit marker (``"auto"`` — default pickling
is complete and deterministic; ``"custom"`` — the class implements
``__reduce__`` or ``__getstate__``/``__setstate__``) or carry a
documented exemption in :data:`SNAPSHOT_EXEMPT`.  An unaudited class
fails the snapshot with the missing names, mirroring the
syscall-conformance suite's to-do-list-style failures.
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
SNAPSHOT_VERSION = 22
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


def _value_hashed(member):
    """Whether ``member`` hashes alike in every process: numbers and
    tuples or frozensets of them do; a str, bytes or enum hashes by the
    string hash seed, and any other object by its address."""
    if isinstance(member, (tuple, frozenset)):
        return all(map(_value_hashed, member))
    return isinstance(member, (int, float))


def _walk(root):
    """Yield ``(obj, owner)`` for every repro-package object and every
    set reachable from ``root``, each once; ``owner`` is the ``(class,
    attribute)`` that holds it, directly or through containers.

    The traversal follows instance attributes (``__dict__`` and
    ``__slots__``) and the standard containers; it stops at non-repro
    leaves (ints, bytes, stdlib objects) except to look inside
    containers.
    """
    seen = set()
    stack = [(root, None)]
    while stack:
        obj, owner = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend((item, owner) for item in (*obj, *obj.values()))
            continue
        if isinstance(obj, _CONTAINERS):
            if isinstance(obj, (set, frozenset)):
                yield obj, owner
            stack.extend((item, owner) for item in obj)
            continue
        cls = type(obj)
        module = getattr(cls, "__module__", "") or ""
        if not (module == "repro" or module.startswith("repro.")):
            continue
        yield obj, owner
        state = getattr(obj, "__dict__", None)
        if state:
            stack.extend(((value, (cls, attr))
                          for attr, value in state.items()))
        for name in _slot_names(cls):
            try:
                stack.append((getattr(obj, name), (cls, name)))
            except AttributeError:
                continue


def walk_components(root):
    """Yield every repro-package object reachable from ``root``, once."""
    return (obj for obj, _owner in _walk(root)
            if not isinstance(obj, (set, frozenset)))


def audit_components(root):
    """Conformance gate: every reachable component must be audited.

    Returns the component manifest, a sorted ``{qualified class name:
    instance count}``, on success; raises :class:`SnapshotError`
    listing every unaudited class, or else every attribute holding a
    set that would pickle in a per-process order — the same
    fail-with-a-to-do-list shape the syscall conformance suite uses.
    """
    counts = {}
    missing = set()
    seeded = set()
    for obj, owner in _walk(root):
        if isinstance(obj, (set, frozenset)):
            if not all(map(_value_hashed, obj)):
                seeded.add(f"{owner[0].__module__}."
                           f"{owner[0].__qualname__}.{owner[1]}")
            continue
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
    if seeded:
        raise SnapshotError(
            "sets whose members hash by string seed or address pickle "
            "in a per-process order (hold them in a dict): "
            + ", ".join(sorted(seeded))
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

