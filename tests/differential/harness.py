"""Differential harness: the same op script, native vs redirected.

The correctness claim under test is Section III's transparency property:
an enrolled app observes the same results, the same errnos, and the same
final filesystem state as it would have natively — only timing differs.

A *script* is a list of ``(libc_method, arg, ...)`` steps.  Arguments
may be symbolic: :class:`P` resolves against the app's data directory,
:class:`H` replays a handle (fd, shmid, address) returned by an earlier
step, and :data:`SELF` is the app's own pid.  A script may end with a
terminal ``exit`` or ``kill`` step, which ends the app's process with
its descriptors still open: the final tree then shows what the exit
path made durable.  Outcomes are normalized — handles become ``h<n>``
tokens, stat results drop world-specific inode numbers — so two
worlds' outcome streams compare with ``==``.

Step names that are not :class:`~repro.kernel.libc.Libc` methods fall
back to the app context itself, which is how the binder catalogue's
``call_service``/``call_service_oneway``/``export_service``/``call_app``
scripts run through the same grammar.  A ``("syscall", name, ...)``
step reaches a call with no veneer (``dup2``, ``clone``, ...), and
:data:`HARNESS_OPS` steps read app state directly (``peek``).  Every
step's raw result is a handle later steps may name with :class:`H`.
"""

from __future__ import annotations

import errno as errno_mod
import functools

from repro.errors import SyscallError
from repro.kernel.process import Credentials
from repro.kernel.vfs import InodeKind


class P:
    """A path relative to the app's data directory."""

    def __init__(self, rel):
        self.rel = rel


class H:
    """The handle produced by step ``step`` (fd, shmid, shmat address)."""

    def __init__(self, step, slot=0):
        self.step = step
        self.slot = slot


SELF = object()
"""The running app's own pid (``("kill", SELF, 9)``)."""

_HANDLE_RETURNING = {"open", "socket", "shmget", "shmat", "dup", "mmap",
                     "clone", "fork"}


def _peek(ctx, addr, length):
    """Harness op: ``length`` bytes at ``addr`` in the app's memory."""
    return bytes(ctx.libc.task.address_space.read(addr, length, need_prot=0))


HARNESS_OPS = {"peek": _peek}
"""Steps the harness runs itself: reads of app state no syscall returns
(what a file-backed mapping holds)."""

TERMINAL_STEPS = frozenset({"exit", "kill"})
"""Steps that end the app's process; only the last step may be one."""


def run_script(ctx, script, start=0, stop=None, handles=None,
               outcomes=None):
    """Execute ``script`` through ``ctx.libc``; return normalized outcomes.

    ``start``/``stop`` bound the executed slice while keeping step
    numbering absolute, and ``handles``/``outcomes`` carry state across
    calls — together they let a caller split one script across a
    snapshot/restore boundary: run ``[0, split)`` on the original
    world, restore, then run ``[split, end)`` on the restored context
    with the same handle table (handles are plain kernel-assigned
    integers, so they stay valid across the boundary).
    """
    handles = {} if handles is None else handles
    outcomes = [] if outcomes is None else outcomes
    end = len(script) if stop is None else stop
    for step, op in enumerate(script[start:end], start):
        name, args = op[0], op[1:]
        if name in TERMINAL_STEPS and step != len(script) - 1:
            raise ValueError(f"step {step}: {name!r} must be the last step")
        real_args = []
        for arg in args:
            if isinstance(arg, P):
                real_args.append(ctx.data_path(arg.rel))
            elif isinstance(arg, H):
                real_args.append(handles[(arg.step, arg.slot)])
            elif arg is SELF:
                real_args.append(ctx.libc.task.pid)
            else:
                real_args.append(arg)
        if name in HARNESS_OPS:
            call = functools.partial(HARNESS_OPS[name], ctx)
        elif callable(getattr(ctx.libc, name, None)):
            call = getattr(ctx.libc, name)
        else:
            call = getattr(ctx, name)
        # A raw ``("syscall", call, ...)`` step reaches a call with no
        # libc veneer; its result normalizes as that call's.
        kind = real_args[0] if name == "syscall" else name
        try:
            result = call(*real_args)
        except SyscallError as exc:
            code = errno_mod.errorcode.get(exc.errno, str(exc.errno))
            outcomes.append((step, kind, "errno", code))
            continue
        outcomes.append(
            (step, kind, "ok", _normalize(kind, result, step, handles))
        )
        handles.setdefault((step, 0), result)
    return outcomes


def _normalize(name, result, step, handles):
    if name in _HANDLE_RETURNING:
        handles[(step, 0)] = result
        return f"h{step}.0"
    if name == "pipe":
        for slot, value in enumerate(result):
            handles[(step, slot)] = value
        return tuple(f"h{step}.{slot}" for slot in range(len(result)))
    if name in ("stat", "lstat", "fstat"):
        # st_ino is a world-global allocation counter; everything else
        # must agree
        return {
            "mode": result.st_mode,
            "uid": result.st_uid,
            "gid": result.st_gid,
            "size": result.st_size,
            "nlink": result.st_nlink,
        }
    if name == "listdir":
        return sorted(result)
    if name == "execve":
        # the loaded image's name; its base address is world-specific
        return result.metadata["name"]
    if name == "readv":
        # iovec reads come back as a list of buffers; freeze it so the
        # outcome tuple hashes/compares like every other step.
        return tuple(bytes(chunk) for chunk in result)
    return result


_ROOT = Credentials(0)


def vfs_tree(kernel, root_path):
    """Flatten a VFS subtree into {relpath: (kind, mode, payload)}.

    ``payload`` is file content for files, the sorted child list for
    directories — the observable final state, minus inode numbers.
    """
    tree = {}

    def visit(path, rel):
        inode = kernel.vfs.resolve(path, _ROOT)
        if inode.kind is InodeKind.DIRECTORY:
            names = sorted(kernel.vfs.listdir(path, _ROOT))
            tree[rel] = ("dir", inode.mode, tuple(names))
            for name in names:
                visit(f"{path}/{name}", f"{rel}/{name}" if rel else name)
        elif inode.kind is InodeKind.FILE:
            data = bytes(inode.data) if inode.data is not None else b""
            tree[rel] = ("file", inode.mode, data)
        else:
            tree[rel] = (inode.kind.value, inode.mode, None)

    visit(root_path, "")
    return tree


def data_kernel(world):
    """The kernel holding the app's (possibly delegated) file state."""
    anception = getattr(world, "anception", None)
    if anception is not None and not anception.policy.file_io_on_host:
        return anception.cvm.kernel
    return world.kernel


class SnapshotResume:
    """A ``run_modes`` world spec that splits the script over a restore.

    The harness runs ``script[:split]`` on ``world``, snapshots it,
    restores the blob into a brand-new world object, and finishes
    ``script[split:]`` there — one more "mode" whose outcome stream and
    final tree must equal every other's.  This is the restore≡boot pin:
    a snapshot boundary dropped at an arbitrary point mid-script must be
    invisible to the app.  ``split=None`` halves the script.
    """

    def __init__(self, world, split=None):
        self.world = world
        self.split = split


def _run_snapshot_resume(spec, script, app_factory):
    """One mode's ``(outcomes, tree)`` with a mid-script restore."""
    from repro.world import _World

    world = spec.world
    running = world.install_and_launch(app_factory())
    running.run()
    ctx = running.ctx
    split = len(script) // 2 if spec.split is None else spec.split
    handles = {}
    outcomes = []
    run_script(ctx, script, stop=split, handles=handles,
               outcomes=outcomes)
    restored = _World.restore(world.snapshot())
    rctx = restored.zygote.launched[-1].ctx
    run_script(rctx, script, start=split, handles=handles,
               outcomes=outcomes)
    anception = getattr(restored, "anception", None)
    if anception is not None:
        anception.async_fence(rctx.libc.task)
    tree = vfs_tree(data_kernel(restored), rctx.data_dir)
    return outcomes, tree


def run_modes(worlds, script, app_factory):
    """Run ``script`` in every world of ``worlds``; return all halves.

    ``worlds`` maps label -> world (e.g. native / anception /
    write-behind / a :class:`SnapshotResume` spec); the result maps the
    same labels to ``(outcomes, final_tree)`` for the same app package.
    Scripts that end with buffered write-behind state still compare
    equal: the final step of every script should fence or close its
    descriptors, or end the process with a terminal ``exit``/``kill``,
    and the tree walk reads the delegated kernel *after* the stream
    returned.
    """
    halves = {}
    for label, world in worlds.items():
        if isinstance(world, SnapshotResume):
            halves[label] = _run_snapshot_resume(world, script,
                                                 app_factory)
            continue
        running = world.install_and_launch(app_factory())
        running.run()
        ctx = running.ctx
        outcomes = run_script(ctx, script)
        anception = getattr(world, "anception", None)
        if anception is not None:
            # Process exit closes descriptors, which drains any staged
            # write-behind AND batched-binder windows; the tree walk
            # sees settled state (a no-op when both are off).
            anception.async_fence(ctx.libc.task)
        tree = vfs_tree(data_kernel(world), ctx.data_dir)
        halves[label] = (outcomes, tree)
    return halves


def run_differential(both_worlds, script, app_factory):
    """Run ``script`` in both worlds; return (native, redirected) halves.

    Each half is ``(outcomes, final_tree)`` for the same app package.
    """
    halves = run_modes(
        {label: both_worlds[label] for label in ("native", "anception")},
        script, app_factory,
    )
    return halves["native"], halves["anception"]
