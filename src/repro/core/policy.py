"""The redirection logic (Section III-D).

Given one system call from an RE-flagged task, decide where it runs:

* **HOST** — process control, signals, memory management; plus any
  fd-based call whose descriptor is not a CVM resource (the binder fd,
  a /system file, a closed fd); plus opens of read-only code
  (``/system``, ``/data/app``, the task's own ``/proc/self/exe``).
* **REDIRECT** — file, network and IPC calls, opens of everything else
  (app data, devices, procfs), and fd-based calls on CVM resources.
* **SPLIT** — fork/exec/mmap/close/dup and ioctl, which need work on both
  sides; the layer has a dedicated handler for each.
* **BLOCK** — module loading, reboot, ptrace and friends: denied outright.

The static class of each call comes from the syscall catalogue; this
module adds the *dynamic* part (path routing, fd locality, UI-transaction
inspection) that the paper implements in the host kernel module.
"""

from __future__ import annotations

import enum
import errno
import posixpath

from repro.android.binder import Transaction
from repro.errors import SyscallError
from repro.kernel.syscalls import CATALOGUE, SyscallClass


class Decision(enum.Enum):
    HOST = "host"
    REDIRECT = "redirect"
    SPLIT = "split"
    BLOCK = "block"


HOST_PATH_PREFIXES = ("/system",)
CODE_PATH_PREFIXES = ("/data/app",)
HOST_DEVICES = ("/dev/binder",)

FD_CALLS = frozenset({
    "read", "write", "readv", "writev", "pread64", "pwrite64", "lseek",
    "_llseek", "fstat", "fstat64", "fsync", "fdatasync", "ftruncate",
    "ftruncate64", "fallocate", "flock", "fchmod", "fchown", "fchown32",
    "getdents64", "send", "sendto", "recv", "recvfrom", "connect",
    "bind", "listen", "accept", "shutdown", "getsockname", "getpeername",
    "setsockopt", "getsockopt",
})
"""Redirect-class calls whose first argument is a descriptor.  The one
list both fd decisions read: the call runs where that descriptor lives
(a host or closed fd stays on the host), and a redirected call has it
rewritten into the proxy's fd space
(:meth:`~repro.core.marshal.FdTranslationTable.translate_args`)."""

FD_PAIR_CALLS = frozenset({"sendfile"})
"""Calls taking two leading descriptors, routed by both."""

PATH_CALLS = frozenset({
    "open", "openat", "creat", "stat", "stat64", "lstat", "lstat64",
    "access", "readlink", "getdents", "truncate",
})
"""Calls routed by their path argument: code and ``/dev/binder`` stay on
the host, everything else is redirected."""


FILE_IO_CALLS = frozenset({
    "open", "read", "write", "pread64", "pwrite64", "lseek", "fstat",
    "fsync", "stat", "lstat", "access", "readlink", "mkdir", "rmdir",
    "unlink", "rename", "symlink", "chmod", "chown", "getdents",
})
"""Calls the ``file_io_on_host`` ablation keeps on the host (Section
VI-B: "If I/O latency were to matter in some context, one could choose
to keep filesystem I/O on the host side (while still keeping rest of the
code in the CVM deprivileged)")."""


BY_PATH = "by-path"
"""Route refinement: decided by the call's path argument."""
BY_FD = "by-fd"
"""Route refinement: decided by the locality of the call's fd argument."""
BY_FD_PAIR = "by-fd-pair"
"""Route refinement: decided by the locality of both fd arguments."""


def _route(name, file_io_on_host):
    """One call's table entry, from its static class and the ablation."""
    klass = CATALOGUE.get(name, SyscallClass.REDIRECT)
    if klass is SyscallClass.BLOCKED:
        return Decision.BLOCK
    if klass is SyscallClass.HOST:
        return Decision.HOST
    if file_io_on_host and name in FILE_IO_CALLS:
        # The latency-over-deprivileging ablation: storage stays on
        # the host, everything else still moves to the CVM.
        return Decision.HOST
    if klass is SyscallClass.SPLIT:
        return Decision.SPLIT
    # REDIRECT (and the reserved slot): refine by path or fd locality.
    if name in PATH_CALLS:
        return BY_PATH
    if name in FD_CALLS:
        return BY_FD
    if name in FD_PAIR_CALLS:
        return BY_FD_PAIR
    return Decision.REDIRECT


def _build_routes(file_io_on_host):
    return {name: _route(name, file_io_on_host) for name in CATALOGUE}


ROUTES = _build_routes(False)
"""The alternate syscall table: call name -> :class:`Decision`, or the
refinement (:data:`BY_PATH`, :data:`BY_FD`, :data:`BY_FD_PAIR`) that
still reads the call's arguments.  Names absent from it are redirected
(the fail-safe)."""
ROUTES_FILE_IO_ON_HOST = _build_routes(True)
"""The same table under the ``file_io_on_host`` ablation."""

_HOST, _REDIRECT = Decision.HOST, Decision.REDIRECT
"""Enum member lookups are attribute-descriptor calls; :meth:`decide`
reads these plain globals instead."""


def _route_fd_pair(task, name, args, remote_fds):
    """Route a two-fd call: both on the host, or both in the CVM.

    One kernel cannot serve a pair split across the two: that call
    fails with EXDEV, naming both fds, and a closed fd in the pair
    fails with EBADF as it would natively.  Too few arguments take the
    fail-safe, as a bare fd call's do.
    """
    if len(args) < 2:
        return _REDIRECT
    out_fd, in_fd = args[0], args[1]
    out_remote = out_fd in remote_fds
    if out_remote == (in_fd in remote_fds):
        return _REDIRECT if out_remote else _HOST
    host_fd = in_fd if out_remote else out_fd
    if host_fd not in task.fd_table:
        raise SyscallError(errno.EBADF, f"fd {host_fd}", call=name)
    raise SyscallError(
        errno.EXDEV,
        f"fd {out_fd} and fd {in_fd} live in different kernels",
        call=name,
    )


class RedirectionPolicy:
    """Stateless decisions + the helpers the layer's handlers use."""

    __snapshot__ = "auto"

    def __init__(self, ui_service_names, file_io_on_host=False):
        # A dict, not a frozenset: it pickles alike in every process.
        self.ui_service_names = dict.fromkeys(sorted(ui_service_names))
        self.file_io_on_host = file_io_on_host

    # -- top-level decision ---------------------------------------------------

    def decide(self, task, name, args, remote_fds):
        """Classify one call.  ``remote_fds`` holds the task's remote
        host fds (anything supporting ``in``)."""
        route = (ROUTES_FILE_IO_ON_HOST if self.file_io_on_host
                 else ROUTES).get(name, _REDIRECT)
        if route is BY_PATH:
            return self._route_open(task, args[0] if args else "")
        if route is BY_FD:
            return _HOST if args and args[0] not in remote_fds else _REDIRECT
        if route is BY_FD_PAIR:
            return _route_fd_pair(task, name, args, remote_fds)
        return route

    # -- path routing --------------------------------------------------------------

    def _normalise(self, task, path):
        if not path.startswith("/"):
            path = posixpath.join(task.cwd, path)
        return posixpath.normpath(path)

    def is_code_path(self, task, path):
        """Read-only code the host must serve (and protect)."""
        path = self._normalise(task, path)
        if any(path.startswith(p) for p in HOST_PATH_PREFIXES):
            return True
        if any(path.startswith(p) for p in CODE_PATH_PREFIXES):
            return True
        if path in (f"/proc/self/exe", f"/proc/{task.pid}/exe"):
            return True
        return False

    def _route_open(self, task, path):
        if not isinstance(path, str):
            # Garbage argument: apply the fail-safe (service it in the
            # CVM, where the proxy's kernel will fault it normally).
            return Decision.REDIRECT
        path = self._normalise(task, path)
        if self.is_code_path(task, path):
            return Decision.HOST
        if path in HOST_DEVICES:
            return Decision.HOST
        return Decision.REDIRECT

    # -- ioctl inspection (UI test: binder.is_ui_transaction) -------------------

    def binder_target_is_app(self, arg):
        """App-to-app binder IPC proceeds on the host (Section III-D).

        A target that is not a string names no app.  The layer's ioctl
        split inlines this test on its host-pinned path."""
        return (
            isinstance(arg, Transaction)
            and isinstance(arg.target, str)
            and arg.target.startswith("app:")
        )
