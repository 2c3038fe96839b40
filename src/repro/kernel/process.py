"""Tasks and credentials.

The :class:`Task` is our ``task_struct``.  It carries the one-byte
``redirection_entry`` (RE) field that the paper adds (Section IV-2): when it
is non-zero the host kernel's syscall dispatcher indexes an alternate system
call table whose stubs forward the call to the container VM.
"""

from __future__ import annotations

import enum
import errno

from repro.errors import SimulationError, SyscallError


ROOT_UID = 0
SYSTEM_UID = 1000
FIRST_APP_UID = 10000
"""Android assigns each installed app a distinct Linux UID >= 10000."""

RLIMIT_NOFILE = 1024
"""Descriptor numbers a task may hold: every fd is below this (the
Linux and Android default soft limit)."""


class Credentials:
    """Unix credentials of a task (uid/gid/supplementary groups).

    Instances are immutable; credential changes replace the object, which
    is what lets Anception's launch-time UID pin detect changes cheaply.
    """

    __snapshot__ = "auto"

    __slots__ = ("uid", "gid", "euid", "egid", "groups")

    def __init__(self, uid, gid=None, euid=None, egid=None, groups=()):
        self.uid = uid
        self.gid = gid if gid is not None else uid
        self.euid = euid if euid is not None else uid
        self.egid = egid if egid is not None else self.gid
        self.groups = frozenset(groups)

    def is_root(self):
        return self.euid == ROOT_UID

    def with_uid(self, uid):
        """Return new credentials with both real and effective uid set."""
        return Credentials(uid, self.gid, uid, self.egid, self.groups)

    def in_group(self, gid):
        return gid == self.egid or gid in self.groups

    def __eq__(self, other):
        if not isinstance(other, Credentials):
            return NotImplemented
        return (
            self.uid == other.uid
            and self.gid == other.gid
            and self.euid == other.euid
            and self.egid == other.egid
            and self.groups == other.groups
        )

    def __hash__(self):
        return hash((self.uid, self.gid, self.euid, self.egid, self.groups))

    def __repr__(self):
        return f"Credentials(uid={self.uid}, euid={self.euid}, gid={self.gid})"


class TaskState(enum.Enum):
    RUNNING = "running"
    SLEEPING = "sleeping"
    ZOMBIE = "zombie"
    DEAD = "dead"


LIVE_STATES = (TaskState.RUNNING, TaskState.SLEEPING)
"""States in which a task can still trap into its kernel."""


class Task:
    """A process (or main thread) managed by one kernel.

    Attributes mirror the parts of ``task_struct`` the paper touches:

    * ``redirection_entry`` — the RE byte (0 = native dispatch, non-zero =
      index into the Anception alternate syscall table).
    * ``launch_uid`` — UID pinned at launch; Anception kills the task if its
      UID ever differs from this (footnote 3 in the paper).

    A task holds no link to another kernel: an enrolled app's CVM proxy
    is recorded only by the Anception layer's ``ProxyManager``, which
    ends it when the app exits.
    """

    __snapshot__ = "auto"

    def __init__(self, kernel, pid, name, credentials, parent=None):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.credentials = credentials
        self.parent = parent
        self.children = []
        self.state = TaskState.RUNNING
        self.exit_code = None
        self.cwd = "/"
        self.umask = 0o022
        self.fd_table = {}
        self.address_space = None
        self.exe_path = None
        self.argv = ()

        # Anception bookkeeping (all zero/None on an unmodified kernel).
        self.redirection_entry = 0
        self.launch_uid = None
        self.signal_handlers = {}
        self.pending_signals = []

    # -- file descriptors -------------------------------------------------

    def free_fd(self, lowest=3):
        """The lowest free descriptor >= ``max(3, lowest)``; EMFILE when
        none is below :data:`RLIMIT_NOFILE`.

        Calls that make a descriptor take their number first, as Linux
        reserves it before the path lookup: a full table refuses the
        call before it has any effect.
        """
        fd = lowest if lowest > 3 else 3
        while fd in self.fd_table:
            fd += 1
        if fd >= RLIMIT_NOFILE:
            raise SyscallError(errno.EMFILE, f"no fd free from {lowest}",
                               call="alloc-fd")
        return fd

    def alloc_fd(self, description, lowest=3):
        """Install ``description`` at :meth:`free_fd`'s number."""
        fd = self.free_fd(lowest)
        self.fd_table[fd] = description
        return fd

    def install_fd(self, fd, description):
        if fd in self.fd_table:
            raise SimulationError(f"fd {fd} already installed in pid {self.pid}")
        self.fd_table[fd] = description

    def get_fd(self, fd):
        try:
            return self.fd_table[fd]
        except KeyError:
            raise SyscallError(errno.EBADF, f"fd {fd}", call="fd-lookup") from None

    def remove_fd(self, fd):
        try:
            return self.fd_table.pop(fd)
        except KeyError:
            raise SyscallError(errno.EBADF, f"fd {fd}", call="close") from None

    # -- lifecycle ----------------------------------------------------------

    def is_alive(self):
        return self.state in LIVE_STATES

    def add_child(self, child):
        self.children.append(child)

    def __repr__(self):
        return (
            f"Task(pid={self.pid}, name={self.name!r}, "
            f"uid={self.credentials.uid}, re={self.redirection_entry})"
        )


class PidTable:
    """Allocates PIDs and resolves pid -> Task for one kernel."""

    __snapshot__ = "auto"

    def __init__(self, first_pid=1):
        self._next_pid = first_pid
        self._tasks = {}

    def allocate(self, task_factory):
        pid = self._next_pid
        self._next_pid += 1
        task = task_factory(pid)
        self._tasks[pid] = task
        return task

    def get(self, pid):
        return self._tasks.get(pid)

    def require(self, pid):
        task = self._tasks.get(pid)
        if task is None:
            raise SyscallError(errno.ESRCH, f"pid {pid}")
        return task

    def remove(self, pid):
        self._tasks.pop(pid, None)

    def all_tasks(self):
        return list(self._tasks.values())

    def find_by_name(self, name):
        """Return live tasks whose name matches (procfs-scan helper)."""
        return [t for t in self._tasks.values() if t.name == name and t.is_alive()]

    def __len__(self):
        return len(self._tasks)
