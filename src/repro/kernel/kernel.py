"""The kernel proper: syscall dispatch, process lifecycle, panic semantics.

Each :class:`Kernel` owns a PID table, a VFS, a network stack, and a frame
window.  The **host** kernel's window is unrestricted (``None``); a **guest**
kernel created by the hypervisor gets the CVM's window, so every memory
access it makes on behalf of its tasks is bounds-checked against the
hypervisor invariant.

Two outcomes matter for the security experiments and are modelled
explicitly:

* :meth:`Kernel.panic` — an oops; the kernel (and everything it hosts) is
  dead, but *other* kernels continue.  A crashed CVM is the paper's
  best-case failure mode for many exploits.
* :meth:`Kernel.compromise` — an attacker gained arbitrary code execution
  in this kernel; the returned :class:`KernelControl` capability exposes
  exactly what a kernel-level attacker can do, bounded by the frame window.
"""

from __future__ import annotations

import errno
import posixpath
import stat as stat_mod

from repro.errors import (
    ReproError,
    SecurityViolation,
    SimulationError,
    SyscallError,
)
from repro.kernel import ipc as ipc_mod
from repro.kernel import vfs as vfs_mod
from repro.kernel.filesystems import (
    ProcFS,
    build_android_rootfs,
    build_data_fs,
    build_system_image,
)
from repro.kernel.loader import load_image
from repro.kernel.memory import (
    AddressSpace,
    FrameAllocator,
    PROT_EXEC,
    PROT_READ,
    PhysicalMemory,
    Window,
    page_count,
)
from repro.kernel.net import Internet, NetworkStack
from repro.kernel.process import (
    LIVE_STATES,
    RLIMIT_NOFILE,
    Credentials,
    PidTable,
    Task,
    TaskState,
)
from repro.kernel.syscalls import CATALOGUE, classify
from repro.obs.bus import maybe_event
from repro.perf.costs import DEFAULT_COSTS, PAGE_SIZE


SHELLCODE_MAGIC = b"SHELLCODE:"
"""Byte prefix that marks attacker shellcode in simulated memory."""


class KernelCrashed(ReproError):
    """Raised when a syscall lands on (or triggers) a dead kernel."""

    def __init__(self, kernel, reason):
        self.kernel = kernel
        self.reason = reason
        super().__init__(f"kernel {kernel.label} crashed: {reason}")


class KernelControl:
    """Capability representing full control of one kernel.

    Exploits that achieve kernel code execution receive one of these; its
    methods answer the post-exploitation questions of Section V ("can the
    attacker read the banking app's memory? sniff its keystrokes? patch
    its code?") *from the mechanics*, not from a lookup table: every
    memory access goes through the kernel's frame window and every file
    access through the kernel's own VFS.
    """

    __snapshot__ = "auto"

    def __init__(self, kernel, attacker_task=None):
        self.kernel = kernel
        self.attacker_task = attacker_task

    def read_task_memory(self, task, addr, length):
        """Read arbitrary task memory as this kernel would.

        Raises :class:`HypervisorViolation` when the pages live outside the
        kernel's window (i.e. a CVM kernel attacking host-resident apps).
        """
        space = task.address_space
        if space is None:
            raise SyscallError(errno.ESRCH, "no address space")
        return space.read(addr, length, window=self.kernel.frame_window,
                          need_prot=0)

    def read_file(self, path):
        """Read any file visible in this kernel's VFS, ignoring modes."""
        root_creds = Credentials(0)
        inode = self.kernel.vfs.resolve(path, root_creds)
        if inode.kind is not vfs_mod.InodeKind.FILE:
            raise SyscallError(errno.EISDIR, path)
        return bytes(inode.data)

    def write_file(self, path, data):
        root_creds = Credentials(0)
        inode = self.kernel.vfs.resolve(path, root_creds)
        fs, _ = self.kernel.vfs._split_mount(posixpath.normpath(path))
        if fs.readonly:
            raise SyscallError(errno.EROFS, path)
        inode.data = bytearray(data)

    def intercept_input_events(self):
        """Tap the raw input stream — only possible where the UI stack is.

        The CVM is headless: it has no input device, so a CVM-level
        attacker gets nothing.
        """
        device = self.kernel.input_device
        if device is None:
            raise SecurityViolation(
                f"kernel {self.kernel.label} has no input stack to tap"
            )
        return device.drain()

    def spawn_root_task(self, name="rootshell"):
        return self.kernel.spawn_task(name, Credentials(0))

    def tasks(self):
        return self.kernel.pids.all_tasks()

    def __repr__(self):
        return f"KernelControl({self.kernel.label})"


class Kernel:
    """One kernel instance (host or guest)."""

    __snapshot__ = "auto"

    def __init__(self, label, allocator, clock, internet, costs=DEFAULT_COSTS,
                 frame_window=None, data_fs=None):
        self.label = label
        self.allocator = allocator
        self.clock = clock
        self.costs = costs
        self.frame_window = frame_window
        self.pids = PidTable()
        self.current = None
        self.crashed = False
        self.panic_log = []
        self.compromised_by = None
        self.interposition = None
        self.policy_monitor = None
        self.anception_build = False
        """True when this kernel carries the Anception modules (both the
        host and the guest kernel of an Anception device do)."""
        self.input_device = None
        self.ui_stack = None
        """The host :class:`~repro.android.ui.UIStack` when this kernel
        owns the display; a reaped task's windows are destroyed there."""
        self.log_device = None
        self.vulnerabilities = {}
        self.nproc_limits = {}
        """Per-UID RLIMIT_NPROC values; absent means unlimited.  The
        RageAgainstTheCage era set a low limit for the shell UID — and
        adbd ignored setuid's EAGAIN when the limit was hit."""
        self.quirks = {}
        """Named kernel-version flaws in this build, each mapped to True
        (e.g. the CVE-2012-0056 broken /proc/pid/mem write check)."""
        self.hotplug_enabled = frame_window is None
        """Usermode-helper hotplug: real hardware events only reach the
        host kernel; an lguest guest with virtual devices has none."""

        rootfs = build_android_rootfs()
        self.vfs = vfs_mod.VFS(rootfs)
        self.vfs.mount("/system", build_system_image())
        self.data_fs = data_fs if data_fs is not None else build_data_fs()
        self.vfs.mount("/data", self.data_fs)
        self.vfs.mount("/proc", ProcFS(self))
        self.network = NetworkStack(self, internet, label)
        from repro.kernel.sysv_shm import ShmRegistry

        self.shm = ShmRegistry(self)

        self._handlers = self._build_handler_table()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def spawn_task(self, name, credentials, parent=None, with_memory=True):
        """Create a task with a fresh address space on this kernel."""
        task = self.pids.allocate(
            lambda pid: Task(self, pid, name, credentials, parent)
        )
        if parent is not None:
            parent.add_child(task)
        if with_memory:
            task.address_space = AddressSpace(self.allocator, f"{name}:{task.pid}")
        return task

    def reap_task(self, task, exit_code=0):
        """Terminate a task: free memory, close fds, zombify."""
        if task.state is TaskState.DEAD:
            return
        if self.interposition is not None and task.redirection_entry:
            # Before any teardown: the layer flushes the app's deferred
            # windows through its still-live proxy, then ends the proxy
            # and forgets the pid.
            self.interposition.on_exit(task, exit_code)
        for fd in list(task.fd_table):
            try:
                self._do_close(task, fd)
            except SyscallError:
                pass
        if task.address_space is not None:
            task.address_space.destroy()
            task.address_space = None
        task.state = TaskState.ZOMBIE
        task.exit_code = exit_code
        if self.ui_stack is not None:
            self.ui_stack.destroy_windows_of(task)

    def panic(self, reason):
        """Kernel oops: everything on this kernel dies."""
        self.crashed = True
        self.panic_log.append(reason)
        for task in self.pids.all_tasks():
            if task.is_alive():
                task.state = TaskState.DEAD
        raise KernelCrashed(self, reason)

    def compromise(self, attacker_task, vector):
        """Attacker achieved code execution in this kernel."""
        self.compromised_by = (attacker_task, vector)
        return KernelControl(self, attacker_task)

    def null_dereference(self, task):
        """Jump through a NULL pointer in kernel mode (sock_sendpage).

        If the faulting task has mapped page zero *in an address space this
        kernel can actually read* and planted shellcode there, the attacker
        wins this kernel; otherwise the kernel oopses.
        """
        space = task.address_space
        content = b""
        if space is not None and space.is_mapped(0):
            try:
                content = space.read(0, len(SHELLCODE_MAGIC) + 64,
                                     window=self.frame_window, need_prot=0)
            except SecurityViolation:
                content = b""
        if content.startswith(SHELLCODE_MAGIC):
            return {
                "kind": "kernel_compromised",
                "control": self.compromise(task, "null-dereference"),
            }
        self.panic(f"Oops: NULL pointer dereference (pid {task.pid})")

    # ------------------------------------------------------------------
    # syscall entry
    # ------------------------------------------------------------------

    def syscall(self, task, name, *args, **kwargs):
        """The system-call trap: the paper's Figure 5 fast path.

        One byte of ``task_struct`` (the redirection entry) decides whether
        the native handler table or the Anception alternate table services
        the call.  The trap is one frame: under a capture its ``syscall``
        span is opened and closed by hand, so the dormant path builds no
        span (nor the syscall-class lookup that tags it).
        """
        if self.crashed:
            raise KernelCrashed(self, self.panic_log[-1] if self.panic_log else "")
        if task.state not in LIVE_STATES:
            raise SyscallError(errno.ESRCH, f"pid {task.pid} dead", call=name)
        clock = self.clock
        costs = self.costs
        span = None
        if not clock.dormant:
            span = clock._bus.span(
                "syscall", name, task=task, kernel=self.label,
                sclass=classify(name).value,
            )
            if name == "ioctl":
                _tag_ioctl_span(span, args)
        previous = self.current
        self.current = task
        try:
            if clock.dormant:
                clock._now_ns += costs.syscall_base_ns
            else:
                clock.advance(costs.syscall_base_ns, f"syscall:{name}")
            faults = clock.faults
            if faults is not None:
                delay_ns = faults.delay_at(
                    "syscall.delay", name, self.label,
                    default_ns=costs.syscall_base_ns)
                if delay_ns:
                    clock.advance(delay_ns, f"fault:syscall-delay:{name}")
                injected = faults.errno_at("syscall.error", name, self.label)
                if injected is not None:
                    raise SyscallError(injected, "injected fault", call=name)
            if self.policy_monitor is not None:
                self.policy_monitor.inspect(self, task, name, args)
            interposition = self.interposition
            if interposition is not None:
                if clock.dormant:
                    clock._now_ns += costs.asim_check_ns
                else:
                    clock.advance(costs.asim_check_ns, "asim-check")
            if interposition is not None and task.redirection_entry:
                if span is not None:
                    span.set(disposition="anception")
                result = interposition.dispatch(task, name, args, kwargs)
            else:
                if span is not None:
                    span.set(disposition="native")
                result = self.execute_native(task, name, args, kwargs)
        except BaseException as exc:
            self.current = previous
            if span is not None:
                span.__exit__(exc.__class__, exc, exc.__traceback__)
            raise
        self.current = previous
        if span is not None:
            span.__exit__(None, None, None)
        return result

    def syscall_batch(self, task, calls):
        """Opt-in batched dispatch: ``(name, *args)`` tuples in order.

        For an enrolled task the interposition layer opens one batch
        window around the calls, so consecutive deferrable redirects
        (same-fd writes) coalesce and share a single doorbell pair.
        Unenrolled tasks just run the calls sequentially — the batched
        entry never changes semantics, only doorbell count.
        """
        calls = [tuple(call) for call in calls]
        if self.interposition is not None and task.redirection_entry:
            return self.interposition.run_batch(task, calls)
        return [
            self.syscall(task, call[0], *call[1:]) for call in calls
        ]

    def execute_native(self, task, name, args, kwargs):
        """Run a syscall directly on this kernel (no redirection)."""
        vuln = self.vulnerabilities.get(name)
        if vuln is not None:
            effect = vuln(self, task, args, kwargs)
            if effect is not None:
                return effect
        handler = self._handlers.get(name)
        if handler is None:
            if name in CATALOGUE:
                raise SyscallError(errno.ENOSYS, name, call=name)
            raise SimulationError(f"unknown syscall {name!r}")
        return handler(task, *args, **kwargs)

    def register_vulnerability(self, syscall_name, trigger):
        """Inject a kernel bug reachable through ``syscall_name``.

        ``trigger(kernel, task, args, kwargs)`` returns ``None`` when the
        arguments are benign (the real handler then runs) or an effect
        dict when the bug fires.  The same bug is present in every kernel
        built from the same source — callers install it on host and guest
        alike; *where it fires* is decided by the redirection logic.
        """
        self.vulnerabilities[syscall_name] = trigger

    # -- hotplug / usermode helper (the Exploid vector) ----------------------

    UEVENT_HELPER_PATH = "/sys/kernel/uevent_helper"

    def process_uevent(self, data):
        """Kernel-side uevent processing: maybe run the usermode helper.

        Only the host kernel has hotplug; a guest silently ignores
        uevents.  The helper path is read from this kernel's own
        filesystem — the crux of why Exploid fails under Anception: the
        attacker's helper file was redirected into the CVM, whose kernel
        never runs helpers, while the host reads its own (clean) file.
        """
        if not self.hotplug_enabled:
            return None
        root = Credentials(0)
        try:
            inode = self.vfs.resolve(self.UEVENT_HELPER_PATH, root)
        except SyscallError:
            return None
        helper_path = bytes(inode.data).decode(errors="replace").strip()
        if not helper_path:
            return None
        helper_task = self.spawn_task("hotplug-helper", Credentials(0))
        try:
            image = self.execute_native(
                helper_task, "execve", (helper_path,), {}
            )
        except SyscallError:
            self.reap_task(helper_task)
            return None
        from repro.kernel.loader import run_payload

        return run_payload(self, helper_task, image)

    def _build_handler_table(self):
        return {
            "getpid": self._do_getpid,
            "getppid": self._do_getppid,
            "gettid": self._do_getpid,
            "getuid": self._do_getuid,
            "geteuid": self._do_geteuid,
            "getgid": self._do_getgid,
            "setuid": self._do_setuid,
            "open": self._do_open,
            "openat": self._do_open,
            "creat": self._do_creat,
            "close": self._do_close,
            "read": self._do_read,
            "write": self._do_write,
            "readv": self._do_readv,
            "writev": self._do_writev,
            "pread64": self._do_pread,
            "pwrite64": self._do_pwrite,
            "lseek": self._do_lseek,
            "_llseek": self._do_lseek,
            "truncate": self._do_truncate,
            "ftruncate": self._do_ftruncate,
            "ftruncate64": self._do_ftruncate,
            "stat": self._do_stat,
            "stat64": self._do_stat,
            "lstat": self._do_lstat,
            "lstat64": self._do_lstat,
            "fstat": self._do_fstat,
            "fstat64": self._do_fstat,
            "fcntl": self._do_fcntl,
            "fcntl64": self._do_fcntl,
            "fdatasync": self._do_fsync,
            "access": self._do_access,
            "mkdir": self._do_mkdir,
            "rmdir": self._do_rmdir,
            "unlink": self._do_unlink,
            "rename": self._do_rename,
            "symlink": self._do_symlink,
            "readlink": self._do_readlink,
            "chmod": self._do_chmod,
            "chown": self._do_chown,
            "fchmod": self._do_fchmod,
            "fchown": self._do_fchown,
            "fchown32": self._do_fchown,
            "getdents": self._do_getdents,
            "getcwd": self._do_getcwd,
            "chdir": self._do_chdir,
            "dup": self._do_dup,
            "dup2": self._do_dup2,
            "pipe": self._do_pipe,
            "ioctl": self._do_ioctl,
            "fsync": self._do_fsync,
            "socket": self._do_socket,
            "connect": self._do_connect,
            "bind": self._do_bind,
            "listen": self._do_listen,
            "accept": self._do_accept,
            "send": self._do_send,
            "sendto": self._do_send,
            "recv": self._do_recv,
            "recvfrom": self._do_recv,
            "sendfile": self._do_sendfile,
            "brk": self._do_brk,
            "mmap2": self._do_mmap,
            "mmap": self._do_mmap,
            "munmap": self._do_munmap,
            "mprotect": self._do_mprotect,
            "msync": self._do_msync,
            "shmget": self._do_shmget,
            "shmat": self._do_shmat,
            "shmdt": self._do_shmdt,
            "shmctl": self._do_shmctl,
            "fork": self._do_fork,
            "clone": self._do_fork,
            "execve": self._do_execve,
            "exit": self._do_exit,
            "exit_group": self._do_exit,
            "kill": self._do_kill,
            "wait4": self._do_wait4,
            "rt_sigaction": self._do_rt_sigaction,
            "nanosleep": self._do_nanosleep,
            "umask": self._do_umask,
            "uname": self._do_uname,
            "init_module": self._deny_privileged,
            "delete_module": self._deny_privileged,
            "reboot": self._deny_privileged,
            "kexec_load": self._deny_privileged,
            "ptrace": self._deny_privileged,
            "pivot_root": self._deny_privileged,
            "swapon": self._deny_privileged,
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _charge(self, ns, reason):
        """Bill ``ns`` to this kernel; the ``{label}:{reason}`` charge
        label is built only for a capture.

        The dormant add truncates to an int exactly as
        :meth:`~repro.clock.SimClock.advance` does, so an app-supplied
        float length (``pread(fd, 4096.5, 0)``) leaves the same integer
        clock on both paths.
        """
        clock = self.clock
        if clock.dormant:
            clock._now_ns += int(ns)
        else:
            clock.advance(ns, f"{self.label}:{reason}")

    def _abspath(self, task, path):
        if not path.startswith("/"):
            path = posixpath.join(task.cwd, path)
        return posixpath.normpath(path)

    # ------------------------------------------------------------------
    # process / identity
    # ------------------------------------------------------------------

    def _do_getpid(self, task):
        return task.pid

    def _do_getppid(self, task):
        return task.parent.pid if task.parent else 0

    def _do_getuid(self, task):
        return task.credentials.uid

    def _do_geteuid(self, task):
        return task.credentials.euid

    def _do_getgid(self, task):
        return task.credentials.gid

    def live_task_count(self, uid):
        """Live processes owned by ``uid`` (for RLIMIT_NPROC checks)."""
        return sum(
            1 for t in self.pids.all_tasks()
            if t.is_alive() and t.credentials.uid == uid
        )

    def check_nproc(self, uid):
        """Raise EAGAIN when ``uid`` is at its process limit."""
        limit = self.nproc_limits.get(uid)
        if limit is not None and self.live_task_count(uid) >= limit:
            raise SyscallError(
                errno.EAGAIN, f"RLIMIT_NPROC reached for uid {uid}"
            )

    def _do_setuid(self, task, uid):
        creds = task.credentials
        if not creds.is_root() and uid not in (creds.uid, creds.euid):
            raise SyscallError(errno.EPERM, f"setuid({uid})", call="setuid")
        if uid != creds.uid:
            # Linux refuses a setuid that would push the target UID past
            # its RLIMIT_NPROC — the return value adbd famously ignored.
            self.check_nproc(uid)
        task.credentials = creds.with_uid(uid)
        if self.interposition is not None:
            self.interposition.on_credentials_changed(task)
        return 0

    def _do_fork(self, task, flags=0):
        """Fork: child shares nothing but gets fd-table duplicates."""
        self.check_nproc(task.credentials.uid)
        self._charge(self.costs.context_switch_ns, "fork")
        child = self.spawn_task(task.name, task.credentials, parent=task)
        child.cwd = task.cwd
        child.umask = task.umask
        child.exe_path = task.exe_path
        for fd, desc in task.fd_table.items():
            child.fd_table[fd] = desc.dup() if hasattr(desc, "dup") else desc
        if self.interposition is not None:
            self.interposition.on_fork(task, child)
        return child.pid

    def _do_execve(self, task, path, argv=()):
        path = self._abspath(task, path)
        inode = self.vfs.resolve(path, task.credentials)
        inode.check_permission(task.credentials, want_exec=True)
        if inode.kind is not vfs_mod.InodeKind.FILE:
            raise SyscallError(errno.EACCES, path, call="execve")
        if task.address_space is not None:
            task.address_space.destroy()
            task.address_space = AddressSpace(
                self.allocator, f"{path}:{task.pid}"
            )
        image = load_image(
            task.address_space, path, inode.data, PROT_READ | PROT_EXEC
        )
        task.exe_path = path
        task.name = posixpath.basename(path)
        task.argv = tuple(argv)
        self._charge(self.costs.page_fault_ns * image.text_pages, "execve")
        maybe_event(self.clock, "page-fault", "execve", task=task,
                    kernel=self.label, pages=image.text_pages)
        return image

    def _do_exit(self, task, code=0):
        self.reap_task(task, code)
        return None

    def _do_kill(self, task, pid, signum):
        target = self.pids.require(pid)
        ipc_mod.deliver_signal(self, task, target, signum)
        return 0

    def _do_wait4(self, task, pid=-1):
        for child in task.children:
            if child.state is TaskState.ZOMBIE and (pid in (-1, child.pid)):
                child.state = TaskState.DEAD
                self.pids.remove(child.pid)
                return child.pid, child.exit_code
        raise SyscallError(errno.ECHILD, "no zombie children", call="wait4")

    def _do_rt_sigaction(self, task, signum, handler):
        old = task.signal_handlers.get(signum)
        if handler is None:
            task.signal_handlers.pop(signum, None)
        else:
            task.signal_handlers[signum] = handler
        return old

    def _do_nanosleep(self, task, seconds):
        if seconds < 0:
            raise SyscallError(errno.EINVAL, f"sleep of {seconds} s",
                               call="nanosleep")
        self._charge(int(seconds * 1e9), "nanosleep")
        return 0

    def _do_umask(self, task, mask):
        old = task.umask
        task.umask = mask & 0o777
        return old

    def _do_uname(self, task):
        return {
            "sysname": "Linux",
            "release": (
                "3.4.0-anception"
                if self.interposition or self.anception_build
                else "3.4.0"
            ),
            "machine": "armv7l",
            "nodename": self.label,
        }

    def _deny_privileged(self, task, *args):
        """System-management calls: denied to apps on stock Android too."""
        raise SyscallError(errno.EPERM, "system management call",
                           call="privileged")

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def _do_open(self, task, path, flags=0, mode=0o644):
        fd = task.free_fd()
        path = self._abspath(task, path)
        self._charge(self.costs.file_open_ns, "open")
        task.fd_table[fd] = self.vfs.open(path, flags, task.credentials,
                                          mode & ~task.umask)
        return fd

    def _do_close(self, task, fd):
        desc = task.remove_fd(fd)
        close = getattr(desc, "close", None)
        if close is not None:
            close()
        return 0

    def _do_read(self, task, fd, length):
        desc = task.get_fd(fd)
        self._charge(
            self.costs.file_read_page_ns * max(1, page_count(length)), "read"
        )
        if hasattr(desc, "recv") and not hasattr(desc, "inode"):
            return desc.recv(length)
        return desc.read(length)

    def _do_write(self, task, fd, data):
        desc = task.get_fd(fd)
        self._charge(
            self.costs.file_write_page_ns * max(1, page_count(len(data))),
            "write",
        )
        if hasattr(desc, "send") and not hasattr(desc, "inode"):
            return desc.send(data)
        return desc.write(data)

    def _do_creat(self, task, path, mode=0o644):
        return self._do_open(
            task, path, vfs_mod.O_WRONLY | vfs_mod.O_CREAT | vfs_mod.O_TRUNC,
            mode,
        )

    def _do_readv(self, task, fd, lengths):
        """Vectored read: one syscall, one buffer per iovec entry."""
        return [self._do_read(task, fd, length) for length in lengths]

    def _do_writev(self, task, fd, buffers):
        """Vectored write: returns the total byte count like writev(2)."""
        return sum(self._do_write(task, fd, data) for data in buffers)

    def _do_truncate(self, task, path, length):
        self._charge(self.costs.file_metadata_ns, "truncate")
        open_file = self.vfs.open(
            self._abspath(task, path), vfs_mod.O_WRONLY, task.credentials
        )
        self._truncate_inode(open_file.inode, length)
        return 0

    def _do_ftruncate(self, task, fd, length):
        desc = task.get_fd(fd)
        inode = getattr(desc, "inode", None)
        if inode is None or inode.kind is not vfs_mod.InodeKind.FILE:
            raise SyscallError(errno.EINVAL, "ftruncate target",
                               call="ftruncate")
        if not desc.writable:
            raise SyscallError(errno.EBADF, "read-only fd", call="ftruncate")
        self._charge(self.costs.file_metadata_ns, "ftruncate")
        self._truncate_inode(inode, length)
        return 0

    @staticmethod
    def _truncate_inode(inode, length):
        if length < 0:
            raise SyscallError(errno.EINVAL, "negative length",
                               call="truncate")
        if length <= len(inode.data):
            del inode.data[length:]
        else:
            inode.data.extend(b"\x00" * (length - len(inode.data)))

    F_DUPFD = 0
    F_GETFL = 3

    def _do_fcntl(self, task, fd, cmd, arg=0):
        desc = task.get_fd(fd)
        if cmd == self.F_DUPFD:
            # arg is the lowest number the duplicate may take (minfd).
            if not 0 <= arg < RLIMIT_NOFILE:
                raise SyscallError(errno.EINVAL, f"F_DUPFD minfd {arg}",
                                   call="fcntl")
            newfd = task.free_fd(arg)
            task.fd_table[newfd] = desc.dup() if hasattr(desc, "dup") \
                else desc
            return newfd
        if cmd == self.F_GETFL:
            return getattr(desc, "flags", 0)
        raise SyscallError(errno.EINVAL, f"fcntl cmd {cmd}", call="fcntl")

    def _do_pread(self, task, fd, length, offset):
        desc = task.get_fd(fd)
        if desc.__class__ in _STREAM_FILES:
            raise SyscallError(errno.ESPIPE, f"fd {fd}", call="pread64")
        if offset < 0:
            raise SyscallError(errno.EINVAL, "negative offset", call="pread64")
        self._charge(
            self.costs.file_read_page_ns * max(1, page_count(length)), "pread"
        )
        return desc.pread(length, offset)

    def _do_pwrite(self, task, fd, data, offset):
        desc = task.get_fd(fd)
        if desc.__class__ in _STREAM_FILES:
            raise SyscallError(errno.ESPIPE, f"fd {fd}", call="pwrite64")
        if offset < 0:
            raise SyscallError(errno.EINVAL, "negative offset",
                               call="pwrite64")
        self._charge(
            self.costs.file_write_page_ns * max(1, page_count(len(data))),
            "pwrite",
        )
        return desc.pwrite(data, offset)

    def _do_lseek(self, task, fd, offset, whence=vfs_mod.SEEK_SET):
        desc = task.get_fd(fd)
        if desc.__class__ in _STREAM_FILES:
            raise SyscallError(errno.ESPIPE, f"fd {fd}", call="lseek")
        return desc.lseek(offset, whence)

    def _do_stat(self, task, path):
        self._charge(self.costs.file_metadata_ns, "stat")
        return self.vfs.stat(self._abspath(task, path), task.credentials)

    def _do_lstat(self, task, path):
        self._charge(self.costs.file_metadata_ns, "lstat")
        return self.vfs.stat(self._abspath(task, path), task.credentials,
                             follow_symlinks=False)

    def _do_fstat(self, task, fd):
        desc = task.get_fd(fd)
        self._charge(self.costs.file_metadata_ns, "fstat")
        if hasattr(desc, "inode"):
            return vfs_mod.VFS.stat_inode(desc.inode)
        if desc.__class__ in _STREAM_FILES:
            # A pipe or socket lives in an anonymous inode: no size, one
            # link, owned by the caller (pipefs 0600, sockfs 0777).
            return vfs_mod.StatResult(
                st_ino=0, st_mode=desc.stat_mode,
                st_uid=task.credentials.euid, st_gid=task.credentials.egid,
                st_size=0, st_nlink=1,
            )
        raise SyscallError(errno.EBADF, "fstat on non-file", call="fstat")

    def _do_access(self, task, path, mode=0):
        self._charge(self.costs.file_metadata_ns, "access")
        inode = self.vfs.resolve(self._abspath(task, path), task.credentials)
        inode.check_permission(
            task.credentials,
            want_read=bool(mode & 4),
            want_write=bool(mode & 2),
            want_exec=bool(mode & 1),
        )
        return 0

    def _do_mkdir(self, task, path, mode=0o755):
        self._charge(self.costs.file_metadata_ns, "mkdir")
        self.vfs.mkdir(self._abspath(task, path), task.credentials,
                       mode & ~task.umask)
        return 0

    def _do_rmdir(self, task, path):
        self._charge(self.costs.file_metadata_ns, "rmdir")
        self.vfs.rmdir(self._abspath(task, path), task.credentials)
        return 0

    def _do_unlink(self, task, path):
        self._charge(self.costs.file_metadata_ns, "unlink")
        self.vfs.unlink(self._abspath(task, path), task.credentials)
        return 0

    def _do_rename(self, task, old, new):
        self._charge(self.costs.file_metadata_ns, "rename")
        self.vfs.rename(self._abspath(task, old), self._abspath(task, new),
                        task.credentials)
        return 0

    def _do_symlink(self, task, target, linkpath):
        self._charge(self.costs.file_metadata_ns, "symlink")
        self.vfs.symlink(target, self._abspath(task, linkpath),
                         task.credentials)
        return 0

    def _do_readlink(self, task, path):
        self._charge(self.costs.file_metadata_ns, "readlink")
        inode = self.vfs.resolve(self._abspath(task, path), task.credentials,
                                 follow_symlinks=False)
        if inode.kind is not vfs_mod.InodeKind.SYMLINK:
            raise SyscallError(errno.EINVAL, path, call="readlink")
        return inode.symlink_target

    def _do_chmod(self, task, path, mode):
        self._charge(self.costs.file_metadata_ns, "chmod")
        self.vfs.chmod(self._abspath(task, path), mode, task.credentials)
        return 0

    def _do_chown(self, task, path, uid, gid):
        self._charge(self.costs.file_metadata_ns, "chown")
        self.vfs.chown(self._abspath(task, path), uid, gid, task.credentials)
        return 0

    def _do_fchmod(self, task, fd, mode):
        desc = task.get_fd(fd)
        inode = getattr(desc, "inode", None)
        if inode is None:
            raise SyscallError(errno.EINVAL, "fchmod target", call="fchmod")
        self._charge(self.costs.file_metadata_ns, "fchmod")
        creds = task.credentials
        if not creds.is_root() and creds.euid != inode.uid:
            raise SyscallError(errno.EPERM, f"fd {fd}", call="fchmod")
        inode.mode = mode & 0o7777
        return 0

    def _do_fchown(self, task, fd, uid, gid):
        desc = task.get_fd(fd)
        inode = getattr(desc, "inode", None)
        if inode is None:
            raise SyscallError(errno.EINVAL, "fchown target", call="fchown")
        self._charge(self.costs.file_metadata_ns, "fchown")
        if not task.credentials.is_root():
            raise SyscallError(errno.EPERM, f"fd {fd}", call="fchown")
        if uid >= 0:
            inode.uid = uid
        if gid >= 0:
            inode.gid = gid
        return 0

    def _do_getdents(self, task, path):
        self._charge(self.costs.file_metadata_ns, "getdents")
        return self.vfs.listdir(self._abspath(task, path), task.credentials)

    def _do_getcwd(self, task):
        return task.cwd

    def _do_chdir(self, task, path):
        path = self._abspath(task, path)
        inode = self.vfs.resolve(path, task.credentials)
        if inode.kind is not vfs_mod.InodeKind.DIRECTORY:
            raise SyscallError(errno.ENOTDIR, path, call="chdir")
        task.cwd = path
        return 0

    def _do_dup(self, task, fd):
        desc = task.get_fd(fd)
        newfd = task.free_fd()
        task.fd_table[newfd] = desc.dup() if hasattr(desc, "dup") else desc
        return newfd

    def _do_dup2(self, task, fd, newfd):
        if not 0 <= newfd < RLIMIT_NOFILE:
            raise SyscallError(errno.EBADF, f"newfd {newfd}", call="dup2")
        desc = task.get_fd(fd)
        if newfd in task.fd_table:
            self._do_close(task, newfd)
        task.install_fd(newfd, desc.dup() if hasattr(desc, "dup") else desc)
        return newfd

    def _do_pipe(self, task):
        read_fd = task.free_fd()
        write_fd = task.free_fd(read_fd + 1)
        pipe = ipc_mod.Pipe()
        task.fd_table[read_fd] = _PipeFile(
            ipc_mod.PipeEnd(pipe, writable=False))
        task.fd_table[write_fd] = _PipeFile(
            ipc_mod.PipeEnd(pipe, writable=True))
        return read_fd, write_fd

    def _do_fsync(self, task, fd):
        if task.get_fd(fd).__class__ in _STREAM_FILES:
            raise SyscallError(errno.EINVAL, f"fd {fd}", call="fsync")
        self._charge(self.costs.file_write_page_ns, "fsync")
        return 0

    def _do_ioctl(self, task, fd, request, arg=None):
        # Every binder call and UI frame lands here: one fd-table lookup,
        # and a device node's ioctl dispatched in place.  Anything else
        # (a regular file, a pipe, a socket) answers through its own
        # ``ioctl``, which raises ENOTTY.
        desc = task.fd_table.get(fd)
        if desc is None:
            raise SyscallError(errno.EBADF, f"fd {fd}", call="fd-lookup")
        if (desc.__class__ is vfs_mod.OpenFile
                and desc.inode.kind is vfs_mod.InodeKind.DEVICE):
            return desc.inode.device.ioctl(task, desc, request, arg)
        return desc.ioctl(task, request, arg)

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    AID_INET = 3003
    AID_NET_BT = 3001

    def _do_socket(self, task, family, type_, protocol=0):
        """Socket creation with Android's paranoid-networking GIDs.

        Android maps the INTERNET permission to membership in the
        ``inet`` group (3003) and BLUETOOTH to ``net_bt`` (3001); the
        kernel refuses socket creation to processes outside them.
        """
        from repro.kernel.net import AF_INET, PF_BLUETOOTH

        fd = task.free_fd()
        creds = task.credentials
        if not creds.is_root():
            if family == AF_INET and not creds.in_group(self.AID_INET):
                raise SyscallError(
                    errno.EACCES, "missing INTERNET permission (inet gid)",
                    call="socket",
                )
            if family == PF_BLUETOOTH and not creds.in_group(self.AID_NET_BT):
                raise SyscallError(
                    errno.EACCES,
                    "missing BLUETOOTH permission (net_bt gid)",
                    call="socket",
                )
        self._charge(self.costs.socket_op_ns, "socket")
        sock = self.network.create_socket(family, type_, protocol, task.pid)
        task.fd_table[fd] = _SocketFile(sock)
        return fd

    def _socket_of(self, task, fd):
        desc = task.get_fd(fd)
        sock = getattr(desc, "socket", None)
        if sock is None:
            raise SyscallError(errno.ENOTSOCK, f"fd {fd}")
        return sock

    def _do_connect(self, task, fd, address):
        self._charge(self.costs.socket_op_ns, "connect")
        self.network.connect(self._socket_of(task, fd), address)
        return 0

    def _do_bind(self, task, fd, address):
        self._charge(self.costs.socket_op_ns, "bind")
        sock = self._socket_of(task, fd)
        from repro.kernel.net import AF_UNIX

        if sock.family == AF_UNIX:
            self.network.unix_bind(sock, address)
        else:
            sock.bound_address = address
        return 0

    def _do_listen(self, task, fd, backlog=8):
        self._charge(self.costs.socket_op_ns, "listen")
        sock = self._socket_of(task, fd)
        from repro.kernel.net import AF_UNIX

        if sock.family == AF_UNIX:
            self.network.unix_listen(sock)
        else:
            sock.listening = True
        return 0

    def _do_accept(self, task, fd):
        newfd = task.free_fd()
        self._charge(self.costs.socket_op_ns, "accept")
        listener = self._socket_of(task, fd)
        task.fd_table[newfd] = _SocketFile(
            self.network.unix_accept(listener))
        return newfd

    def _do_send(self, task, fd, data, address=None):
        self._charge(self.costs.socket_op_ns, "send")
        return self._socket_of(task, fd).send(data)

    def _do_recv(self, task, fd, length):
        self._charge(self.costs.socket_op_ns, "recv")
        return self._socket_of(task, fd).recv(length)

    def _do_sendfile(self, task, out_fd, in_fd, offset, count):
        """sendfile(2): the sock_sendpage (CVE-2009-2692) entry point."""
        self._charge(self.costs.socket_op_ns, "sendfile")
        out_desc = task.get_fd(out_fd)
        in_desc = task.get_fd(in_fd)
        if in_desc.__class__ in _STREAM_FILES:
            # sendfile(2) reads its input like mmap: no pipe or socket.
            raise SyscallError(errno.EINVAL, f"fd {in_fd}", call="sendfile")
        data = in_desc.pread(count, offset or 0)
        sock = getattr(out_desc, "socket", None)
        if sock is not None:
            return self.network.sendpage(task, sock, data)
        return out_desc.write(data)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def _do_brk(self, task, new_brk_page):
        return task.address_space.set_brk(new_brk_page)

    def _do_mmap(self, task, length, prot, flags, addr=None, fd=None,
                 offset=0):
        self._charge(
            self.costs.page_fault_ns * max(1, page_count(length)), "mmap"
        )
        maybe_event(self.clock, "page-fault", "mmap", task=task,
                    kernel=self.label, pages=max(1, page_count(length)))
        if fd is not None:
            desc = task.get_fd(fd)
            device = getattr(desc, "inode", None)
            if device is not None and device.kind is vfs_mod.InodeKind.DEVICE:
                mapper = getattr(device.device, "map_kernel_memory", None)
                if mapper is not None:
                    result = mapper(task, offset, length)
                    if result.get("kind") == "kernel_memory":
                        control = self.compromise(task, "fb0-mmap-overflow")
                        return {"kind": "kernel_memory", "control": control}
                    return result
            base = task.address_space.mmap(length, prot, flags, addr)
            if device is not None and device.kind is vfs_mod.InodeKind.FILE:
                content = bytes(device.data[offset : offset + length])
                if content:
                    task.address_space.write(base, content, need_prot=0)
            return base
        return task.address_space.mmap(length, prot, flags, addr)

    def _do_munmap(self, task, addr, length):
        task.address_space.munmap(addr, length)
        return 0

    def _do_mprotect(self, task, addr, length, prot):
        for i in range(page_count(length)):
            task.address_space.protect(addr // PAGE_SIZE + i, prot)
        return 0

    def _do_msync(self, task, addr, length, flags=0):
        self._charge(self.costs.file_write_page_ns, "msync")
        return 0

    # ------------------------------------------------------------------
    # System V shared memory
    # ------------------------------------------------------------------

    def _do_shmget(self, task, key, size, flags=0o1000):
        self._charge(self.costs.file_metadata_ns, "shmget")
        return self.shm.shmget(task, key, size, flags)

    def _do_shmat(self, task, shmid):
        self._charge(
            self.costs.page_fault_ns
            * self.shm.require(shmid).pages,
            "shmat",
        )
        return self.shm.shmat(task, shmid)

    def _do_shmdt(self, task, addr):
        return self.shm.shmdt(task, addr)

    def _do_shmctl(self, task, shmid, cmd=0):
        return self.shm.shmctl(task, shmid, cmd)


def _tag_ioctl_span(span, args):
    """Give a captured ``ioctl(fd, request, arg)`` span its ``request``
    and, for a binder transaction, its ``target``: what the E10 profiler
    needs to tell UI ioctls apart.  A target that is not a string names
    no service and is left out, so every span stays JSON-exportable."""
    from repro.android.binder import Transaction  # android sits above

    if len(args) > 1:
        span.set(request=args[1])
    if len(args) > 2 and isinstance(args[2], Transaction) \
            and isinstance(args[2].target, str):
        span.set(target=args[2].target)


class _SocketFile:
    """Adapter placing a socket in the fd table.

    Descriptors that ``dup`` or ``fork`` copy share one adapter; the
    socket closes with the last of them, as a Linux ``struct file``
    does."""

    __snapshot__ = "auto"

    stat_mode = stat_mod.S_IFSOCK | 0o777

    def __init__(self, socket):
        self.socket = socket
        self.refcount = 1

    def recv(self, length):
        return self.socket.recv(length)

    def send(self, data):
        return self.socket.send(data)

    def ioctl(self, task, request, arg):
        raise SyscallError(errno.ENOTTY, "socket ioctl")

    def dup(self):
        self.refcount += 1
        return self

    def close(self):
        self.refcount -= 1
        if self.refcount == 0:
            self.socket.close()


class _PipeFile:
    """Adapter placing a pipe end in the fd table; shared and released
    like :class:`_SocketFile`."""

    __snapshot__ = "auto"

    stat_mode = stat_mod.S_IFIFO | 0o600

    def __init__(self, end):
        self.end = end
        self.refcount = 1

    def read(self, length):
        return self.end.read(None, length)

    def write(self, data):
        return self.end.write(None, data)

    def ioctl(self, task, request, arg):
        raise SyscallError(errno.ENOTTY, "pipe ioctl")

    def dup(self):
        self.refcount += 1
        return self

    def close(self):
        self.refcount -= 1
        if self.refcount == 0:
            self.end.release(None)


_STREAM_FILES = (_SocketFile, _PipeFile)
"""fd-table adapters with no file position: positional calls on them
fail with ESPIPE."""


class Machine:
    """The physical device: all RAM plus the host kernel.

    ``total_mb`` defaults to the paper's 1 GB tablet.  The hypervisor later
    carves the CVM window out of this machine's allocator.
    """

    __snapshot__ = "auto"

    def __init__(self, clock=None, internet=None, total_mb=1024,
                 costs=DEFAULT_COSTS):
        from repro.clock import SimClock

        self.clock = clock or SimClock()
        self.internet = internet or Internet()
        self.costs = costs
        total_frames = total_mb * 1024 * 1024 // PAGE_SIZE
        self.physical = PhysicalMemory(total_frames)
        self.allocator = FrameAllocator(
            self.physical, Window(0, total_frames), "host"
        )
        self.kernel = Kernel(
            "host", self.allocator, self.clock, self.internet, costs
        )

    def __repr__(self):
        return f"Machine(frames={self.physical.num_frames}, kernel={self.kernel.label})"
