"""The syscall-coverage catalogue: one op-script per redirect surface.

Every redirect-class syscall the simulated kernel implements must be
exercised by at least one differential script here (or carry a
documented exemption in :data:`EXEMPT`).  The conformance suite in
``tests/core/test_syscall_conformance.py`` checks the catalogue's
coverage against the live redirect table, and
``tests/differential/test_catalogue.py`` runs every script in all three
modes — native, synchronous delegation, write-behind — asserting
identical outcomes, errnos, and final VFS trees.

Scripts use libc veneer names; :data:`SYSCALL_ALIASES` maps kernel
syscall names onto the veneer that reaches them (e.g. ``stat64`` is
served by the ``stat`` handler and veneer).
"""

from __future__ import annotations

import inspect
import re

from repro.kernel import vfs
from repro.kernel.kernel import Kernel
from repro.kernel.libc import Libc
from repro.kernel.loader import build_pseudo_elf
from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE
from repro.kernel.net import AF_INET, SOCK_STREAM
from repro.kernel.process import RLIMIT_NOFILE

from tests.differential.harness import HARNESS_OPS, SELF, H, P


TRUNC = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC
RW = PROT_READ | PROT_WRITE
F_DUPFD, F_GETFL = Kernel.F_DUPFD, Kernel.F_GETFL
LAST_FD = RLIMIT_NOFILE - 1


SYSCALL_ALIASES = {
    # 64-bit / variant entry points served by the base handler+veneer.
    "stat64": "stat",
    "lstat64": "lstat",
    "fstat64": "fstat",
    "ftruncate64": "ftruncate",
    "_llseek": "lseek",
    "openat": "open",
    "creat": "open",
    "fchown32": "fchown",
    "sendto": "send",
    "recvfrom": "recv",
    # Veneers whose method name differs from the syscall's.
    "pread64": "pread",
    "pwrite64": "pwrite",
    "getdents": "listdir",
}
"""Kernel syscall name -> libc veneer exercising it."""


EXEMPT = {
    "bind": "server-side socket setup needs a live accept loop the "
            "scripted worlds do not run; exercised by the network unit "
            "and exploit suites",
    "listen": "server-side socket setup (see bind)",
    "accept": "server-side socket setup (see bind)",
    "shmctl": "segment control op; the get/at/dt lifecycle is covered "
              "differentially and shmctl by the shm unit suite",
    "getcwd": "cwd is mirrored host task state, never delegated",
    "chdir": "cwd is mirrored host task state, never delegated",
    "uname": "constant host identity string, no delegated state",
}
"""Redirect-class syscalls deliberately outside the catalogue, each
with the reason it cannot (or need not) run differentially."""


SCRIPTS = {
    "file-core": {
        "needs_server": False,
        "script": [
            ("open", P("cat-core.bin"), TRUNC, 0o644),
            ("write", H(0), b"0123456789abcdef"),
            ("pwrite", H(0), b"XYZ", 4),
            ("fsync", H(0)),
            ("lseek", H(0), 2, 0),
            ("read", H(0), 6),
            ("pread", H(0), 4, 0),
            ("fstat", H(0)),
            ("fchmod", H(0), 0o600),
            ("fchown", H(0), 0, 0),
            ("ftruncate", H(0), 8),
            ("fdatasync", H(0)),
            ("fence", H(0)),
            ("close", H(0)),
        ],
    },
    "file-vectored": {
        "needs_server": False,
        "script": [
            ("open", P("cat-vec.bin"), TRUNC, 0o644),
            ("writev", H(0), (b"aa", b"bbb", b"cccc")),
            ("lseek", H(0), 0, 0),
            ("readv", H(0), (2, 3, 4)),
            ("fence", H(0)),
            ("close", H(0)),
        ],
    },
    "file-meta": {
        "needs_server": False,
        "script": [
            ("mkdir", P("cat-dir"), 0o700),
            ("open", P("cat-dir/f.bin"), TRUNC, 0o644),
            ("write", H(1), b"meta-bytes"),
            ("close", H(1)),
            ("chmod", P("cat-dir/f.bin"), 0o640),
            ("chown", P("cat-dir/f.bin"), 0, 0),
            ("truncate", P("cat-dir/f.bin"), 4),
            ("symlink", P("cat-dir/f.bin"), P("cat-dir/link")),
            ("readlink", P("cat-dir/link")),
            ("lstat", P("cat-dir/link")),
            ("stat", P("cat-dir/f.bin")),
            ("access", P("cat-dir/f.bin"), 4),
            ("listdir", P("cat-dir")),
            ("rename", P("cat-dir/f.bin"), P("cat-dir/g.bin")),
            ("unlink", P("cat-dir/link")),
            ("unlink", P("cat-dir/g.bin")),
            ("rmdir", P("cat-dir")),
        ],
    },
    "net-echo": {
        "needs_server": True,
        "script": [
            ("socket", AF_INET, SOCK_STREAM, 0),
            ("connect", H(0), ("echo.example", 7)),
            ("send", H(0), b"catalogue-ping"),
            ("recv", H(0), 64),
            ("close", H(0)),
        ],
    },
    "sendfile-copy": {
        "needs_server": False,
        "script": [
            ("open", P("cat-src.bin"), TRUNC, 0o644),
            ("write", H(0), b"sendfile-payload"),
            ("fence", H(0)),
            ("open", P("cat-dst.bin"), TRUNC, 0o644),
            ("sendfile", H(3), H(0), 0, 8),
            ("close", H(3)),
            ("close", H(0)),
            ("read_file", P("cat-dst.bin")),
        ],
    },
    # An fd call runs where its descriptor lives.  Host fd 3 is a
    # /system file and the two data files are proxy fds 3 and 4, so a
    # host or closed fd that crossed under its own number would name
    # one of the app's files instead: the outcome stream and the final
    # modes and contents would show it.
    "fd-locality": {
        "needs_server": False,
        "script": [
            ("open", "/system/bin/sh", vfs.O_RDONLY),
            ("open", P("loc-a.bin"), TRUNC, 0o644),
            ("write", H(1), b"locality-a"),
            ("open", P("loc-b.bin"), TRUNC, 0o644),
            ("fchmod", H(0), 0o777),
            ("fchown", H(0), 0, 0),
            ("ftruncate", H(0), 0),
            ("connect", H(0), ("echo.example", 7)),
            ("sendfile", H(0), H(0), 0, 9),
            ("close", H(0)),
            ("fchmod", H(0), 0o777),
            ("fchown", H(0), 0, 0),
            ("ftruncate", H(0), 0),
            ("connect", H(0), ("echo.example", 7)),
            ("sendfile", H(3), H(0), 0, 9),
            ("sendfile", H(0), H(1), 0, 9),
            ("fstat", H(1)),
            ("pread", H(1), 32, 0),
            ("pread", H(3), 32, 0),
            ("close", H(3)),
            ("close", H(1)),
        ],
    },
    "ipc": {
        "needs_server": False,
        "script": [
            ("pipe",),
            ("write", H(0, 1), b"cat-pipe"),
            ("read", H(0, 0), 32),
            ("close", H(0, 1)),
            ("close", H(0, 0)),
            ("shmget", 0x77, 4096),
            ("shmat", H(5)),
            ("shmdt", H(6)),
        ],
    },
    # A pipe end or a socket has no file position: every positional
    # call fails with ESPIPE, and sendfile refuses either as its input.
    "stream-positional": {
        "needs_server": False,
        "script": [
            ("pipe",),
            ("socket", AF_INET, SOCK_STREAM, 0),
            ("pread", H(0, 0), 4, 0),
            ("pwrite", H(0, 1), b"x", 0),
            ("lseek", H(0, 0), 0, 0),
            ("pread", H(1), 4, 0),
            ("pwrite", H(1), b"x", 0),
            ("lseek", H(1), 0, 0),
            ("sendfile", H(1), H(0, 0), 0, 8),
            ("write", H(0, 1), b"still-a-pipe"),
            ("read", H(0, 0), 32),
            ("close", H(0, 0)),
            ("close", H(0, 1)),
            ("close", H(1)),
        ],
    },
    # The lifecycle scripts end the process with the descriptor still
    # open and the write still staged: whatever the exit path drains
    # must land, or the final tree diverges from native.
    "exit-after-write": {
        "needs_server": False,
        "script": [
            ("open", P("cat-exit.bin"), TRUNC, 0o644),
            ("write", H(0), b"last-words"),
            ("exit", 0),
        ],
    },
    "kill-after-writev": {
        "needs_server": False,
        "script": [
            ("open", P("cat-kill.bin"), TRUNC, 0o644),
            ("writev", H(0), (b"killed", b"-but-", b"durable")),
            ("kill", SELF, 9),
        ],
    },
    # Split-class calls: the layer runs its own handler for each, so
    # every one is pinned against the native kernel's.  Calls with no
    # libc veneer run as raw ``("syscall", name, ...)`` steps.
    "split-dup": {
        "needs_server": False,
        "script": [
            ("open", P("cat-dup.bin"), TRUNC, 0o644),
            ("write", H(0), b"first-"),
            ("syscall", "dup", H(0)),
            ("syscall", "dup2", H(0), 9),
            ("write", 9, b"via-dup2-"),
            ("write", H(2), b"via-dup"),
            ("fence", H(0)),
            ("pread", H(0), 64, 0),
            ("close", H(0)),
            ("lseek", 9, 0, 0),
            ("read", 9, 64),
            ("syscall", "dup2", 9, 9),
            ("syscall", "dup2", 77, 9),
            ("syscall", "dup2", H(2), 9),
            ("read", 9, 64),
            ("close", 9),
            ("close", H(2)),
            ("read", 9, 4),
        ],
    },
    # dup2 of a host fd over a CVM fd: the slot then names the host
    # file, so reads reach it and no longer the CVM file it held.
    "dup2-over-remote": {
        "needs_server": False,
        "script": [
            ("open", P("cat-over.bin"), TRUNC, 0o644),
            ("write", H(0), b"cvm-bytes"),
            ("open", "/system/bin/sh", vfs.O_RDONLY),
            ("syscall", "dup2", H(2), H(0)),
            ("pread", H(0), 4, 0),
            ("close", H(0)),
            ("close", H(2)),
            ("read_file", P("cat-over.bin")),
        ],
    },
    "split-fcntl": {
        "needs_server": False,
        "script": [
            ("open", P("cat-fcntl.bin"), TRUNC, 0o644),
            ("syscall", "fcntl", H(0), F_GETFL),
            ("syscall", "fcntl64", H(0), F_GETFL),
            ("syscall", "fcntl64", H(0), F_DUPFD),
            ("write", H(3), b"via-dupfd"),
            ("syscall", "fcntl", H(3), F_DUPFD),
            ("write", H(5), b"+more"),
            ("syscall", "fcntl64", H(3), F_GETFL),
            ("syscall", "fcntl64", H(0), 99),
            ("syscall", "fcntl64", 77, F_GETFL),
            ("close", H(3)),
            ("close", H(5)),
            ("pread", H(0), 32, 0),
            ("close", H(0)),
        ],
    },
    # F_DUPFD's third argument is the lowest number the duplicate may
    # take; a negative one is EINVAL, after the EBADF of a bad fd.
    "fcntl-dupfd": {
        "needs_server": False,
        "script": [
            ("open", P("cat-dupfd.bin"), TRUNC, 0o644),
            ("open", "/system/bin/sh", vfs.O_RDONLY),
            ("syscall", "fcntl", H(0), F_DUPFD, 10),
            ("write", H(2), b"via-minfd"),
            ("syscall", "fcntl", H(0), F_DUPFD, 10),
            ("syscall", "fcntl64", H(1), F_DUPFD, 10),
            ("syscall", "fcntl", H(1), F_DUPFD, 2),
            ("syscall", "fcntl", H(0), F_DUPFD, -1),
            ("syscall", "fcntl64", H(1), F_DUPFD, -1),
            ("syscall", "fcntl", 77, F_DUPFD, -1),
            ("pread", H(4), 32, 0),
            ("pread", H(6), 4, 0),
            ("close", H(2)),
            ("close", H(4)),
            ("close", H(5)),
            ("close", H(6)),
            ("close", H(1)),
            ("pread", H(0), 32, 0),
            ("close", H(0)),
        ],
    },
    # Descriptor numbers stay below RLIMIT_NOFILE: a dup2 target out of
    # range is EBADF, an F_DUPFD minfd at the limit EINVAL, and no free
    # number at or above minfd EMFILE, on a CVM and on a host fd.
    "fd-limits": {
        "needs_server": False,
        "script": [
            ("open", P("cat-limits.bin"), TRUNC, 0o644),
            ("open", "/system/bin/sh", vfs.O_RDONLY),
            ("write", H(0), b"limits"),
            ("syscall", "dup2", H(0), -1),
            ("syscall", "dup2", H(1), -1),
            ("syscall", "dup2", H(0), RLIMIT_NOFILE),
            ("syscall", "dup2", H(1), 10**9),
            ("syscall", "dup2", 77, RLIMIT_NOFILE),
            ("syscall", "fcntl", H(0), F_DUPFD, RLIMIT_NOFILE),
            ("syscall", "fcntl64", H(1), F_DUPFD, 10**9),
            ("syscall", "fcntl", 77, F_DUPFD, RLIMIT_NOFILE),
            ("syscall", "dup2", H(0), LAST_FD),
            ("syscall", "fcntl", H(0), F_DUPFD, LAST_FD),
            ("syscall", "fcntl64", H(1), F_DUPFD, LAST_FD),
            ("fence", H(0)),
            ("pread", LAST_FD, 16, 0),
            ("close", LAST_FD),
            ("syscall", "fcntl", H(1), F_DUPFD, LAST_FD),
            ("pread", LAST_FD, 4, 0),
            ("close", LAST_FD),
            ("close", H(1)),
            ("syscall", "fcntl", H(0), F_DUPFD, LAST_FD),
            ("write", LAST_FD, b"+last"),
            ("close", LAST_FD),
            ("pread", H(0), 16, 0),
            ("close", H(0)),
            # A full table: every call that makes a descriptor is EMFILE
            # before it runs, so open(O_CREAT) makes no file, and a pipe
            # needs both its numbers free.
            ("open", P("cat-limits.bin"), vfs.O_RDWR),
            ("open", "/system/bin/sh", vfs.O_RDONLY),
            *[("syscall", "dup2", H(27), fd)
              for fd in range(5, RLIMIT_NOFILE)],
            ("open", P("cat-emfile.bin"), TRUNC, 0o644),
            ("pipe",),
            ("socket", AF_INET, SOCK_STREAM, 0),
            ("syscall", "dup", H(26)),
            ("syscall", "fcntl", H(26), F_DUPFD, 0),
            ("syscall", "fcntl", H(26), F_DUPFD, -1),
            ("syscall", "dup", H(27)),
            ("close", LAST_FD),
            ("pipe",),
            ("access", P("cat-emfile.bin"), 0),
            ("syscall", "dup", H(26)),
            ("close", LAST_FD),
            ("close", H(26)),
        ],
    },
    "split-mmap": {
        "needs_server": False,
        "script": [
            ("open", P("cat-mmap.bin"), TRUNC, 0o644),
            ("write", H(0), b"mapped-content"),
            ("fence", H(0)),
            ("syscall", "mmap", 4096, RW, 0, None, H(0), 0),
            ("peek", H(3), 14),
            ("mmap", 4096, RW, 0, None, H(0), 7),
            ("peek", H(5), 7),
            ("syscall", "mmap", 8192, RW, MAP_ANONYMOUS),
            ("peek", H(7), 8),
            ("syscall", "msync", H(3), 4096),
            ("syscall", "msync", H(7), 8),
            ("munmap", H(7), 8192),
            ("munmap", H(5), 4096),
            ("munmap", H(3), 4096),
            ("syscall", "mmap", 4096, RW, 0, None, 77, 0),
            ("fstat", H(0)),
            ("close", H(0)),
        ],
    },
    "split-clone": {
        "needs_server": False,
        "script": [
            ("open", P("cat-clone.bin"), TRUNC, 0o644),
            ("write", H(0), b"before-clone|"),
            ("syscall", "clone"),
            ("fork",),
            ("write", H(0), b"after-clone"),
            ("fence", H(0)),
            ("pread", H(0), 64, 0),
            ("close", H(0)),
        ],
    },
    "split-execve": {
        "needs_server": False,
        "script": [
            ("write_file", P("cat-exec"), build_pseudo_elf("cat", 0, {})),
            ("execve", P("cat-exec")),
            ("chmod", P("cat-exec"), 0o755),
            ("execve", P("cat-exec")),
            ("execve", P("cat-missing")),
            ("execve", P("")),
            ("execve", "/system/bin/sh"),
        ],
    },
}
"""Named differential scripts; together they must cover every
non-exempt redirect-class syscall through its veneer, and every
split-class call the layer has a handler for."""


def covered_ops():
    """Every libc op name any catalogue script exercises."""
    ops = set()
    for entry in SCRIPTS.values():
        for step in entry["script"]:
            ops.add(step[0])
    return ops


def covered_calls():
    """Every kernel call the catalogue reaches: the calls each veneer
    step forwards to, each raw ``syscall`` step's call, and ``ioctl``
    (every binder script transacts through it)."""
    calls = {"ioctl"} if BINDER_SCRIPTS else set()
    for entry in SCRIPTS.values():
        for step in entry["script"]:
            if step[0] == "syscall":
                calls.add(step[1])
            elif step[0] not in HARNESS_OPS:
                source = inspect.getsource(getattr(Libc, step[0]))
                calls.update(re.findall(r'self\.syscall\("(\w+)"', source))
    return calls


# -- binder ioctl surface -------------------------------------------------
#
# The binder device is reached through ioctl, not per-call syscalls, so
# its conformance universe is the set of ioctl request codes in
# ``repro.android.binder.BINDER_IOCTL_REQUESTS``.  Every request the
# layer delegates must be exercised by at least one op-script below (or
# carry a documented exemption); the scripts run through the same
# ``run_modes`` grammar via the app-context fallback in the harness.

BINDER_EXEMPT = {
    "IOC_WAIT_INPUT_EVT": "UI/input wait is host-pinned by policy "
                          "(Listing 1): it never crosses into the CVM, "
                          "it only fences staged binder windows; "
                          "exercised by the UI and input unit suites",
}
"""Binder ioctl requests deliberately outside the catalogue, each with
the reason it cannot (or need not) run differentially."""


BINDER_APP_PACKAGE = "com.catalogue.probe"
"""The package the differential harness enrolls; ``call_app`` against
``app:<this>`` exercises the register/lookup path on the app's own
exported endpoint."""


def _echo_handler(method, payload, sender_task):
    """Deterministic app-endpoint handler (no pids in the reply)."""
    return {"echo": method, "keys": sorted(payload or {})}


BINDER_SCRIPTS = {
    # Each script stays within one delegation domain (system services
    # in the CVM, app endpoints on the host) so the one-driver delivery
    # comparison (:func:`binder_domain_calls`) stays simple.
    "binder-transact": {
        "request": "BINDER_WRITE_READ",
        "script": [
            ("call_service", "location", "get_fix", {"blob": "x" * 112}),
            ("call_service", "power", "acquire_wakelock", {"tag": "cat"}),
            ("call_service", "power", "release_wakelock", {"tag": "cat"}),
            ("call_service", "location", "request_updates",
             {"interval_ms": 500}),
        ],
    },
    "binder-oneway": {
        "request": "BINDER_WRITE_READ",
        "script": [
            ("call_service_oneway", "location", "get_fix", {"n": 1}),
            ("call_service_oneway", "sensor", "read_accelerometer", {}),
            ("call_service_oneway", "power", "acquire_wakelock",
             {"tag": "ow"}),
            ("call_service_oneway", "power", "release_wakelock",
             {"tag": "ow"}),
            # the closing sync call is the fence-on-reply barrier: the
            # staged oneways must all land before its reply returns.
            ("call_service", "location", "get_fix", {"n": 2}),
        ],
    },
    "binder-reply-error": {
        "request": "BINDER_WRITE_READ",
        "script": [
            ("call_service", "location", "bogus_method", {}),
            ("call_service", "nosuchservice", "method", {}),
            ("call_service_oneway", "location", "bogus_method", {}),
            ("call_service_oneway", "nosuchservice", "method", {}),
            ("call_service", "location", "get_fix", {}),
        ],
    },
    "binder-register-lookup": {
        "request": "BINDER_WRITE_READ",
        "script": [
            ("export_service", _echo_handler),
            ("call_app", BINDER_APP_PACKAGE, "ping", {"k": 1}),
            ("call_app", "com.not.installed", "ping", {}),
        ],
    },
    "binder-bad-target": {
        # A target that is not a string names no service: ENOENT from
        # the service-manager lookup in every mode, sync and oneway,
        # never an unhandled error in the layer's host-pinned test.
        "request": "BINDER_WRITE_READ",
        "script": [
            ("call_service", None, "x", {}),
            ("call_service", 5, "x", {}),
            ("call_service_oneway", None, "x", {}),
            ("call_service_oneway", 5, "x", {}),
            ("call_service", "location", "get_fix", {}),
        ],
    },
    "binder-large-parcel": {
        "request": "BINDER_WRITE_READ",
        "script": [
            ("call_service", "location", "get_fix", {"blob": "x" * 8192}),
            ("call_service_oneway", "location", "request_updates",
             {"blob": "y" * 8192}),
            ("call_service", "power", "acquire_wakelock", {}),
        ],
    },
}
"""Named binder differential scripts, each tagged with the ioctl
request it exercises; together they must cover every delegated binder
request code."""


def binder_domain_calls(deliveries, world, label):
    """``(target, method)`` pairs delivered by the driver that serves
    binder script ``label``'s domain in ``world``, in order.

    ``deliveries`` is a :func:`tests.recorders.record_deliveries`
    recorder.  System services execute in the CVM's driver under
    Anception (the host's natively); app-exported ``app:*`` endpoints
    stay on the host in every mode (Section III-D).  Sender pids are
    world-specific (delegated transactions are stamped with the CVM
    proxy's pid), so equivalence is on what was called, in order.
    """
    anception = getattr(world, "anception", None)
    if anception is None or label == "binder-register-lookup":
        kernel = world.kernel
    else:
        kernel = anception.cvm.kernel
    return [(target, method) for _pid, target, method
            in deliveries.on(kernel)]


def covered_binder_requests():
    """Every binder ioctl request name any binder script exercises."""
    return {entry["request"] for entry in BINDER_SCRIPTS.values()}
