"""A libc-flavoured convenience wrapper around the syscall interface.

Simulated programs (apps, exploits, services) receive a :class:`Libc` bound
to their task.  Every method is a thin veneer over ``kernel.syscall`` so the
Anception interposition sees exactly the same call stream a real binary
would produce — the wrapper adds no semantics, only ergonomics.
"""

from __future__ import annotations

from repro.kernel import vfs as vfs_mod
from repro.kernel.loader import parse_pseudo_elf
from repro.kernel.net import AF_INET, SOCK_STREAM


class Libc:
    """Syscall veneer bound to one task on one kernel."""

    __snapshot__ = "auto"

    def __init__(self, kernel, task):
        self.kernel = kernel
        self.task = task

    def syscall(self, name, *args, **kwargs):
        return self.kernel.syscall(self.task, name, *args, **kwargs)

    # -- identity ---------------------------------------------------------

    def getpid(self):
        return self.syscall("getpid")

    def uname(self):
        return self.syscall("uname")

    def getcwd(self):
        return self.syscall("getcwd")

    def chdir(self, path):
        return self.syscall("chdir", path)

    def getuid(self):
        return self.syscall("getuid")

    def setuid(self, uid):
        return self.syscall("setuid", uid)

    # -- files --------------------------------------------------------------

    def open(self, path, flags=vfs_mod.O_RDONLY, mode=0o644):
        return self.syscall("open", path, flags, mode)

    def close(self, fd):
        return self.syscall("close", fd)

    def read(self, fd, length):
        return self.syscall("read", fd, length)

    def write(self, fd, data):
        return self.syscall("write", fd, data)

    def pread(self, fd, length, offset):
        return self.syscall("pread64", fd, length, offset)

    def pwrite(self, fd, data, offset):
        return self.syscall("pwrite64", fd, data, offset)

    def lseek(self, fd, offset, whence=vfs_mod.SEEK_SET):
        return self.syscall("lseek", fd, offset, whence)

    def stat(self, path):
        return self.syscall("stat", path)

    def lstat(self, path):
        return self.syscall("lstat", path)

    def fstat(self, fd):
        return self.syscall("fstat", fd)

    def access(self, path, mode=0):
        return self.syscall("access", path, mode)

    def mkdir(self, path, mode=0o755):
        return self.syscall("mkdir", path, mode)

    def rmdir(self, path):
        return self.syscall("rmdir", path)

    def unlink(self, path):
        return self.syscall("unlink", path)

    def rename(self, old, new):
        return self.syscall("rename", old, new)

    def chmod(self, path, mode):
        return self.syscall("chmod", path, mode)

    def chown(self, path, uid, gid):
        return self.syscall("chown", path, uid, gid)

    def truncate(self, path, length):
        return self.syscall("truncate", path, length)

    def symlink(self, target, linkpath):
        return self.syscall("symlink", target, linkpath)

    def fchmod(self, fd, mode):
        return self.syscall("fchmod", fd, mode)

    def fchown(self, fd, uid, gid):
        return self.syscall("fchown", fd, uid, gid)

    def ftruncate(self, fd, length):
        return self.syscall("ftruncate", fd, length)

    def fdatasync(self, fd):
        return self.syscall("fdatasync", fd)

    def listdir(self, path):
        return self.syscall("getdents", path)

    def readlink(self, path):
        return self.syscall("readlink", path)

    def ioctl(self, fd, request, arg=None):
        # Trap directly rather than through ``self.syscall``: input waits
        # and raw device ioctls are per-call paths.
        return self.kernel.syscall(self.task, "ioctl", fd, request, arg)

    def fsync(self, fd):
        return self.syscall("fsync", fd)

    def fence(self, fd=None):
        """Async-delegation barrier: drain staged write-behind and
        binder windows, surface deferred errnos.  A no-op (returning 0)
        on a native kernel or when both async lanes are off, so the
        same program runs everywhere.
        """
        layer = getattr(self.kernel, "interposition", None)
        if layer is None:
            return 0
        return layer.async_fence(self.task, fd)

    # -- vectored / batched I/O ------------------------------------------

    def readv(self, fd, lengths):
        """Read ``lengths[i]`` bytes per iovec entry; returns a list."""
        return self.syscall("readv", fd, tuple(lengths))

    def writev(self, fd, buffers):
        """Write each buffer in order; returns the total byte count."""
        return self.syscall("writev", fd, tuple(buffers))

    def syscall_batch(self, calls):
        """Run ``(name, *args)`` tuples as one batched dispatch window."""
        return self.kernel.syscall_batch(self.task, calls)

    # -- whole-file helpers (read/write loops, like stdio) ---------------

    def read_file(self, path):
        fd = self.open(path)
        try:
            chunks = []
            while True:
                chunk = self.read(fd, 65536)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            self.close(fd)

    def write_file(self, path, data, flags=None, mode=0o644):
        if flags is None:
            flags = vfs_mod.O_WRONLY | vfs_mod.O_CREAT | vfs_mod.O_TRUNC
        fd = self.open(path, flags, mode)
        try:
            return self.write(fd, data)
        finally:
            self.close(fd)

    def read_elf(self, path):
        """Open + read + parse a pseudo-ELF (the exploits' ELF-32 API)."""
        return parse_pseudo_elf(self.read_file(path))

    # -- sockets --------------------------------------------------------------

    def socket(self, family=AF_INET, type_=SOCK_STREAM, protocol=0):
        return self.syscall("socket", family, type_, protocol)

    def connect(self, fd, address):
        return self.syscall("connect", fd, address)

    def bind(self, fd, address):
        return self.syscall("bind", fd, address)

    def listen(self, fd, backlog=8):
        return self.syscall("listen", fd, backlog)

    def accept(self, fd):
        return self.syscall("accept", fd)

    def send(self, fd, data):
        return self.syscall("send", fd, data)

    def recv(self, fd, length):
        return self.syscall("recv", fd, length)

    def sendfile(self, out_fd, in_fd, offset, count):
        return self.syscall("sendfile", out_fd, in_fd, offset, count)

    # -- ipc -----------------------------------------------------------------

    def pipe(self):
        return self.syscall("pipe")

    def shmget(self, key, size, flags=0o1000):
        return self.syscall("shmget", key, size, flags)

    def shmat(self, shmid):
        return self.syscall("shmat", shmid)

    def shmdt(self, addr):
        return self.syscall("shmdt", addr)

    def shmctl(self, shmid, cmd=0):
        return self.syscall("shmctl", shmid, cmd)

    # -- memory --------------------------------------------------------------

    def mmap(self, length, prot, flags, addr=None, fd=None, offset=0):
        return self.syscall("mmap2", length, prot, flags, addr, fd, offset)

    def munmap(self, addr, length):
        return self.syscall("munmap", addr, length)

    def brk(self, new_brk_page):
        return self.syscall("brk", new_brk_page)

    # -- processes ------------------------------------------------------------

    def fork(self):
        return self.syscall("fork")

    def execve(self, path, argv=()):
        return self.syscall("execve", path, argv)

    def kill(self, pid, signum):
        return self.syscall("kill", pid, signum)

    def exit(self, code=0):
        return self.syscall("exit", code)

    def wait(self, pid=-1):
        return self.syscall("wait4", pid)
