"""Virtual filesystem: inodes, permissions, descriptors, mounts.

The Android filesystem split that Anception's file-I/O redirection relies on
(Section III-D) is modelled directly:

* ``/system`` — read-only system partition (libraries, privileged binaries),
* ``/data/app`` — installed app code, permission-protected,
* ``/data/data/<pkg>`` — per-app private data directories guarded by the
  app's UID,
* ``/dev`` — device nodes (binder, framebuffer, input, netlink is a socket
  family rather than a node),
* ``/proc`` — generated from kernel state on lookup.
"""

from __future__ import annotations

import enum
import errno
import posixpath
import stat as stat_mod

from repro.errors import SimulationError, SyscallError


O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class InodeKind(enum.Enum):
    FILE = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"
    DEVICE = "device"


class Inode:
    """A filesystem object.

    ``device`` (for DEVICE inodes) is any object implementing the subset of
    ``read/write/ioctl/mmap`` hooks it supports; unsupported operations
    raise the appropriate errno.
    """

    __snapshot__ = "auto"

    _next_ino = [1]

    def __init__(self, kind, mode, uid=0, gid=0):
        self.ino = Inode._next_ino[0]
        Inode._next_ino[0] += 1
        self.kind = kind
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.data = bytearray() if kind is InodeKind.FILE else None
        self.children = {} if kind is InodeKind.DIRECTORY else None
        self.symlink_target = None
        self.device = None
        self.nlink = 1

    @property
    def size(self):
        if self.kind is InodeKind.FILE:
            return len(self.data)
        return 0

    def check_permission(self, creds, want_read=False, want_write=False,
                         want_exec=False):
        """Classic Unix mode-bit check; effective-root bypasses rwx."""
        if creds.is_root():
            return
        if creds.euid == self.uid:
            shift = 6
        elif creds.in_group(self.gid):
            shift = 3
        else:
            shift = 0
        bits = (self.mode >> shift) & 0o7
        if want_read and not bits & 0o4:
            raise SyscallError(errno.EACCES, "read permission denied")
        if want_write and not bits & 0o2:
            raise SyscallError(errno.EACCES, "write permission denied")
        if want_exec and not bits & 0o1:
            raise SyscallError(errno.EACCES, "exec permission denied")

    def __repr__(self):
        return f"Inode(ino={self.ino}, kind={self.kind.value}, mode={oct(self.mode)})"


def make_dir(mode=0o755, uid=0, gid=0):
    return Inode(InodeKind.DIRECTORY, mode, uid, gid)


def make_file(content=b"", mode=0o644, uid=0, gid=0):
    inode = Inode(InodeKind.FILE, mode, uid, gid)
    inode.data = bytearray(content)
    return inode


def make_device(device, mode=0o600, uid=0, gid=0):
    inode = Inode(InodeKind.DEVICE, mode, uid, gid)
    inode.device = device
    return inode


def make_symlink(target, uid=0, gid=0):
    inode = Inode(InodeKind.SYMLINK, 0o777, uid, gid)
    inode.symlink_target = target
    return inode


class Filesystem:
    """An inode tree with a root directory.

    ``readonly`` models mount-level read-only (the /system partition);
    writes through the VFS fail with EROFS regardless of mode bits.
    """

    __snapshot__ = "auto"

    def __init__(self, name, readonly=False):
        self.name = name
        self.readonly = readonly
        self.root = make_dir()

    def lookup(self, inode, component, creds):
        """Resolve one path component inside a directory of this fs."""
        if inode.kind is not InodeKind.DIRECTORY:
            raise SyscallError(errno.ENOTDIR, component)
        inode.check_permission(creds, want_exec=True)
        child = inode.children.get(component)
        if child is None:
            raise SyscallError(errno.ENOENT, component)
        return child

    def list_children(self, inode):
        """Directory listing; synthetic filesystems override this."""
        return sorted(inode.children)


class VFS:
    """Mount table + path resolution + syscall-facing file operations."""

    __snapshot__ = "auto"

    MAX_SYMLINK_DEPTH = 8

    def __init__(self, rootfs):
        self.rootfs = rootfs
        self._mounts = {}

    def mount(self, path, filesystem):
        path = posixpath.normpath(path)
        if path == "/":
            raise SimulationError("cannot remount /")
        self._mounts[path] = filesystem

    # -- path resolution ---------------------------------------------------

    def _split_mount(self, path):
        """Return (filesystem, path-within-filesystem) for ``path``."""
        best, best_fs = "", self.rootfs
        for mount_path, fs in self._mounts.items():
            if path == mount_path or path.startswith(mount_path + "/"):
                if len(mount_path) > len(best):
                    best, best_fs = mount_path, fs
        inner = path[len(best):] or "/"
        return best_fs, inner

    def resolve(self, path, creds, follow_symlinks=True, _depth=0):
        """Resolve an absolute, normalised path to an inode."""
        if _depth > self.MAX_SYMLINK_DEPTH:
            raise SyscallError(errno.ELOOP, path)
        fs, inner = self._split_mount(path)
        mount_prefix = path[: len(path) - len(inner)] or "/"
        inode = fs.root
        walked = []
        parts = [p for p in inner.split("/") if p]
        for i, part in enumerate(parts):
            inode = fs.lookup(inode, part, creds)
            walked.append(part)
            if inode.kind is InodeKind.SYMLINK:
                is_last = i == len(parts) - 1
                if is_last and not follow_symlinks:
                    return inode
                target = inode.symlink_target
                if not target.startswith("/"):
                    # Relative targets resolve against the link's own
                    # directory in the full (mount-aware) namespace.
                    target = posixpath.join(
                        mount_prefix, *walked[:-1], target
                    )
                rest = "/".join(parts[i + 1:])
                full = posixpath.normpath(
                    posixpath.join(target, rest) if rest else target
                )
                return self.resolve(full, creds, follow_symlinks, _depth + 1)
        return inode

    def resolve_parent(self, path, creds):
        """Return (parent inode, final component, owning fs)."""
        path = posixpath.normpath(path)
        parent_path, name = posixpath.split(path)
        if not name:
            raise SyscallError(errno.EINVAL, path)
        fs, _ = self._split_mount(path)
        parent = self.resolve(parent_path or "/", creds)
        if parent.kind is not InodeKind.DIRECTORY:
            raise SyscallError(errno.ENOTDIR, parent_path)
        return parent, name, fs

    def exists(self, path, creds):
        try:
            self.resolve(path, creds)
            return True
        except SyscallError:
            return False

    # -- operations ----------------------------------------------------------

    def open(self, path, flags, creds, mode=0o644):
        """Open a path, honouring O_CREAT/O_EXCL/O_TRUNC, return OpenFile."""
        path = posixpath.normpath(path)
        fs, _ = self._split_mount(path)
        accmode = flags & 0x3
        want_read = accmode in (O_RDONLY, O_RDWR)
        want_write = accmode in (O_WRONLY, O_RDWR)
        try:
            inode = self.resolve(path, creds)
            if flags & O_CREAT and flags & O_EXCL:
                raise SyscallError(errno.EEXIST, path)
        except SyscallError as exc:
            if exc.errno != errno.ENOENT or not flags & O_CREAT:
                raise
            if fs.readonly:
                raise SyscallError(errno.EROFS, path) from None
            parent, name, fs = self.resolve_parent(path, creds)
            parent.check_permission(creds, want_write=True)
            inode = make_file(mode=mode & 0o777, uid=creds.euid, gid=creds.egid)
            parent.children[name] = inode
        if inode.kind is InodeKind.DIRECTORY and want_write:
            raise SyscallError(errno.EISDIR, path)
        inode.check_permission(creds, want_read=want_read, want_write=want_write)
        if want_write and fs.readonly:
            raise SyscallError(errno.EROFS, path)
        if flags & O_TRUNC and inode.kind is InodeKind.FILE:
            inode.data = bytearray()
        return OpenFile(inode, path, flags)

    def mkdir(self, path, creds, mode=0o755):
        parent, name, fs = self.resolve_parent(path, creds)
        if fs.readonly:
            raise SyscallError(errno.EROFS, path)
        parent.check_permission(creds, want_write=True)
        if name in parent.children:
            raise SyscallError(errno.EEXIST, path)
        child = make_dir(mode & 0o777, creds.euid, creds.egid)
        parent.children[name] = child
        return child

    def unlink(self, path, creds):
        parent, name, fs = self.resolve_parent(path, creds)
        if fs.readonly:
            raise SyscallError(errno.EROFS, path)
        parent.check_permission(creds, want_write=True)
        inode = parent.children.get(name)
        if inode is None:
            raise SyscallError(errno.ENOENT, path)
        if inode.kind is InodeKind.DIRECTORY:
            raise SyscallError(errno.EISDIR, path)
        del parent.children[name]
        return inode

    def rmdir(self, path, creds):
        parent, name, fs = self.resolve_parent(path, creds)
        if fs.readonly:
            raise SyscallError(errno.EROFS, path)
        parent.check_permission(creds, want_write=True)
        inode = parent.children.get(name)
        if inode is None:
            raise SyscallError(errno.ENOENT, path)
        if inode.kind is not InodeKind.DIRECTORY:
            raise SyscallError(errno.ENOTDIR, path)
        if inode.children:
            raise SyscallError(errno.ENOTEMPTY, path)
        del parent.children[name]

    def rename(self, old, new, creds):
        old_parent, old_name, old_fs = self.resolve_parent(old, creds)
        new_parent, new_name, new_fs = self.resolve_parent(new, creds)
        if old_fs.readonly or new_fs.readonly:
            raise SyscallError(errno.EROFS, old)
        old_parent.check_permission(creds, want_write=True)
        new_parent.check_permission(creds, want_write=True)
        inode = old_parent.children.get(old_name)
        if inode is None:
            raise SyscallError(errno.ENOENT, old)
        new_parent.children[new_name] = inode
        del old_parent.children[old_name]

    def symlink(self, target, linkpath, creds):
        parent, name, fs = self.resolve_parent(linkpath, creds)
        if fs.readonly:
            raise SyscallError(errno.EROFS, linkpath)
        parent.check_permission(creds, want_write=True)
        if name in parent.children:
            raise SyscallError(errno.EEXIST, linkpath)
        parent.children[name] = make_symlink(target, creds.euid, creds.egid)

    def chmod(self, path, mode, creds):
        inode = self.resolve(path, creds)
        if not creds.is_root() and creds.euid != inode.uid:
            raise SyscallError(errno.EPERM, path)
        inode.mode = mode & 0o7777

    def chown(self, path, uid, gid, creds):
        if not creds.is_root():
            raise SyscallError(errno.EPERM, path)
        inode = self.resolve(path, creds)
        if uid >= 0:
            inode.uid = uid
        if gid >= 0:
            inode.gid = gid

    def stat(self, path, creds, follow_symlinks=True):
        inode = self.resolve(path, creds, follow_symlinks)
        return self.stat_inode(inode)

    @staticmethod
    def stat_inode(inode):
        return StatResult(
            st_ino=inode.ino,
            st_mode=_KIND_BITS[inode.kind._value_] | inode.mode,
            st_uid=inode.uid,
            st_gid=inode.gid,
            st_size=inode.size,
            st_nlink=inode.nlink,
        )

    def listdir(self, path, creds):
        path = posixpath.normpath(path)
        inode = self.resolve(path, creds)
        if inode.kind is not InodeKind.DIRECTORY:
            raise SyscallError(errno.ENOTDIR, path)
        inode.check_permission(creds, want_read=True)
        fs, _ = self._split_mount(path)
        return fs.list_children(inode)


_KIND_BITS = {
    InodeKind.FILE.value: stat_mod.S_IFREG,
    InodeKind.DIRECTORY.value: stat_mod.S_IFDIR,
    InodeKind.SYMLINK.value: stat_mod.S_IFLNK,
    InodeKind.DEVICE.value: stat_mod.S_IFCHR,
}
"""``st_mode`` file-type bits by inode kind, keyed by the member's
value: hashing an enum member runs Python-level enum code, a string's
hash does not."""


class StatResult:
    """A small stat buffer (subset of ``struct stat``)."""

    __snapshot__ = "auto"

    __slots__ = ("st_ino", "st_mode", "st_uid", "st_gid", "st_size", "st_nlink")

    def __init__(self, st_ino, st_mode, st_uid, st_gid, st_size, st_nlink):
        self.st_ino = st_ino
        self.st_mode = st_mode
        self.st_uid = st_uid
        self.st_gid = st_gid
        self.st_size = st_size
        self.st_nlink = st_nlink

    def is_dir(self):
        return stat_mod.S_ISDIR(self.st_mode)

    def is_file(self):
        return stat_mod.S_ISREG(self.st_mode)


class OpenFile:
    """An open file description (shared across dup'ed descriptors)."""

    __snapshot__ = "auto"

    def __init__(self, inode, path, flags):
        self.inode = inode
        self.path = path
        self.flags = flags
        self.offset = 0
        self.refcount = 1

    @property
    def readable(self):
        return self.flags & 0x3 in (O_RDONLY, O_RDWR)

    @property
    def writable(self):
        return self.flags & 0x3 in (O_WRONLY, O_RDWR)

    def read(self, length):
        if not self.readable:
            raise SyscallError(errno.EBADF, self.path, call="read")
        if self.inode.kind is InodeKind.DEVICE:
            return self.inode.device.read(self, length)
        if self.inode.kind is InodeKind.DIRECTORY:
            raise SyscallError(errno.EISDIR, self.path, call="read")
        data = bytes(self.inode.data[self.offset : self.offset + length])
        self.offset += len(data)
        return data

    def write(self, data):
        if not self.writable:
            raise SyscallError(errno.EBADF, self.path, call="write")
        if self.inode.kind is InodeKind.DEVICE:
            return self.inode.device.write(self, data)
        if not data:
            # Linux writes nothing: no size change, no offset move.
            return 0
        if self.flags & O_APPEND:
            self.offset = len(self.inode.data)
        end = self.offset + len(data)
        if end > len(self.inode.data):
            self.inode.data.extend(b"\x00" * (end - len(self.inode.data)))
        self.inode.data[self.offset : end] = data
        self.offset = end
        return len(data)

    def pread(self, length, offset):
        if offset < 0:
            raise SyscallError(errno.EINVAL, "negative offset", call="pread64")
        saved, self.offset = self.offset, offset
        try:
            return self.read(length)
        finally:
            self.offset = saved

    def pwrite(self, data, offset):
        if offset < 0:
            raise SyscallError(errno.EINVAL, "negative offset",
                               call="pwrite64")
        saved, self.offset = self.offset, offset
        try:
            return self.write(data)
        finally:
            self.offset = saved

    def lseek(self, offset, whence):
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self.offset + offset
        elif whence == SEEK_END:
            new = self.inode.size + offset
        else:
            raise SyscallError(errno.EINVAL, f"whence {whence}", call="lseek")
        if new < 0:
            raise SyscallError(errno.EINVAL, "negative offset", call="lseek")
        self.offset = new
        return new

    def ioctl(self, task, request, arg):
        if self.inode.kind is InodeKind.DEVICE:
            return self.inode.device.ioctl(task, self, request, arg)
        raise SyscallError(errno.ENOTTY, self.path, call="ioctl")

    def dup(self):
        self.refcount += 1
        return self

    def close(self):
        self.refcount -= 1
        if self.refcount == 0 and self.inode.kind is InodeKind.DEVICE:
            release = getattr(self.inode.device, "release", None)
            if release is not None:
                release(self)

    def __repr__(self):
        return f"OpenFile({self.path!r}, offset={self.offset})"
