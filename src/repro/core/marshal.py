"""Argument marshaling and pointer (fd) translation.

In the real system 46.7% of Anception's 5.2K lines pack syscall arguments
— including chasing pointers — into the shared pages.  Here marshaling
serves two purposes:

* **byte accounting** — every forwarded call's inbound payload and
  outbound result are measured so the channel can charge the calibrated
  per-byte copy costs for real traffic;
* **fd translation** — descriptor numbers live in two spaces (the app's
  on the host, the proxy's in the CVM); :class:`FdTranslationTable`
  rewrites one into the other, which is the moral equivalent of pointer
  rewriting.
"""

from __future__ import annotations

import errno

from repro.core.policy import FD_CALLS, FD_PAIR_CALLS
from repro.errors import SimulationError, SyscallError


FD_ALLOCATING_CALLS = frozenset({"open", "socket", "accept", "pipe"})
"""Redirected calls whose result names new proxy descriptors, for which
the layer installs stubs in the app's host fd space when the call
completes."""


def encoded_size(value):
    """Bytes this value occupies in the marshaling buffer."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (list, tuple)):
        return sum(encoded_size(v) for v in value) + 4
    if isinstance(value, dict):
        return (
            sum(encoded_size(k) + encoded_size(v) for k, v in value.items())
            + 4
        )
    # Structured objects (Transaction, ...) expose payload_size when they
    # know their wire footprint; otherwise fall back to repr length.
    size = getattr(value, "payload_size", None)
    if size is not None:
        return int(size) + 16
    return len(repr(value).encode())


def wire_size(name, args, kwargs):
    """Total wire footprint of a forwarded call (name + args + kwargs).

    Equal to summing :func:`encoded_size` over the call.  The argument
    types every redirected call carries -- ``int``, bytes-likes and
    ASCII ``str`` -- are sized inline; everything else (``bool``, other
    ``int`` subclasses, non-ASCII text, containers, structured objects)
    goes through :func:`encoded_size`.
    """
    size = len(name.encode())
    for arg in args:
        kind = type(arg)
        if kind is int:
            size += 8
        elif kind is bytes or kind is bytearray or kind is memoryview:
            size += len(arg)
        elif kind is str and arg.isascii():
            size += len(arg)
        else:
            size += encoded_size(arg)
    if kwargs:
        size += sum(
            encoded_size(k) + encoded_size(v) for k, v in kwargs.items()
        )
    return size


def _render_into(buf, size, name, args):
    """Flatten the call into ``buf[:size]``.

    The rendering is truncated at ``size`` (kwargs contribute size but
    no rendered bytes, exactly like the original encoder); ``buf`` is
    fresh, so any tail the rendering leaves is already zero.
    """
    piece = name.encode()
    pos = 0
    for arg in args:
        n = len(piece)
        if n >= size - pos:
            break
        buf[pos:pos + n] = piece
        pos += n
        if isinstance(arg, (bytes, bytearray, memoryview)):
            # Bytes-likes travel as their bytes; a memoryview's repr
            # would put a heap address on the wire.
            piece = arg
        else:
            piece = repr(arg).encode()
    # The last piece, or the first one that reaches ``size``.
    n = len(piece)
    if n > size - pos:
        n = size - pos
        piece = memoryview(piece)[:n]
    buf[pos:pos + n] = piece


def marshal_call(name, args, kwargs):
    """Return (wire_bytes, payload_size) for a forwarded call.

    The wire bytes are a flattened rendering of the call — real data that
    will transit the shared pages; objects are passed by reference on the
    Python side (a documented simulation shortcut), but their *sizes* are
    faithful.  Rendered in exactly one pass into a right-sized buffer
    (the old encoder materialised the payload three times: append, slice,
    pad).
    """
    size = wire_size(name, args, kwargs)
    buf = bytearray(size)  # fresh: the tail is already zero-filled
    _render_into(buf, size, name, args)
    return bytes(buf), size


def marshal_call_into(name, args, kwargs):
    """Encode for a synchronous submit: returns ``(wire, payload_size)``.

    Same wire bytes as :func:`marshal_call`, left in the fresh
    ``bytearray`` they were rendered into instead of flattened to
    ``bytes``: the ring descriptor owns that buffer until the flush
    window retires, and nothing else refers to it.
    """
    size = wire_size(name, args, kwargs)
    wire = bytearray(size)  # fresh: the tail is already zero-filled
    _render_into(wire, size, name, args)
    return wire, size


def result_size(result):
    """Outbound payload size of a syscall result.

    The two result types nearly every call returns, an ``int`` and
    ``bytes``, are sized inline; anything else goes through
    :func:`encoded_size`.
    """
    kind = type(result)
    if kind is int:
        return 8
    if kind is bytes:
        return len(result)
    return encoded_size(result)


_ZEROS = bytes(32 * 1024)
"""Shared all-zero buffer backing :func:`zeros` views (one full 8-page
channel window)."""


def zeros(length):
    """A read-only all-zero buffer of ``length`` bytes, shared when small.

    Completion descriptors carry ``length`` zero bytes (the simulation
    models result sizes, not result content); serving them as views over
    one shared buffer removes a per-completion allocation.
    """
    if length <= len(_ZEROS):
        return memoryview(_ZEROS)[:length]
    return memoryview(bytes(length))


_PARCEL_SCALARS = frozenset({str, bytes, int, float, bool, type(None)})
"""Immutable parcel leaves :func:`copy_parcel` passes through."""


def copy_parcel(value):
    """A binder parcel as the far side of the host/CVM boundary sees it.

    A real parcel crosses as bytes, so neither side can reach the
    other's objects through it.  Dicts, lists, tuples, sets and
    bytearrays are rebuilt (set members are hashable, so immutable);
    immutable scalars pass through inside the comprehension, so a flat
    parcel costs one call.  Objects of any other type pass by
    reference: the simulation has no wire format for them.
    """
    if isinstance(value, dict):
        return {key: item if type(item) in _PARCEL_SCALARS
                else copy_parcel(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [item if type(item) in _PARCEL_SCALARS
                 else copy_parcel(item) for item in value]
        return items if isinstance(value, list) else tuple(items)
    if isinstance(value, set):
        return set(value)
    if isinstance(value, bytearray):
        return bytearray(value)
    return value


class FdTranslationTable:
    """Host-fd -> proxy-fd translation for one enrolled task.

    Reads the task's own fd table: the :class:`RemoteFdStub` the layer
    installs there for a CVM descriptor is the one record of its proxy
    fd, so a stub the host fork copied or a lane reboot dropped needs
    no second table kept in step.
    """

    __snapshot__ = "auto"

    def __init__(self, fd_table):
        self.fd_table = fd_table

    def to_proxy(self, host_fd):
        stub = self.fd_table.get(host_fd)
        if stub.__class__ is not RemoteFdStub:
            raise SimulationError(f"host fd {host_fd} is not a CVM resource")
        return stub.proxy_fd

    def is_remote(self, host_fd):
        return self.fd_table.get(host_fd).__class__ is RemoteFdStub

    __contains__ = is_remote

    def remote_fds(self):
        return {fd for fd, desc in self.fd_table.items()
                if desc.__class__ is RemoteFdStub}

    def translate_args(self, name, args):
        """Rewrite leading fd arguments into the proxy's fd space.

        The policy only redirects a call whose fds all hold stubs, so an
        fd that does not names a descriptor a lane reboot dropped since:
        it fails with EBADF on the host, and the call does not cross.
        """
        if not args:
            return args
        table = self.fd_table
        if name in FD_CALLS:
            stub = table.get(args[0])
            if stub.__class__ is not RemoteFdStub:
                raise _dropped_fd(name, args[0])
            return (stub.proxy_fd,) + tuple(args[1:])
        if name in FD_PAIR_CALLS:
            out_fd, in_fd, *rest = args
            out_stub, in_stub = table.get(out_fd), table.get(in_fd)
            if out_stub.__class__ is not RemoteFdStub:
                raise _dropped_fd(name, out_fd)
            if in_stub.__class__ is not RemoteFdStub:
                raise _dropped_fd(name, in_fd)
            return (out_stub.proxy_fd, in_stub.proxy_fd, *rest)
        return args


def _dropped_fd(name, fd):
    return SyscallError(errno.EBADF, f"fd {fd}", call=name)


class RemoteFdStub:
    """Placeholder installed in the host fd table for a CVM resource.

    Keeps the app's descriptor numbering dense and collision-free, and
    is the one record of the proxy fd the host fd names; any direct use
    without going through the redirection layer is a bug.
    """

    __snapshot__ = "auto"

    def __init__(self, proxy_fd, description=""):
        self.proxy_fd = proxy_fd
        self.description = description

    def dup(self):
        return self

    def close(self):
        # Actual close is forwarded by the layer's split handler.
        return None

    def __repr__(self):
        return f"RemoteFdStub(proxy_fd={self.proxy_fd}, {self.description})"
