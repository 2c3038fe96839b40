"""Sockets and the simulated internet.

Three families matter to the paper's exploits and workloads:

* **AF_INET** — apps (e.g. the banking app) connect to simulated servers
  registered on a shared :class:`Internet`; the CVM's stack and the host's
  stack both reach the same internet, which is how redirected network I/O
  still works.
* **AF_NETLINK** — vold listens on a netlink socket whose permissions were
  misconfigured so that *any* local sender can deliver messages to it
  (the GingerBreak vector).
* **PF_BLUETOOTH / SOCK_DGRAM** — has no ``sendpage`` operation; calling
  ``sendfile`` on such a socket dereferences a NULL function pointer in
  the owning kernel (CVE-2009-2692 sock_sendpage).
"""

from __future__ import annotations

import errno

from repro.errors import SyscallError


AF_UNIX = 1
AF_INET = 2
AF_NETLINK = 16
PF_BLUETOOTH = 31

SOCK_STREAM = 1
SOCK_DGRAM = 2
SOCK_RAW = 3

NETLINK_ROUTE = 0
NETLINK_KOBJECT_UEVENT = 15

FAMILIES_WITHOUT_SENDPAGE = frozenset({PF_BLUETOOTH, AF_NETLINK})
"""Socket families whose proto_ops lacked a sendpage member in the
pre-CVE-2009-2692 kernel; sendfile() on them jumps through NULL."""


class Socket:
    """One socket endpoint (device-like object living in an fd)."""

    __snapshot__ = "auto"

    def __init__(self, stack, family, type_, protocol, owner_pid):
        self.stack = stack
        self.sock_id = stack.alloc_sock_id()
        """Stack-local allocation number, the stable identity /proc/net
        renders (a CPython ``id()`` would differ run-to-run and across a
        snapshot restore)."""
        self.family = family
        self.type = type_
        self.protocol = protocol
        self.owner_pid = owner_pid
        self.bound_address = None
        self.connection = None
        self.unix_peer = None
        self.unix_service = None
        self.listening = False
        self.pending_accepts = []
        self.recv_queue = []
        self.closed = False

    # fd-table integration: sockets support read/write like files
    def read(self, open_file, length):
        return self.recv(length)

    def write(self, open_file, data):
        return self.send(data)

    def ioctl(self, task, open_file, request, arg):
        raise SyscallError(errno.ENOTTY, "socket ioctl")

    def send(self, data):
        if self.closed:
            raise SyscallError(errno.EBADF, "socket closed")
        if self.family == AF_NETLINK:
            self.stack.netlink_deliver(self, data)
            return len(data)
        if self.unix_service is not None:
            reply = self.unix_service(bytes(data))
            if reply is not None:
                self.recv_queue.append(bytes(reply))
            return len(data)
        if self.unix_peer is not None:
            if self.unix_peer.closed:
                raise SyscallError(errno.EPIPE, "peer closed")
            self.unix_peer.recv_queue.append(bytes(data))
            return len(data)
        if self.connection is None:
            raise SyscallError(errno.ENOTCONN, "not connected")
        self.connection.client_send(data)
        return len(data)

    def recv(self, length):
        if self.recv_queue:
            data = self.recv_queue.pop(0)
            return data[:length]
        if self.connection is not None:
            return self.connection.client_recv(length)
        return b""

    def close(self):
        self.closed = True
        if self.connection is not None:
            self.connection.close()
        self.stack.forget(self)

    def __repr__(self):
        return (
            f"Socket(family={self.family}, type={self.type}, "
            f"proto={self.protocol}, pid={self.owner_pid})"
        )


class Connection:
    """A client<->server byte stream over the simulated internet."""

    __snapshot__ = "auto"

    def __init__(self, address, server):
        self.address = address
        self.server = server
        self._to_client = []
        self.client_log = []
        self.open = True

    def client_send(self, data):
        if not self.open:
            raise SyscallError(errno.EPIPE, "connection closed")
        self.client_log.append(bytes(data))
        reply = self.server.handle_data(self, bytes(data))
        if reply:
            self._to_client.append(reply)

    def client_recv(self, length):
        if not self._to_client:
            return b""
        data = self._to_client.pop(0)
        return data[:length]

    def close(self):
        self.open = False


class Internet:
    """Global registry of simulated remote servers, shared by all stacks.

    Servers implement ``handle_connect(conn)`` (optional) and
    ``handle_data(conn, data) -> reply bytes``.
    """

    __snapshot__ = "auto"

    def __init__(self):
        self._servers = {}
        self.connection_log = []

    def register_server(self, address, server):
        self._servers[address] = server

    def connect(self, address, via_stack):
        server = self._servers.get(address)
        if server is None:
            raise SyscallError(errno.ECONNREFUSED, str(address))
        conn = Connection(address, server)
        self.connection_log.append((address, via_stack.label))
        handle_connect = getattr(server, "handle_connect", None)
        if handle_connect is not None:
            handle_connect(conn)
        return conn


class NetworkStack:
    """Per-kernel socket layer.

    Netlink delivery is synchronous: listeners register a callback which
    runs in the context of the owning kernel (this is where vold's
    vulnerable message handler lives).
    """

    __snapshot__ = "auto"

    def __init__(self, kernel, internet, label):
        self.kernel = kernel
        self.internet = internet
        self.label = label
        self._sockets = []
        self._sock_seq = 0
        self._netlink_listeners = {}
        self._unix_listeners = {}
        self._unix_services = {}
        self.firewall = None
        """Optional callable ``address -> bool``; False blocks the
        connection.  On an Anception device the host installs this on
        the CVM's stack: "the CVM's external connectivity can be
        controlled from the host by firewall rules" (Section III-D)."""
        self.blocked_connections = []

    def alloc_sock_id(self):
        self._sock_seq += 1
        return self._sock_seq

    def create_socket(self, family, type_, protocol, owner_pid):
        if family not in (AF_UNIX, AF_INET, AF_NETLINK, PF_BLUETOOTH):
            raise SyscallError(errno.EAFNOSUPPORT, f"family {family}")
        sock = Socket(self, family, type_, protocol, owner_pid)
        self._sockets.append(sock)
        return sock

    def forget(self, sock):
        if sock in self._sockets:
            self._sockets.remove(sock)
        if sock.bound_address in self._unix_listeners:
            if self._unix_listeners[sock.bound_address] is sock:
                del self._unix_listeners[sock.bound_address]

    # -- unix domain sockets (local IPC, "supported similar to Network
    # I/O" per Section III-D) ------------------------------------------------

    def unix_bind(self, sock, path):
        if path in self._unix_listeners:
            raise SyscallError(errno.EADDRINUSE, path)
        sock.bound_address = path
        self._unix_listeners[path] = sock

    def unix_listen(self, sock):
        if sock.bound_address not in self._unix_listeners:
            raise SyscallError(errno.EINVAL, "listen on unbound socket")
        sock.listening = True

    def unix_service(self, path, handler):
        """Register a daemon command socket (FrameworkListener style).

        ``handler(data) -> reply bytes`` runs synchronously in the
        daemon's kernel when a connected client sends; this is how
        command daemons like vold's framework socket and adbd answer.
        """
        self._unix_services[path] = handler

    def unix_connect(self, sock, path):
        if path in self._unix_services:
            sock.unix_service = self._unix_services[path]
            return
        listener = self._unix_listeners.get(path)
        if listener is None or not listener.listening:
            raise SyscallError(errno.ECONNREFUSED, path)
        server_end = Socket(self, AF_UNIX, sock.type, 0, listener.owner_pid)
        self._sockets.append(server_end)
        sock.unix_peer = server_end
        server_end.unix_peer = sock
        listener.pending_accepts.append(server_end)

    def unix_accept(self, listener):
        if not listener.listening:
            raise SyscallError(errno.EINVAL, "accept on non-listener")
        if not listener.pending_accepts:
            raise SyscallError(errno.EAGAIN, "no pending connections")
        return listener.pending_accepts.pop(0)

    def connect(self, sock, address):
        if sock.family == AF_NETLINK:
            sock.bound_address = address
            return
        if sock.family == AF_UNIX:
            self.unix_connect(sock, address)
            return
        if sock.family != AF_INET:
            raise SyscallError(errno.EOPNOTSUPP, f"connect family {sock.family}")
        if self.firewall is not None and not self.firewall(address):
            self.blocked_connections.append(address)
            raise SyscallError(
                errno.ECONNREFUSED, f"firewalled: {address}"
            )
        sock.connection = self.internet.connect(address, self)

    # -- netlink -----------------------------------------------------------

    def netlink_listen(self, sock, callback):
        """Register ``callback(sender_socket, data)`` for a protocol.

        Permission check deliberately reproduces the vold misconfiguration:
        there is none — any local socket may deliver (GingerBreak's entry).
        """
        self._netlink_listeners.setdefault(sock.protocol, []).append(
            (sock, callback)
        )

    def netlink_deliver(self, sender, data):
        if sender.protocol == NETLINK_KOBJECT_UEVENT:
            # Userspace-originated uevents also reach the kernel's hotplug
            # machinery (the Exploid vector).
            self.kernel.process_uevent(data)
        listeners = self._netlink_listeners.get(sender.protocol, [])
        if not listeners:
            if sender.protocol == NETLINK_KOBJECT_UEVENT:
                return
            raise SyscallError(errno.ECONNREFUSED, "no netlink listener")
        for _sock, callback in list(listeners):
            callback(sender, data)

    def netlink_sockets(self):
        out = []
        for entries in self._netlink_listeners.values():
            out.extend(sock for sock, _cb in entries)
        return out

    # -- sendfile / sendpage --------------------------------------------------

    def sendpage(self, task, sock, data):
        """Zero-copy page send; the CVE-2009-2692 trigger point.

        On an affected family the kernel jumps through a NULL proto_ops
        pointer: if the *calling task's address space in this kernel* has
        an executable page mapped at address 0, that shellcode runs with
        kernel privilege; otherwise the kernel oopses.
        """
        if sock.family in FAMILIES_WITHOUT_SENDPAGE:
            return self.kernel.null_dereference(task)
        if sock.connection is None:
            raise SyscallError(errno.ENOTCONN, "sendpage on unconnected socket")
        sock.connection.client_send(data)
        return {"kind": "sent", "nbytes": len(data)}
