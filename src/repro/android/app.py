"""The app model: manifests, contexts, and the app base class.

Apps are Python classes whose ``main(ctx)`` plays the role of the APK's
code: everything they do goes through :class:`AppContext`, which only
exposes system calls and binder IPC — the same interface a real app has.
Whether those calls land on the host or in the CVM is invisible to the
app, which is the paper's "supports unmodified apps" property.
"""

from __future__ import annotations

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    TF_ONE_WAY,
    Transaction,
)
from repro.errors import ReproError
from repro.kernel.libc import Libc


class AppManifest:
    """Static description of an installable app."""

    __snapshot__ = "auto"

    def __init__(self, package, version="1.0", permissions=(),
                 initial_data=None, payload=None, code_units=2000,
                 shared_user_id=None):
        self.package = package
        self.version = version
        self.permissions = tuple(permissions)
        self.initial_data = dict(initial_data or {})
        self.payload = payload
        self.code_units = code_units
        self.shared_user_id = shared_user_id
        """Android's sharedUserId: apps declaring the same id (and
        signed by the same key, which we assume) run under one UID and
        may access each other's files."""

    def __repr__(self):
        return f"AppManifest({self.package!r} v{self.version})"


class App:
    """Base class for simulated apps; subclass and override ``main``."""

    __snapshot__ = "auto"

    manifest = AppManifest("com.example.app")

    def main(self, ctx):
        raise NotImplementedError

    @property
    def package(self):
        return self.manifest.package


class AppContext:
    """Everything a running app may touch.

    Wraps the task's :class:`~repro.kernel.libc.Libc` and adds the binder
    conveniences every Android app uses (service calls, window creation,
    input waits).
    """

    __snapshot__ = "auto"

    def __init__(self, kernel, task, package, data_dir):
        self.kernel = kernel
        self.task = task
        self.package = package
        self.data_dir = data_dir
        self.libc = Libc(kernel, task)
        self._binder_fd = None

    # -- paths ------------------------------------------------------------

    def data_path(self, relative):
        return f"{self.data_dir}/{relative}"

    # -- userspace computation ----------------------------------------------

    def compute(self, units):
        """Charge pure-userspace CPU work (runs at native speed always)."""
        kernel = self.kernel
        clock = kernel.clock
        delta_ns = units * kernel.costs.cpu_unit_ns
        # Fractional or negative work takes advance's int()/ValueError.
        if clock.dormant and delta_ns.__class__ is int and delta_ns >= 0:
            clock._now_ns += delta_ns
        else:
            clock.advance(delta_ns, "app:compute")

    # -- binder --------------------------------------------------------------

    @property
    def binder_fd(self):
        if self._binder_fd is None:
            self._binder_fd = self.libc.open("/dev/binder", 0x2)  # O_RDWR
        return self._binder_fd

    def call_service(self, target, method, payload=None):
        """Synchronous binder call into a system service.

        Traps straight into the kernel: libc's ``ioctl`` veneer adds no
        semantics, and every binder call and UI frame comes through
        here.
        """
        transaction = Transaction(target, method, payload)
        fd = self._binder_fd
        if fd is None:
            fd = self.binder_fd
        return self.kernel.syscall(self.task, "ioctl", fd,
                                   BINDER_WRITE_READ, transaction)

    def call_service_oneway(self, target, method, payload=None):
        """Fire-and-forget (TF_ONE_WAY) binder call: always ``None``.

        The target must exist (ENOENT surfaces at the call site like any
        binder call), but the sender never sees the reply — service-side
        errors are swallowed, and under batched binder delegation the
        transaction may still be in flight when this returns.
        """
        transaction = Transaction(target, method, payload, flags=TF_ONE_WAY)
        fd = self._binder_fd
        if fd is None:
            fd = self.binder_fd
        return self.kernel.syscall(self.task, "ioctl", fd,
                                   BINDER_WRITE_READ, transaction)

    def wait_input(self):
        """Block until the input subsystem delivers an event (Listing 1)."""
        return self.libc.ioctl(self.binder_fd, IOC_WAIT_INPUT_EVT, None)

    # -- UI conveniences ---------------------------------------------------------

    def create_window(self, title=""):
        return self.call_service("window", "create_window", {"title": title})

    def submit_frame(self, pixels=b""):
        return self.call_service("window", "submit_frame", {"pixels": pixels})

    # -- app-to-app binder IPC ------------------------------------------------
    #
    # "Apps also use binder IPC to talk to other apps.  We allow such
    # IPCs to proceed on the host" (Section III-D).  An app exports an
    # endpoint named ``app:<package>``; peers call it like any service.

    def export_service(self, handler):
        """Expose this app to binder peers; returns the endpoint name."""
        endpoint = AppServiceEndpoint(self, handler)
        self._service_manager().register(endpoint)
        return endpoint.name

    def call_app(self, package, method, payload=None):
        """Synchronous binder call into another app's exported endpoint."""
        return self.call_service(f"app:{package}", method, payload)

    def _service_manager(self):
        binder = self._binder_device()
        return binder.service_manager

    def _binder_device(self):
        desc = self.task.get_fd(self.binder_fd)
        return desc.inode.device


class AppServiceEndpoint:
    """An app-exported binder endpoint (duck-types the Service API)."""

    __snapshot__ = "auto"

    ui_related = False

    def __init__(self, ctx, handler):
        self.name = f"app:{ctx.package}"
        self.ctx = ctx
        self.handler = handler

    def handle_transaction(self, method, payload, sender_task):
        return self.handler(method, payload, sender_task)

    def __repr__(self):
        return f"AppContext({self.package!r}, pid={self.task.pid})"


class AppCrashed(ReproError):
    """An app's main raised; carries the original exception."""

    def __init__(self, package, cause):
        self.package = package
        self.cause = cause
        super().__init__(f"{package} crashed: {cause!r}")


class RunningApp:
    """A launched app instance."""

    __snapshot__ = "auto"

    def __init__(self, app, ctx):
        self.app = app
        self.ctx = ctx
        self.result = None
        self.exception = None

    @property
    def task(self):
        return self.ctx.task

    @property
    def pid(self):
        return self.ctx.task.pid

    def run(self):
        """Execute the app's main to completion; re-raises crashes."""
        try:
            self.result = self.app.main(self.ctx)
            return self.result
        except ReproError as exc:
            self.exception = exc
            raise

    def run_checked(self):
        """Execute main; capture rather than raise on failure."""
        try:
            self.result = self.app.main(self.ctx)
        except ReproError as exc:
            self.exception = exc
        return self.result

    def __repr__(self):
        return f"RunningApp({self.app.package!r}, pid={self.pid})"
