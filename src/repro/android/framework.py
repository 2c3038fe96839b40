"""Android system boot: full, headless, or UI-only stacks.

Three profiles cover every configuration the paper runs:

* ``full`` — stock Android: every service plus the UI stack and display /
  input devices (the *native* baseline, and also what GingerBread-era
  devices booted: ≥ 256 MB).
* ``headless`` — the CVM's Android: all delegated (non-UI) services, **no**
  UI stack, no framebuffer, no input device.  This is the Section IV-4
  memory optimisation: the instance fits in the CVM's 64 MB window.
* ``ui_only`` — the host-side remainder under Anception: only the
  UI/input/lifecycle services run with host privilege.
"""

from __future__ import annotations

from repro.android.binder import BinderDriver, ServiceManager
from repro.android.logcat import LOG_DEVICE_PATH, start_system_logcat
from repro.android.services.base import ServiceCatalog
from repro.android.services import system_services as _system_services  # noqa: F401
from repro.android.services import ui_services as _ui_services  # noqa: F401
from repro.android.services import vold as _vold  # noqa: F401
from repro.android.ui import UIStack
from repro.errors import SimulationError
from repro.kernel.devices import (
    FramebufferDevice,
    InputDevice,
    LogDevice,
    NullDevice,
    ZeroDevice,
)
from repro.kernel.filesystems import add_device
from repro.kernel.process import Credentials, SYSTEM_UID


PROFILES = ("full", "headless", "ui_only")

SYSTEM_SERVER_BASE_KB = 4_676
"""system_server text/heap baseline, excluding individual services."""

LOGD_KB = 512
ADBD_KB = 400


class AndroidSystem:
    """One booted Android userspace on one kernel."""

    __snapshot__ = "auto"

    def __init__(self, kernel, profile="full"):
        if profile not in PROFILES:
            raise SimulationError(f"unknown profile {profile!r}")
        self.kernel = kernel
        self.profile = profile
        self.service_manager = ServiceManager()
        self.services = {}
        self.ui_stack = None

        self.system_server = kernel.spawn_task(
            "system_server", Credentials(SYSTEM_UID)
        )

        self._create_devices()
        self._start_services()
        self.logcat = start_system_logcat(kernel)
        # adbd is a native daemon, not a binder service: it runs where
        # the privileged non-UI daemons live (so in the CVM on an
        # Anception device) and not at all in the ui_only host remainder.
        self.adbd = None
        if profile in ("full", "headless"):
            from repro.android.adbd import AdbDaemon

            self.adbd = AdbDaemon(kernel)

    # -- boot steps -----------------------------------------------------------

    def _create_devices(self):
        kernel = self.kernel
        rootfs = kernel.vfs.rootfs
        add_device(rootfs, "dev/null", NullDevice(), mode=0o666)
        add_device(rootfs, "dev/zero", ZeroDevice(), mode=0o666)

        log_device = LogDevice()
        kernel.log_device = log_device
        add_device(rootfs, LOG_DEVICE_PATH.lstrip("/"), log_device, mode=0o666)

        with_ui = self.profile in ("full", "ui_only")
        framebuffer = None
        if with_ui:
            framebuffer = FramebufferDevice(kernel)
            # The CVE-2013-2596-era misconfiguration: world-RW framebuffer.
            add_device(
                rootfs, "dev/graphics/fb0", framebuffer, mode=0o666
            )
            input_device = InputDevice()
            kernel.input_device = input_device
            add_device(rootfs, "dev/input/event0", input_device, mode=0o660)
            self.ui_stack = UIStack(input_device, framebuffer)
            kernel.ui_stack = self.ui_stack

        self.binder_driver = BinderDriver(
            kernel, self.service_manager, self.ui_stack
        )
        add_device(rootfs, "dev/binder", self.binder_driver, mode=0o666)

    def _start_services(self):
        for service_type in ServiceCatalog.all_types():
            if self.profile == "headless" and service_type.ui_related:
                continue
            if self.profile == "ui_only" and not service_type.ui_related:
                continue
            self._start_service(service_type)

    def _start_service(self, service_type):
        if service_type.ui_related:
            service = service_type(self.kernel, self.ui_stack)
        else:
            service = service_type(self.kernel)
        self.services[service.name] = service
        self.service_manager.register(service)
        return service

    # -- runtime API ---------------------------------------------------------------

    def service(self, name):
        service = self.services.get(name)
        if service is None:
            raise SimulationError(
                f"service {name!r} not running in profile {self.profile!r}"
            )
        return service

    def has_service(self, name):
        return name in self.services

    def ui_service_names(self):
        return {s.name for s in self.services.values() if s.ui_related}

    # -- accounting -------------------------------------------------------------------

    def memory_kb(self, proxy_count=0, proxy_kb=96):
        """Resident memory of this Android instance.

        ``proxy_count`` adds the footprint of Anception proxies hosted in
        a headless instance (a proxy is far smaller than a real app
        process — it holds only resource handles).
        """
        total = SYSTEM_SERVER_BASE_KB + LOGD_KB
        if self.adbd is not None:
            total += ADBD_KB
        total += sum(s.memory_kb for s in self.services.values())
        if self.ui_stack is not None:
            total += self.ui_stack.memory_kb
        total += proxy_count * proxy_kb
        return total

    def __repr__(self):
        return (
            f"AndroidSystem(profile={self.profile!r}, "
            f"services={len(self.services)}, kernel={self.kernel.label})"
        )
