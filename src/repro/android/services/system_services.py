"""Non-UI privileged services — the 108,718 lines Anception deprivileges.

None of these services touch the UI or app virtual memory, so Anception
runs all of them inside the CVM (vold is in its own module because it
carries the GingerBreak vulnerability).  Together with vold their line
counts sum to the paper's 108,718 deprivileged framework lines.
"""

from __future__ import annotations

from repro.android.services.base import Service, ServiceCatalog
from repro.kernel.process import ROOT_UID, SYSTEM_UID


@ServiceCatalog.register
class LocationManagerService(Service):
    """GPS / network location fixes (the paper's 19 ms example IPC)."""

    name = "location"
    uid = SYSTEM_UID
    lines_of_code = 14_208
    ui_related = False
    memory_kb = 2_048

    def method_get_fix(self, payload, sender):
        return {"lat": 42.2808, "lon": -83.7430, "accuracy_m": 12.0}

    def method_request_updates(self, payload, sender):
        return {"status": "registered", "interval_ms": payload.get(
            "interval_ms", 1000)}


@ServiceCatalog.register
class PackageManagerService(Service):
    """Installed-package database."""

    name = "package"
    uid = SYSTEM_UID
    lines_of_code = 22_310
    ui_related = False
    memory_kb = 4_096

    def __init__(self, kernel):
        super().__init__(kernel)
        self.packages = {}

    def method_get_package_info(self, payload, sender):
        name = payload["package"]
        info = self.packages.get(name)
        if info is None:
            return {"found": False}
        return {"found": True, **info}

    def register_package(self, package, uid, code_path):
        self.packages[package] = {"uid": uid, "code_path": code_path}


@ServiceCatalog.register
class PowerManagerService(Service):
    name = "power"
    uid = SYSTEM_UID
    lines_of_code = 6_140
    ui_related = False
    memory_kb = 768

    def __init__(self, kernel):
        super().__init__(kernel)
        self.wakelocks = {}

    def method_acquire_wakelock(self, payload, sender):
        self.wakelocks[(sender.pid, payload.get("tag", ""))] = True
        return {"status": "held"}

    def method_release_wakelock(self, payload, sender):
        self.wakelocks.pop((sender.pid, payload.get("tag", "")), None)
        return {"status": "released"}


@ServiceCatalog.register
class SensorService(Service):
    name = "sensor"
    uid = SYSTEM_UID
    lines_of_code = 7_893
    ui_related = False
    memory_kb = 1_024

    def method_read_accelerometer(self, payload, sender):
        return {"x": 0.02, "y": -0.01, "z": 9.81}

    def method_list_sensors(self, payload, sender):
        return {"sensors": ["accelerometer", "gyroscope", "magnetometer"]}


@ServiceCatalog.register
class AudioService(Service):
    name = "audio"
    uid = SYSTEM_UID
    lines_of_code = 11_270
    ui_related = False
    memory_kb = 2_304

    def __init__(self, kernel):
        super().__init__(kernel)
        self.volume = 7

    def method_set_volume(self, payload, sender):
        self.volume = max(0, min(15, payload.get("volume", self.volume)))
        return {"volume": self.volume}


@ServiceCatalog.register
class TelephonyRegistryService(Service):
    name = "telephony"
    uid = SYSTEM_UID
    lines_of_code = 9_406
    ui_related = False
    memory_kb = 1_280


@ServiceCatalog.register
class NotificationManagerService(Service):
    name = "notification"
    uid = SYSTEM_UID
    lines_of_code = 8_511
    ui_related = False
    memory_kb = 1_536

    def __init__(self, kernel):
        super().__init__(kernel)
        self.posted = []

    def method_post(self, payload, sender):
        self.posted.append((sender.pid, payload.get("text", "")))
        return {"id": len(self.posted)}

    def method_cancel_all(self, payload, sender):
        self.posted = [(pid, t) for pid, t in self.posted if pid != sender.pid]
        return {"status": "ok"}


@ServiceCatalog.register
class ClipboardService(Service):
    name = "clipboard"
    uid = SYSTEM_UID
    lines_of_code = 1_826
    ui_related = False
    memory_kb = 256

    def __init__(self, kernel):
        super().__init__(kernel)
        self.clip = ""

    def method_set_clip(self, payload, sender):
        self.clip = payload.get("text", "")
        return {"status": "ok"}

    def method_get_clip(self, payload, sender):
        return {"text": self.clip}


@ServiceCatalog.register
class ConnectivityService(Service):
    name = "connectivity"
    uid = SYSTEM_UID
    lines_of_code = 12_098
    ui_related = False
    memory_kb = 2_048


@ServiceCatalog.register
class MountService(Service):
    """Framework-side mount manager (talks to vold over netlink)."""

    name = "mount"
    uid = SYSTEM_UID
    lines_of_code = 6_624
    ui_related = False
    memory_kb = 1_024
