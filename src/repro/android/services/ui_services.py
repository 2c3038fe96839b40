"""UI / Input / lifecycle services — the 72,542 lines kept on the host.

These are the services Anception refuses to delegate: every sensitive
interactive input flows through them (Section III-A), so a compromise of
the container must never reach them.  Their line counts decompose the
paper's 72,542-line measurement of UI/input/lifecycle code in Android 4.2.
"""

from __future__ import annotations

import errno

from repro.errors import SyscallError
from repro.android.services.base import Service, ServiceCatalog
from repro.kernel.process import SYSTEM_UID


@ServiceCatalog.register
class WindowManagerService(Service):
    """Centralised frame-buffer and window management."""

    name = "window"
    uid = SYSTEM_UID
    lines_of_code = 28_914
    ui_related = True
    memory_kb = 6_144

    def __init__(self, kernel, ui_stack=None):
        super().__init__(kernel)
        self.ui_stack = ui_stack

    def _require_ui(self, payload):
        """The host UI stack, for a well-formed (``dict``) payload."""
        if self.ui_stack is None:
            raise SyscallError(errno.ENODEV, "headless: no UI stack")
        if not isinstance(payload, dict):
            raise SyscallError(errno.EINVAL, "window payload must be a dict")
        return self.ui_stack

    def method_create_window(self, payload, sender):
        ui = self._require_ui(payload)
        window = ui.create_window(sender, payload.get("title", ""))
        return {"window_id": window.window_id}

    def method_submit_frame(self, payload, sender):
        # Every UI frame: the checks of _require_ui, inline.
        ui = self.ui_stack
        if ui is None:
            raise SyscallError(errno.ENODEV, "headless: no UI stack")
        if not isinstance(payload, dict):
            raise SyscallError(errno.EINVAL, "window payload must be a dict")
        ui.submit_frame(sender, payload.get("pixels", b""))
        return {"status": "ok"}

    def method_get_display_info(self, payload, sender):
        return {"width": 1280, "height": 800, "density": 160}


@ServiceCatalog.register
class InputManagerService(Service):
    """Input device routing and the soft keyboard (InputMethodManager)."""

    name = "input"
    uid = SYSTEM_UID
    lines_of_code = 12_480
    ui_related = True
    memory_kb = 1_024

    def __init__(self, kernel, ui_stack=None):
        super().__init__(kernel)
        self.ui_stack = ui_stack


@ServiceCatalog.register
class ActivityManagerService(Service):
    """App lifecycle management (start/stop/foreground bookkeeping)."""

    name = "activity"
    uid = SYSTEM_UID
    lines_of_code = 24_657
    ui_related = True
    memory_kb = 4_096

    def __init__(self, kernel, ui_stack=None):
        super().__init__(kernel)
        self.ui_stack = ui_stack
        self.running = {}

    def method_publish_activity(self, payload, sender):
        self.running[sender.pid] = payload.get("component", sender.name)
        return {"status": "ok"}

    def method_get_running_apps(self, payload, sender):
        return {"apps": sorted(self.running.values())}


@ServiceCatalog.register
class SurfaceFlingerService(Service):
    """Surface composition: composes window surfaces onto the display."""

    name = "surfaceflinger"
    uid = SYSTEM_UID
    lines_of_code = 6_491
    ui_related = True
    memory_kb = 12_288

    def __init__(self, kernel, ui_stack=None):
        super().__init__(kernel)
        self.ui_stack = ui_stack
