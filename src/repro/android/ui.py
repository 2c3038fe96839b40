"""The UI/Input stack: windows, focus, input routing, soft keyboard.

This code only ever exists on the **host**.  A headless Android instance
(the CVM) has no :class:`UIStack`, no framebuffer and no input device —
the design decision that both protects interactive input (principle 2)
and saves the memory the Section VI-C experiment measures.

Input flow: hardware events are injected into the host's input device;
the stack routes each event to the focused window; the owning app picks
it up with the ``IOC_WAIT_INPUT_EVT`` binder ioctl.  At no point does
event data transit any CVM-visible structure.
"""

from __future__ import annotations

import errno

from repro.errors import SyscallError


class InputEvent:
    """One user-input event (touch or key/text)."""

    __snapshot__ = "auto"

    __slots__ = ("kind", "text", "x", "y", "is_password_field")

    def __init__(self, kind, text="", x=0, y=0, is_password_field=False):
        self.kind = kind
        self.text = text
        self.x = x
        self.y = y
        self.is_password_field = is_password_field

    def __repr__(self):
        shown = "*" * len(self.text) if self.is_password_field else self.text
        return f"InputEvent({self.kind}, {shown!r})"


class Window:
    """A window surface owned by one app task."""

    __snapshot__ = "auto"

    def __init__(self, window_id, owner_task, title):
        self.window_id = window_id
        self.owner_task = owner_task
        self.title = title
        self.frames_submitted = 0
        self.event_queue = []


class UIStack:
    """Host-only display and input management."""

    __snapshot__ = "auto"

    def __init__(self, input_device=None, framebuffer=None):
        self.input_device = input_device
        self.framebuffer = framebuffer
        self.windows = {}
        self._next_window_id = 1
        """Ids are per stack, so every world numbers its windows from 1
        and a restored world continues its own numbering."""
        self._first_window = {}
        """Owner task -> the first window it created (``window_of``)."""
        self.focused_window = None
        self.delivered_events = []

    # -- window management ---------------------------------------------------

    def create_window(self, owner_task, title=""):
        window = Window(self._next_window_id, owner_task, title)
        self._next_window_id += 1
        self.windows[window.window_id] = window
        self._first_window.setdefault(owner_task, window)
        if self.focused_window is None:
            self.focused_window = window
        return window

    def set_focus_by_window(self, window_id):
        window = self.windows.get(window_id)
        if window is None:
            raise SyscallError(errno.ENOENT, f"window {window_id}")
        self.focused_window = window

    def set_focus_by_task(self, task):
        window = self._first_window.get(task)
        if window is None:
            raise SyscallError(errno.ENOENT, f"no window for pid {task.pid}")
        self.focused_window = window
        return window

    def window_of(self, task):
        return self._first_window.get(task)

    def destroy_windows_of(self, task):
        self._first_window.pop(task, None)
        for window_id in [
            wid for wid, w in self.windows.items() if w.owner_task is task
        ]:
            window = self.windows.pop(window_id)
            if self.focused_window is window:
                self.focused_window = None

    def submit_frame(self, task, pixels):
        """Compose one frame from ``task``'s first window.

        ``pixels`` comes from the app: it must be a C-contiguous
        bytes-like object (EINVAL otherwise, and the frame does not
        count).  At most its first 4,096 bytes are copied into the
        framebuffer, so the app cannot size a host allocation.
        """
        window = self._first_window.get(task)
        if window is None:
            raise SyscallError(errno.ENOENT, f"no window for pid {task.pid}")
        if pixels.__class__ is not bytes:
            try:
                pixels = memoryview(pixels).cast("B")
            except TypeError:
                raise SyscallError(
                    errno.EINVAL, "frame pixels must be bytes-like"
                ) from None
        window.frames_submitted += 1
        if self.framebuffer is not None:
            # Composition writes into the real framebuffer device.
            data = pixels[:4096]
            if data:
                self.framebuffer._buffer[: len(data)] = data

    # -- input routing ---------------------------------------------------------

    def inject_text(self, text, is_password_field=False):
        """Hardware/soft-keyboard text entry aimed at the focused window."""
        event = InputEvent(
            "text", text=text, is_password_field=is_password_field
        )
        self._route(event)
        return event

    def inject_touch(self, x, y):
        event = InputEvent("touch", x=x, y=y)
        self._route(event)
        return event

    def _route(self, event):
        if self.input_device is not None:
            self.input_device.inject(event)
        if self.focused_window is None:
            return
        self.focused_window.event_queue.append(event)

    def wait_input(self, task):
        """The IOC_WAIT_INPUT_EVT implementation: pop one event."""
        window = self._first_window.get(task)
        if window is None:
            raise SyscallError(errno.ENOENT, f"no window for pid {task.pid}")
        if not window.event_queue:
            return None
        event = window.event_queue.pop(0)
        self.delivered_events.append((task.pid, event))
        return event

    @property
    def memory_kb(self):
        """Resident cost of the UI stack itself (framebuffers, queues)."""
        return 8_000
