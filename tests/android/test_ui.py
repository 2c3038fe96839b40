"""UI stack: windows, focus, routing, and confidentiality of input."""

import pytest

from repro.android.ui import InputEvent, UIStack
from repro.errors import SyscallError
from repro.kernel.devices import InputDevice
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials


@pytest.fixture
def kernel():
    return Machine(total_mb=64).kernel


@pytest.fixture
def ui():
    return UIStack(input_device=InputDevice())


def make_task(kernel, name="app", uid=10001):
    return kernel.spawn_task(name, Credentials(uid))


class TestWindows:
    def test_first_window_gets_focus(self, ui, kernel):
        window = ui.create_window(make_task(kernel), "w1")
        assert ui.focused_window is window

    def test_focus_switching(self, ui, kernel):
        w1 = ui.create_window(make_task(kernel), "w1")
        w2 = ui.create_window(make_task(kernel), "w2")
        assert ui.focused_window is w1
        ui.set_focus_by_window(w2.window_id)
        assert ui.focused_window is w2

    def test_focus_by_task(self, ui, kernel):
        t1 = make_task(kernel)
        t2 = make_task(kernel)
        ui.create_window(t1, "w1")
        ui.create_window(t2, "w2")
        ui.set_focus_by_task(t2)
        assert ui.focused_window.owner_task is t2

    def test_focus_unknown_window_enoent(self, ui):
        with pytest.raises(SyscallError):
            ui.set_focus_by_window(999)

    def test_destroy_windows_clears_focus(self, ui, kernel):
        task = make_task(kernel)
        ui.create_window(task, "w")
        ui.destroy_windows_of(task)
        assert ui.focused_window is None
        assert ui.window_of(task) is None

    def test_window_of_is_the_first_window_created(self, ui, kernel):
        """The owner index answers like the old scan over all windows."""
        task, other = make_task(kernel), make_task(kernel)
        first = ui.create_window(task, "first")
        ui.create_window(other, "other")
        ui.create_window(task, "second")
        assert ui.window_of(task) is first
        ui.submit_frame(task, b"px")
        assert first.frames_submitted == 1
        assert ui.set_focus_by_task(task) is first
        ui.destroy_windows_of(task)
        assert ui.window_of(task) is None
        with pytest.raises(SyscallError):
            ui.submit_frame(task, b"px")
        again = ui.create_window(task, "again")
        assert ui.window_of(task) is again
        assert ui.window_of(other).title == "other"


class TestInputRouting:
    def test_text_reaches_focused_window_only(self, ui, kernel):
        t1, t2 = make_task(kernel), make_task(kernel)
        w1 = ui.create_window(t1, "w1")
        w2 = ui.create_window(t2, "w2")
        ui.inject_text("secret")
        assert len(w1.event_queue) == 1
        assert w2.event_queue == []

    def test_wait_input_pops_in_order(self, ui, kernel):
        task = make_task(kernel)
        ui.create_window(task, "w")
        ui.inject_text("first")
        ui.inject_text("second")
        assert ui.wait_input(task).text == "first"
        assert ui.wait_input(task).text == "second"

    def test_wait_input_empty_returns_none(self, ui, kernel):
        task = make_task(kernel)
        ui.create_window(task, "w")
        assert ui.wait_input(task) is None

    def test_wait_input_without_window_enoent(self, ui, kernel):
        with pytest.raises(SyscallError):
            ui.wait_input(make_task(kernel))

    def test_touch_events(self, ui, kernel):
        task = make_task(kernel)
        ui.create_window(task, "w")
        ui.inject_touch(100, 200)
        event = ui.wait_input(task)
        assert (event.x, event.y) == (100, 200)

    def test_password_events_mask_repr(self):
        event = InputEvent("text", text="hunter2", is_password_field=True)
        assert "hunter2" not in repr(event)

    def test_input_device_sees_raw_stream(self, ui, kernel):
        """The host input device observes everything — which is exactly
        why it must never exist in the CVM."""
        task = make_task(kernel)
        ui.create_window(task, "w")
        ui.inject_text("password", is_password_field=True)
        events = ui.input_device.drain()
        assert events[0].text == "password"

    def test_no_input_without_focus_is_dropped(self, ui):
        ui.inject_text("into-the-void")
        assert ui.delivered_events == []


class TestFrames:
    def test_submit_frame_counts(self, ui, kernel):
        task = make_task(kernel)
        window = ui.create_window(task, "w")
        ui.submit_frame(task, b"pixels")
        assert window.frames_submitted == 1

    def test_submit_without_window_enoent(self, ui, kernel):
        with pytest.raises(SyscallError):
            ui.submit_frame(make_task(kernel), b"x")

    def test_framebuffer_receives_composition(self, kernel):
        from repro.kernel.devices import FramebufferDevice

        fb = FramebufferDevice(kernel)
        ui = UIStack(input_device=InputDevice(), framebuffer=fb)
        task = make_task(kernel)
        ui.create_window(task, "w")
        ui.submit_frame(task, b"RGBA")
        assert bytes(fb._buffer[:4]) == b"RGBA"
