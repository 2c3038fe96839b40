"""The window service checks the app's payload before the host uses it.

A frame's ``pixels`` and a window call's payload come from the app, but
composition runs on the trusted host in every world.  A payload that is
not a ``dict``, or pixels that are not bytes-like, get EINVAL and the
frame does not count; valid frames copy at most 4,096 bytes, so an
integer "pixels" value cannot make the host allocate its size.
"""

import errno
import tracemalloc
from array import array

import pytest

from repro.errors import SyscallError
from repro.world import AnceptionWorld, NativeWorld

from tests.conftest import ScratchApp


WORLDS = {"native": NativeWorld, "anception": AnceptionWorld}

BAD_CALLS = {
    "int-pixels": ("submit_frame", {"pixels": 50_000_000}),
    "str-pixels": ("submit_frame", {"pixels": "frame"}),
    "list-frame-payload": ("submit_frame", ["pixels"]),
    "str-frame-payload": ("submit_frame", "pixels"),
    "list-window-payload": ("create_window", ["title"]),
    "int-window-payload": ("create_window", 7),
}


def _launch(kind):
    world = WORLDS[kind]()
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    ctx.create_window("payload")
    return world, ctx


@pytest.mark.parametrize("kind", sorted(WORLDS))
@pytest.mark.parametrize("label", sorted(BAD_CALLS))
def test_bad_payload_is_einval(kind, label):
    world, ctx = _launch(kind)
    window = world.ui.window_of(ctx.task)
    windows = len(world.ui.windows)
    method, payload = BAD_CALLS[label]
    with pytest.raises(SyscallError) as excinfo:
        ctx.call_service("window", method, payload)
    assert excinfo.value.errno == errno.EINVAL
    assert window.frames_submitted == 0
    assert len(world.ui.windows) == windows


@pytest.mark.parametrize("kind", sorted(WORLDS))
def test_integer_pixels_allocate_nothing_on_the_host(kind):
    _world, ctx = _launch(kind)
    tracemalloc.start()
    try:
        try:
            ctx.submit_frame(50_000_000)
        except SyscallError:
            pass  # the errno is test_bad_payload_is_einval's business
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("pixels", [
    b"RGBA" * 16,
    bytearray(b"\x01\x02\x03"),
    memoryview(b"view-pixels"),
    array("H", [0x4142, 0x4344]),
    bytes(range(256)) * 40,  # 10 KB: only the first 4,096 bytes land
], ids=["bytes", "bytearray", "memoryview", "array", "oversize"])
def test_valid_frames_compose_their_first_page(pixels):
    world, ctx = _launch("anception")
    framebuffer = world.ui.framebuffer._buffer
    expected = bytes(pixels)[:4096]
    ctx.submit_frame(pixels)
    assert bytes(framebuffer[:len(expected)]) == expected
    assert world.ui.window_of(ctx.task).frames_submitted == 1
