"""Frame budget: a deterministic per-call cost ratchet.

Wall time is noisy, but the number of Python frames a call executes is
exact.  Each test counts the ``repro`` package frames one steady-state
call enters (``sys.setprofile`` "call" events whose code lives under
``src/repro``) and asserts the count is at most its budget.  Only named
functions count: comprehension and generator-expression frames
(``<listcomp>``, ``<genexpr>``, ...) are skipped, because Python 3.12
inlines comprehensions (PEP 709) and CI also runs 3.9.

A budget may go down whenever a change removes frames.  It goes up only
with the reason recorded in CHANGES.md.
"""

import os
import sys

import pytest

import repro
from repro.android.sqlite import Database
from repro.kernel import vfs
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


_SRC = os.path.dirname(repro.__file__) + os.sep

BUDGET = {
    "getpid": 9,
    "pwrite": 101,
    "pread": 94,
    "submit_frame": 25,
    "compute": 1,
    "insert": 2,
}
"""Frames per call.  Before the dormant flag these were 12, 105, 98,
37, 2 and 5 (the 113 and 106 recorded for pwrite and pread with
cProfile include comprehension frames)."""


def count_frames(call):
    """Named ``repro`` frames entered while ``call()`` runs."""
    frames = 0

    def profile(frame, event, _arg):
        nonlocal frames
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC) \
                    and not code.co_name.startswith("<"):
                frames += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return frames


def _calls():
    """One enrolled app's steady-state call for each budget entry."""
    world = AnceptionWorld()
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    libc = ctx.libc
    fd = libc.open(ctx.data_path("budget.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    page = b"b" * 4096
    libc.pwrite(fd, page, 0)
    ctx.create_window("budget")
    db = Database(libc, ctx.data_path("budget.db"))
    db.create_table("rows")
    db.begin()
    return {
        "getpid": libc.getpid,
        "pwrite": lambda: libc.pwrite(fd, page, 0),
        "pread": lambda: libc.pread(fd, 4096, 0),
        "submit_frame": lambda: ctx.submit_frame(b"frame"),
        "compute": lambda: ctx.compute(680),
        "insert": lambda: db.insert("rows", b"r" * 26),
    }


@pytest.mark.parametrize("call", sorted(BUDGET))
def test_call_stays_within_frame_budget(call):
    run = _calls()[call]
    run()
    run()  # warm: lazy binder fd, trampolines, first page loads
    frames = count_frames(run)
    assert frames == count_frames(run), "frame count is not steady"
    assert frames <= BUDGET[call], (
        f"{call} entered {frames} repro frames, budget {BUDGET[call]}"
    )
