"""Frame budget: a deterministic per-call cost ratchet.

Wall time is noisy, but the number of Python frames a call executes is
exact.  Each test counts the ``repro`` package frames one steady-state
call enters (``sys.setprofile`` "call" events whose code lives under
``src/repro``) and asserts the count is at most its budget.  Only named
functions count: comprehension and generator-expression frames
(``<listcomp>``, ``<genexpr>``, ...) are skipped, because Python 3.12
inlines comprehensions (PEP 709) and CI also runs 3.9.

A budget may go down whenever a change removes frames.  It goes up only
with the reason recorded in CHANGES.md.  An over-budget failure lists
the most-entered ``module:function`` names, so a regression shows where
its frames came from.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.android.sqlite import Database
from repro.kernel import vfs
from repro.world import AnceptionWorld

from tests.conftest import ScratchApp


_SRC = os.path.dirname(repro.__file__) + os.sep

BUDGET = {
    "getpid": 9,
    "pwrite": 65,
    "pread": 64,
    "writev": 138,
    "fstat": 63,
    "call_service": 94,
    "wb_drain": 555,
    "binder_drain": 808,
    "cache_hit_pread": 21,
    "submit_frame": 25,
    "compute": 1,
    "insert": 1,
    "select_all": 2,
}
"""Frames per call.  Before the dormant flag getpid, pwrite, pread,
submit_frame, compute and insert were 12, 105, 98, 37, 2 and 5 (the 113
and 106 recorded for pwrite and pread with cProfile include
comprehension frames); before the flat sync crossing pwrite and pread
were 101 and 94; before the dormant overlap window wb_drain was 925;
before the sqlite tail cursor insert was 2 and a 100-row select_all
was 202."""

TOP_FUNCTIONS = 10
"""Functions an over-budget failure lists, most-entered first."""


def count_frames(call):
    """Named ``repro`` frames entered while ``call()`` runs.

    Returns a :class:`~collections.Counter` of ``module:function`` ->
    entries; the sum of its values is the frame count.
    """
    frames = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(_SRC) and not code.co_name.startswith("<"):
                module = path[len(_SRC):-3].replace(os.sep, ".")
                frames[f"{module}:{code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return frames


def _over_budget_message(call, frames, budget):
    top = "\n".join(f"  {count:4d}  {name}"
                     for name, count in frames.most_common(TOP_FUNCTIONS))
    return (f"{call} entered {sum(frames.values())} repro frames, budget "
            f"{budget}; most-entered functions:\n{top}")


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
    segments = (b"s" * 512, b"e" * 1024, b"g" * 2048)
    ctx.create_window("budget")
    db = Database(libc, ctx.data_path("budget.db"))
    db.create_table("rows")
    db.begin()
    scan = Database(libc, ctx.data_path("scan.db"))
    scan.create_table("rows")
    scan.begin()
    for index in range(100):
        scan.insert("rows", index.to_bytes(2, "little") * 13)
    scan.commit()
    parcel = {"blob": "x" * 120}  # 128 B on the wire
    return {
        "getpid": libc.getpid,
        "pwrite": lambda: libc.pwrite(fd, page, 0),
        "pread": lambda: libc.pread(fd, 4096, 0),
        "writev": lambda: libc.writev(fd, segments),
        "fstat": lambda: libc.fstat(fd),
        "call_service": lambda: ctx.call_service("location", "get_fix",
                                                 parcel),
        "wb_drain": _write_behind_drain(),
        "binder_drain": _binder_window_drain(),
        "cache_hit_pread": _cache_hit_pread(),
        "submit_frame": lambda: ctx.submit_frame(b"frame"),
        "compute": lambda: ctx.compute(680),
        "insert": lambda: db.insert("rows", b"r" * 26),
        "select_all": lambda: scan.select_all("rows"),
    }


def _write_behind_drain():
    """Eight staged 4 KB pwrites and the fence that drains their window,
    on a world with asynchronous delegation."""
    world = AnceptionWorld(async_delegation=True)
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    libc = ctx.libc
    fd = libc.open(ctx.data_path("staged.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    page = b"w" * 4096

    def drain():
        for index in range(8):
            libc.pwrite(fd, page, index * 4096)
        libc.fence(fd)

    return drain


def _binder_window_drain():
    """Eight oneway 128 B binder calls and the synchronous call that
    fences their window, on a world with batched binder delegation."""
    world = AnceptionWorld(async_delegation=True, binder_ring=True)
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    parcel = {"blob": "x" * 120}

    def drain():
        for _ in range(8):
            ctx.call_service_oneway("location", "get_fix", parcel)
        ctx.call_service("location", "get_fix", parcel)

    return drain


def _cache_hit_pread():
    """A 4 KB pread served from a warm host page cache."""
    world = AnceptionWorld(read_cache=True)
    running = world.install_and_launch(ScratchApp())
    running.run()
    libc = running.ctx.libc
    fd = libc.open(running.ctx.data_path("cached.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    libc.pwrite(fd, b"c" * 4096, 0)
    return lambda: libc.pread(fd, 4096, 0)


@pytest.mark.parametrize("call", sorted(BUDGET))
def test_call_stays_within_frame_budget(call):
    run = _calls()[call]
    run()
    run()  # warm: lazy binder fd, trampolines, first page loads
    frames = count_frames(run)
    assert frames == count_frames(run), "frame count is not steady"
    total = sum(frames.values())
    assert total <= BUDGET[call], \
        _over_budget_message(call, frames, BUDGET[call])


def test_over_budget_message_names_the_busiest_functions():
    frames = Counter({f"repro.mod:f{index}": index for index in range(1, 13)})
    message = _over_budget_message("demo", frames, 5)
    assert message.startswith("demo entered 78 repro frames, budget 5;")
    listed = [line.split()[-1] for line in message.splitlines()[1:]]
    assert listed == [f"repro.mod:f{index}" for index in range(12, 2, -1)]
