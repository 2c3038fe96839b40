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

Run as a module from the repository root (``make frames``) it prints
each budget entry's name, measured frames and budget, one per line::

    PYTHONPATH=src python -m tests.perf.test_frame_budget
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
    "getpid": 8,
    "pwrite": 44,
    "pread": 43,
    "writev": 94,
    "readv": 97,
    "fstat": 43,
    "fsync": 39,
    "stat": 60,
    "open_close": 107,
    "call_service": 67,
    "wb_enqueue": 20,
    "wb_drain": 408,
    "oneway_enqueue": 29,
    "binder_drain": 540,
    "cache_hit_pread": 14,
    "cache_hit_pread_async": 15,
    "submit_frame": 11,
    "call_app": 9,
    "create_window": 13,
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
was 202; before the flat host binder crossing submit_frame, call_app
and create_window were 25, 23 and 26, and the call_service,
binder_drain and writev budgets were 94, 808 and 138; before the flat
lone-call crossing pwrite, pread, fstat, writev, call_service, wb_drain
and binder_drain were 65, 64, 63, 136, 83, 555 and 710, and the
then-unpinned fsync, stat, 3-segment readv and open+close pair were 60,
80, 139 and 149; before the flat async path cache_hit_pread, wb_drain
and binder_drain were 21, 534 and 697, and the then-unpinned staged
pwrite (wb_enqueue), cache-hit pread beside write-behind
(cache_hit_pread_async) and oneway binder call (oneway_enqueue) were
33, 30 and 43.  call_service rose from 75 to 77 when binder parcels
began to cross by value: one copy of the request and one of the
reply.  Before synchronous wires became fresh buffers (no slab pool)
pwrite, pread, writev, readv, fstat, fsync, stat, open_close,
call_service and binder_drain were 54, 53, 120, 123, 53, 49, 70, 129,
77 and 583.  Before the host fd table's stubs became the only fd record
open_close was 123 (an fd-table lookup, a bind and an unbind).  Before
a host-bound binder call went straight to the host driver's
``transact`` (skipping execute_native, _do_ioctl and
BinderDriver.ioctl) submit_frame, call_app and create_window were 15,
13 and 17.  Before a submit descriptor carried its call (no in-flight
list, work map or outcome map) pwrite, pread, writev, readv, fstat,
fsync, stat, open_close, call_service, wb_drain and binder_drain were
51, 50, 111, 114, 50, 46, 67, 120, 74, 449 and 580; open_close would
be one lower but for the free-number check an fd-making call takes
before it crosses.  Before the one-frame trap, the one-pass marshal,
the submit descriptor as the pending call and the zero-buffer slice in
the drain getpid, pwrite, pread, writev, readv, fstat, fsync, stat,
open_close, call_service, wb_enqueue, wb_drain, binder_drain,
cache_hit_pread, cache_hit_pread_async, submit_frame, call_app and
create_window were 9, 50, 49, 110, 113, 49, 45, 66, 119, 73, 22, 448,
578, 15, 16, 12, 10 and 14."""

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
    vector_path = ctx.data_path("vector.bin")
    vector_fd = libc.open(vector_path, vfs.O_RDWR | vfs.O_CREAT, 0o600)
    libc.pwrite(vector_fd, b"v" * 6 * 4096, 0)  # room for every readv
    ctx.create_window("budget")
    ctx.export_service(_echo)
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
        "readv": lambda: libc.readv(vector_fd, (512, 1024, 2048)),
        "fstat": lambda: libc.fstat(fd),
        "fsync": lambda: libc.fsync(fd),
        "stat": lambda: libc.stat(vector_path),
        "open_close": lambda: libc.close(libc.open(vector_path,
                                                   vfs.O_RDONLY)),
        "call_service": lambda: ctx.call_service("location", "get_fix",
                                                 parcel),
        "wb_enqueue": _write_behind_enqueue(),
        "wb_drain": _write_behind_drain(),
        "oneway_enqueue": _oneway_enqueue(),
        "binder_drain": _binder_window_drain(),
        "cache_hit_pread": _cache_hit_pread(),
        "cache_hit_pread_async": _cache_hit_pread(async_delegation=True),
        "submit_frame": lambda: ctx.submit_frame(b"frame"),
        "call_app": lambda: ctx.call_app(ctx.package, "ping", {"k": 1}),
        "create_window": lambda: ctx.create_window("budget"),
        "compute": lambda: ctx.compute(680),
        "insert": lambda: db.insert("rows", b"r" * 26),
        "select_all": lambda: scan.select_all("rows"),
    }


def _echo(method, payload, sender_task):
    """The app's own exported endpoint, for the ``call_app`` budget."""
    return {"echo": method}


def _write_behind_enqueue():
    """One staged 4 KB pwrite, on a world with asynchronous delegation
    (the window never fills: a run stages four)."""
    world = AnceptionWorld(async_delegation=True)
    running = world.install_and_launch(ScratchApp())
    running.run()
    libc = running.ctx.libc
    fd = libc.open(running.ctx.data_path("staged.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    page = b"w" * 4096
    return lambda: libc.pwrite(fd, page, 0)


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


def _oneway_enqueue():
    """One oneway 128 B binder call staged in its window, on a world
    with batched binder delegation."""
    world = AnceptionWorld(async_delegation=True, binder_ring=True)
    running = world.install_and_launch(ScratchApp())
    running.run()
    ctx = running.ctx
    parcel = {"blob": "x" * 120}
    return lambda: ctx.call_service_oneway("location", "get_fix", parcel)


def _cache_hit_pread(async_delegation=False):
    """A 4 KB pread served from a warm host page cache, beside
    write-behind with nothing staged when ``async_delegation``."""
    world = AnceptionWorld(read_cache=True,
                           async_delegation=async_delegation)
    running = world.install_and_launch(ScratchApp())
    running.run()
    libc = running.ctx.libc
    fd = libc.open(running.ctx.data_path("cached.bin"),
                   vfs.O_RDWR | vfs.O_CREAT, 0o600)
    libc.pwrite(fd, b"c" * 4096, 0)
    return lambda: libc.pread(fd, 4096, 0)


def _warm_frames(call):
    """The frames one warm, steady-state ``call`` budget entry enters,
    and its runner."""
    run = _calls()[call]
    run()
    run()  # warm: lazy binder fd, trampolines, first page loads
    return count_frames(run), run


def print_headroom():
    """One line per budget entry: name, measured frames, budget."""
    for call in sorted(BUDGET):
        frames, _run = _warm_frames(call)
        print(f"{call:<22} {sum(frames.values()):>5} {BUDGET[call]:>5}")


@pytest.mark.parametrize("call", sorted(BUDGET))
def test_call_stays_within_frame_budget(call):
    frames, run = _warm_frames(call)
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


if __name__ == "__main__":
    print_headroom()
