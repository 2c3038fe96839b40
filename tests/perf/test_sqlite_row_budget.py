"""Row budget: C calls per page of sqlite rows, a deterministic perf gate.

The frame budget (``test_frame_budget.py``) pins the Python frames a
call enters; an in-transaction ``insert`` is already one frame, so what
is left of the sqlite row path is C work done once per row.  This file
counts it: ``sys.setprofile`` "c_call" events made from ``repro`` code
and the named ``repro`` frames entered, for the two per-page row
kernels:

* ``lay_page``: laying one full page of queued rows (145 rows of 26
  bytes, queued behind a transaction's first row) into its page image;
* ``select_all_page``: a warm scan of one full page of 146 rows.

Each count is asserted as "at most" its budget.  Before the row kernels
(rows framed at insert, one join per page, one copy per scanned page)
the two shapes made 297 and 296 C calls, each in 3 frames: two per
row.

Run as a module from the repository root (``make frames``) it prints
each entry's name, measured C calls and frames, and the budgets::

    PYTHONPATH=src python -m tests.perf.test_sqlite_row_budget
"""

import os
import sys

import pytest

import repro
from repro.android.sqlite import Database
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.process import Credentials
from repro.perf.costs import PAGE_SIZE


_SRC = os.path.dirname(repro.__file__) + os.sep

ROW_BYTES = 26
"""The paper's sqlite row (Section VI-B: 10,000 rows x 26 bytes)."""

ROWS_PER_PAGE = (PAGE_SIZE - 4) // (2 + ROW_BYTES)
"""Rows of ``ROW_BYTES`` one data page holds (146)."""

BUDGET = {
    "lay_page": (7, 3),
    "select_all_page": (149, 3),
}
"""Shape -> (C calls, frames), each the count measured when the row
kernels landed."""


def count_calls(call):
    """``(C calls made from repro code, named repro frames entered)``
    while ``call()`` runs."""
    c_calls = frames = 0

    def profile(frame, event, _arg):
        nonlocal c_calls, frames
        code = frame.f_code
        if not code.co_filename.startswith(_SRC):
            return
        if event == "c_call":
            c_calls += 1
        elif event == "call" and not code.co_name.startswith("<"):
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return c_calls, frames


def _database(name):
    kernel = Machine(total_mb=128).kernel
    task = kernel.spawn_task("rows", Credentials(10001))
    db = Database(Libc(kernel, task), f"/data/local/tmp/{name}.db")
    db.create_table("rows")
    return db


def _row(index):
    return index.to_bytes(2, "little") * (ROW_BYTES // 2)


def _lay_page():
    """A transaction's first row (laid at once) and 145 more queued on
    the tail cursor, filling the page; ``row_count`` lays them."""
    db = _database("lay")
    db.begin()
    for index in range(ROWS_PER_PAGE):
        db.insert("rows", _row(index))
    assert db._tails["rows"].used == 4 + ROWS_PER_PAGE * (2 + ROW_BYTES)
    return lambda: db.row_count("rows")


def _select_all_page():
    """A warm scan of one full page, inside the transaction that
    wrote it (the tail cursor is live, its queue empty)."""
    db = _database("scan")
    db.begin()
    for index in range(ROWS_PER_PAGE):
        db.insert("rows", _row(index))
    db.row_count("rows")
    rows = [_row(index) for index in range(ROWS_PER_PAGE)]
    assert db.select_all("rows") == rows
    return lambda: db.select_all("rows")


SHAPES = {"lay_page": _lay_page, "select_all_page": _select_all_page}


def print_headroom():
    """One line per entry: name, C calls and frames, then budgets."""
    for shape in sorted(BUDGET):
        c_calls, frames = count_calls(SHAPES[shape]())
        budget_c, budget_frames = BUDGET[shape]
        print(f"{shape:<22} {c_calls:>5} {budget_c:>5}"
              f"   frames {frames:>3} {budget_frames:>3}")


@pytest.mark.parametrize("shape", sorted(BUDGET))
def test_row_kernel_stays_within_budget(shape):
    counts = count_calls(SHAPES[shape]())
    assert counts == count_calls(SHAPES[shape]()), "count is not steady"
    c_calls, frames = counts
    budget_c, budget_frames = BUDGET[shape]
    assert c_calls <= budget_c, (
        f"{shape} made {c_calls} C calls, budget {budget_c}: per-row C "
        f"work is back on the sqlite row path")
    assert frames <= budget_frames, (
        f"{shape} entered {frames} repro frames, budget {budget_frames}")


if __name__ == "__main__":
    print_headroom()
