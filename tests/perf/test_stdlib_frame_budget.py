"""Stdlib frame budget: Python frames a call enters outside ``src/``.

The frame budget (``test_frame_budget.py``) counts only ``repro``
frames, so a call into the standard library's Python code is invisible
to it: hashing an enum member runs ``Enum.__hash__``, a
``contextlib.nullcontext()`` enters three frames, and a frozen module
(``<frozen posixpath>``) is Python code too.  This file counts the
``sys.setprofile`` "call" events for named code that lives neither
under ``src/repro`` nor under ``tests/`` (the shapes' own drivers)
while one warm call of each frame-budget shape runs, and asserts the
count is at most its budget.  As in the frame budget, comprehension
and generator-expression frames are skipped.

The budget is 0 for every shape except ``stat`` and ``open_close``,
whose path goes through ``posixpath.normpath`` (the kernel's path
normalisation, which is semantic).  Before ``VFS.stat_inode`` keyed its
file-type table by the kind's value, ``fstat`` and ``stat`` entered
five more (``Enum.__hash__``); before ``_forward_binder`` dropped its
``nullcontext()``, every delegated binder call entered three more.

Run as a module from the repository root (``make frames``) it prints
each shape's name, measured frames and budget, one per line::

    PYTHONPATH=src python -m tests.perf.test_stdlib_frame_budget
"""

import os
import sys
from collections import Counter

import pytest

import repro

from tests.perf.test_frame_budget import BUDGET as FRAME_BUDGET, _calls


_SRC = os.path.dirname(repro.__file__) + os.sep
_TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

BUDGET = {"stat": 3, "open_close": 4}
"""Stdlib frames per call; every shape not named here has budget 0."""


def count_stdlib_frames(call):
    """Named frames outside ``src/repro`` and ``tests/`` entered while
    ``call()`` runs, as a :class:`~collections.Counter` of
    ``file:function`` -> entries."""
    frames = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if not path.startswith((_SRC, _TESTS)) \
                    and not code.co_name.startswith("<"):
                frames[f"{os.path.basename(path)}:{code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return frames


def _warm_stdlib_frames(run):
    run()
    run()  # warm, as the frame budget measures
    return count_stdlib_frames(run)


def print_headroom():
    """One line per shape: name, measured stdlib frames, budget."""
    calls = _calls()
    for shape in sorted(FRAME_BUDGET):
        frames = _warm_stdlib_frames(calls[shape])
        print(f"{shape:<22} {sum(frames.values()):>5} "
              f"{BUDGET.get(shape, 0):>5}   stdlib frames")


@pytest.mark.parametrize("shape", sorted(FRAME_BUDGET))
def test_call_stays_within_stdlib_frame_budget(shape):
    frames = _warm_stdlib_frames(_calls()[shape])
    budget = BUDGET.get(shape, 0)
    total = sum(frames.values())
    assert total <= budget, (
        f"{shape} entered {total} stdlib frames, budget {budget}: "
        f"{dict(frames.most_common())}")


if __name__ == "__main__":
    print_headroom()
