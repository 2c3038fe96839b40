"""CRC budget: ``zlib.crc32`` calls per dormant call, a deterministic gate.

The frame budget (``test_frame_budget.py``) cannot see a C call, and a
``crc32`` over a 4 KB descriptor costs more than a dozen frames.  The
CRC exists to detect the transport faults a fault engine injects
(DESIGN §6), so with no engine armed no call may take one.  This file
counts the ``sys.setprofile`` "c_call" events for ``zlib.crc32`` made
from ``repro`` code while one warm call of each frame-budget shape
runs, and asserts the count is at most its budget: 0 for every shape.
Before the ring's CRC was taken only while an engine is armed, a 4 KB
``pwrite`` took 4 (two per descriptor), a 3-segment ``writev`` 12, the
``open`` + ``close`` pair 8, and the ``wb_drain`` and ``binder_drain``
windows 32 and 36.

Run as a module from the repository root (``make frames``) it prints
each shape's name, measured CRCs and budget, one per line::

    PYTHONPATH=src python -m tests.perf.test_crc_budget
"""

import os
import sys
import zlib

import pytest

import repro

from tests.perf.test_frame_budget import BUDGET as FRAME_BUDGET, _calls


_SRC = os.path.dirname(repro.__file__) + os.sep

BUDGET = 0
"""``crc32`` calls per dormant call, for every frame-budget shape."""


def count_crcs(call):
    """``zlib.crc32`` calls made from ``repro`` code while ``call()``
    runs."""
    crcs = 0

    def profile(frame, event, arg):
        nonlocal crcs
        if event == "c_call" and arg is zlib.crc32 \
                and frame.f_code.co_filename.startswith(_SRC):
            crcs += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return crcs


def _warm_crcs(run):
    run()
    run()  # warm, as the frame budget measures
    return count_crcs(run)


def print_headroom():
    """One line per shape: name, measured CRCs, budget."""
    calls = _calls()
    for shape in sorted(FRAME_BUDGET):
        print(f"{shape:<22} {_warm_crcs(calls[shape]):>5} {BUDGET:>5}"
              f"   crc32")


@pytest.mark.parametrize("shape", sorted(FRAME_BUDGET))
def test_dormant_call_takes_no_crc(shape):
    crcs = _warm_crcs(_calls()[shape])
    assert crcs <= BUDGET, (
        f"{shape} took {crcs} crc32 calls with no fault engine armed, "
        f"budget {BUDGET}")


if __name__ == "__main__":
    print_headroom()
