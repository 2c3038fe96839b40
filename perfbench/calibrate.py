"""A fixed Python kernel that tracks the host's speed phases.

The machines this benchmark runs on are shared: with nothing else
running in the container, the same pass of the same stream swings
between a fast and a slow phase (up to 1.9x) for seconds at a time,
and CPU time swings with wall time, so the slowdown is contention for
the core, not time stolen from the process.  A run's wall-clock
metrics are therefore scaled to one reference speed: the runner times
this kernel before and after every block of iterations and multiplies
the block's wall time by ``REFERENCE_NS / kernel time``.

The kernel has four parts, each resembling one kind of work the
simulator does: dict lookups over a working set larger than the caches
plus small-object allocation; a tree of method calls with keyword
arguments; checksums and copies of 4 KB pages in C; and sqlite-style
row packing into a page buffer.  On the reference machine this mix cut
the pass-to-pass spread of the scaled times to 3-4% (from 23-33%
unscaled) on all three workloads; without the row-packing part the
sqlite-heavy ``app_macro`` stayed at 7%.  The kernel never touches the
program under test, so a change to the program moves the scaled figures
exactly as it moves the raw ones.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
import zlib


REFERENCE_NS = 2_500_000
"""The kernel's duration in a fast phase of the machine the reference
figures were taken on (Intel Xeon, 2 vCPUs, Python 3.11); scaled
figures read as wall time on that machine at that speed."""

_source = random.Random(20151)
_TABLE = {i: str(i) for i in range(32_768)}
_KEYS = _source.sample(range(32_768), 1_400)
_PAGES = memoryview(_source.randbytes(64 * 4096))


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


class _Node:
    def __init__(self, name, children=()):
        self.name = name
        self.children = list(children)
        self.visits = 0

    def visit(self, depth=0, **tags):
        self.visits += 1
        total = len(self.name)
        for child in self.children:
            total += child.visit(depth + 1, parent=self.name)
        return total


_ROW = struct.Struct("<H")
_HEADER = struct.Struct("<HH")

_TREE = _Node("root", [_Node(f"n{i}", [_Node(f"l{i}-{j}") for j in range(8)])
                       for i in range(40)])


def _kernel():
    table = _TABLE
    total = 0
    for key in _KEYS:
        total += len(table[key])
    cells = {}
    for i in range(500):
        cell = _Cell(i, str(i))
        cells[cell.value] = cell
        total += cells.get(str(i - 3), cell).key
    for i in range(2_000):
        total += i * i
    for _ in range(6):
        total += _TREE.visit()
    pages = _PAGES
    for start in range(0, len(pages), 4096):
        page = pages[start:start + 4096]
        total += zlib.crc32(page) + len(bytes(page))
        total += hashlib.blake2b(page, digest_size=16).digest()[0]
    row = bytes(26)
    page, used, count = bytearray(4096), _HEADER.size, 0
    for _ in range(1_200):
        need = _ROW.size + len(row)
        if used + need > len(page):
            page, used, count = bytearray(4096), _HEADER.size, 0
        _ROW.pack_into(page, used, len(row))
        page[used + _ROW.size:used + need] = row
        _HEADER.pack_into(page, 0, used + need, count + 1)
        used, count = _HEADER.unpack_from(page, 0)
    return total + count


def kernel_ns():
    """Wall time of one run of the kernel, in nanoseconds."""
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start
