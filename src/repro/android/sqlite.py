"""A small SQLite-like embedded database.

Android apps funnel ~90% of their write requests through SQLite [Jeong et
al., ATC'13, cited by the paper], so the macrobenchmark story lives or
dies on modelling its I/O pattern honestly:

* all reads/writes go through ordinary file syscalls on the app's own
  fd (and are therefore redirected under Anception like any app I/O);
* a **page cache with write-back** sits between row operations and the
  file: inserts inside a transaction touch memory, the commit syncs the
  rollback journal, and dirty data pages drain at the next *checkpoint*
  (the filesystem/page-cache buffering the paper credits for masking the
  microbenchmark latency at macro level).

The format is a simple paged heap: page 0 is the catalog (a JSON dump
listing each table's pages in order, its row count and the next free
page number) and data pages hold length-prefixed rows.  This is enough
to run the AnTuTu DB workload and the 10,000-row transaction benchmark
with real byte traffic.

Inside a transaction each table that has taken a row keeps a **tail
cursor** (:class:`_Tail`): its tail page, the page's used bytes and row
count, the table's row count, and the clock and per-row cost resolved
once.  A row that fits the tail page is charged and queued on the
cursor, already framed with its length prefix, without touching the
page arithmetic; the queued rows are laid into the page image, one
join per page, at the *sync points*, the only readers of the page
images and the catalog: ``commit``, ``checkpoint``, ``select_all``,
``row_count`` and ``create_table`` (``rollback`` discards them).  The
first row of a transaction, a row that needs a new page and every
autocommitted row take the cold path, which does the page arithmetic
and (re)builds the cursor.  Every row is still charged at its own
insert, so simulated time at each syscall and the page, journal and
file bytes are the same as laying each row down at once.

``rollback`` restores the database as of ``begin`` without a syscall:
the catalog, the page numbering, the dirty set, and each tail page cut
back to its begin-time rows; pages the transaction allocated are
dropped.  A row longer than :data:`MAX_ROW_BYTES` (one page minus its
header and the row's length prefix) is rejected before it is charged.
"""

from __future__ import annotations

import json
import struct

from repro.errors import SimulationError
from repro.kernel import vfs
from repro.perf.costs import PAGE_SIZE


ROW_CPU_UNITS = 865
"""Abstract row-handling cost (parse, encode, b-tree bookkeeping)."""

_HEADER = struct.Struct("<HH")  # (used_bytes, row_count) per data page
_ROW_LEN = struct.Struct("<H")  # length prefix of each row

MAX_ROW_BYTES = PAGE_SIZE - _HEADER.size - _ROW_LEN.size
"""The longest row one data page holds."""

_SHORT_ROW = 256
"""Rows shorter than this take their length prefix from :data:`_FRAMES`."""

_FRAMES = tuple(_ROW_LEN.pack(n) for n in range(_SHORT_ROW))
"""Length prefix of a short row, indexed by the row's length.  A longer
row packs its own: a table up to :data:`MAX_ROW_BYTES` would hold 4,091
objects (0.18 MB resident in every process that imports this)."""


class Transactionless(SimulationError):
    """Operation requires an open transaction."""


class _Tail:
    """One table's tail page while a transaction appends to it.

    ``used`` and ``count`` include the ``pending`` rows, which the page
    image receives at the next sync point; ``rows`` is the table's row
    count including them.  Each pending row is held framed, its length
    prefix before it, so laying them down is one join.
    """

    __snapshot__ = "auto"
    __slots__ = ("info", "page_no", "page", "used", "count", "rows",
                 "pending", "clock", "cpu_ns")

    def __init__(self, info, page_no, page, clock, cpu_ns):
        self.info = info
        self.page_no = page_no
        self.page = page
        self.used, self.count = _HEADER.unpack_from(page, 0)
        self.rows = info["row_count"]
        self.pending = []
        self.clock = clock
        self.cpu_ns = cpu_ns


class Database:
    """One database file accessed through a task's libc."""

    __snapshot__ = "auto"

    def __init__(self, libc, path):
        self.libc = libc
        self.path = path
        self.journal_path = path + "-journal"
        self._pages = {}
        self._dirty = set()
        self._catalog = {}
        self._next_page = 1
        self._in_transaction = False
        self._tails = {}
        self._undo = None
        self._undo_tails = {}
        self._fd = None
        self._open()

    # -- file plumbing -----------------------------------------------------

    def _open(self):
        self._fd = self.libc.open(
            self.path, vfs.O_RDWR | vfs.O_CREAT, 0o600
        )
        raw = self.libc.pread(self._fd, PAGE_SIZE, 0)
        if raw.strip(b"\x00"):
            meta = json.loads(raw.rstrip(b"\x00").decode())
            self._catalog = {
                name: dict(info) for name, info in meta["tables"].items()
            }
            self._next_page = meta["next_page"]

    def close(self):
        if self._fd is not None:
            self.libc.close(self._fd)
            self._fd = None

    def _load_page(self, page_no):
        page = self._pages.get(page_no)
        if page is None:
            raw = self.libc.pread(self._fd, PAGE_SIZE, page_no * PAGE_SIZE)
            page = bytearray(raw.ljust(PAGE_SIZE, b"\x00"))
            self._pages[page_no] = page
        return page

    # -- schema ---------------------------------------------------------------

    def create_table(self, name):
        if name in self._catalog:
            raise SimulationError(f"table {name!r} exists")
        self._sync()
        page_no = self._allocate_page()
        self._catalog[name] = {
            "first_page": page_no,
            "pages": [page_no],
            "row_count": 0,
        }
        self._write_catalog()

    def tables(self):
        return sorted(self._catalog)

    def _allocate_page(self):
        page_no = self._next_page
        self._next_page += 1
        page = bytearray(PAGE_SIZE)
        _HEADER.pack_into(page, 0, _HEADER.size, 0)
        self._pages[page_no] = page
        self._dirty.add(page_no)
        return page_no

    def _write_catalog(self):
        meta = json.dumps(
            {"tables": self._catalog, "next_page": self._next_page}
        ).encode()
        if len(meta) > PAGE_SIZE:
            raise SimulationError("catalog page overflow")
        page = bytearray(meta.ljust(PAGE_SIZE, b"\x00"))
        self._pages[0] = page
        self._dirty.add(0)

    # -- transactions ------------------------------------------------------------

    def begin(self):
        if self._in_transaction:
            raise SimulationError("nested transaction")
        self._in_transaction = True
        catalog = {
            name: dict(info, pages=list(info["pages"]))
            for name, info in self._catalog.items()
        }
        self._undo = (catalog, self._next_page, set(self._dirty))

    def _end_transaction(self):
        self._in_transaction = False
        self._tails.clear()
        self._undo = None
        self._undo_tails.clear()

    def commit(self):
        """Sync the journal; data pages stay cached until checkpoint."""
        if not self._in_transaction:
            raise Transactionless("commit outside transaction")
        self._sync()
        self._write_journal()
        self._write_catalog()
        self.libc.fsync(self._fd)
        self._end_transaction()

    def rollback(self):
        """Restore the database as of ``begin``; makes no syscall.

        Rows queued on tail cursors are discarded, each tail page the
        transaction wrote is cut back to its begin-time rows (the bytes
        past them zeroed), pages it allocated are dropped, and the
        catalog, its page image and the dirty set are restored.
        """
        if not self._in_transaction:
            raise Transactionless("rollback outside transaction")
        catalog, next_page, dirty = self._undo
        for page_no, (used, count) in self._undo_tails.items():
            if page_no < next_page:
                page = self._pages[page_no]
                page[used:] = bytes(PAGE_SIZE - used)
                _HEADER.pack_into(page, 0, used, count)
        for page_no in range(next_page, self._next_page):
            self._pages.pop(page_no, None)
        self._catalog = catalog
        self._next_page = next_page
        # The begin-time catalog serializes to the begin-time page 0.
        self._write_catalog()
        self._dirty = {page_no for page_no in dirty if page_no < next_page}
        self._end_transaction()

    def _write_journal(self):
        """Rollback journal: original images of pages we are replacing."""
        entries = sorted(self._dirty)
        header = json.dumps({"pages": entries}).encode()
        self.libc.write_file(self.journal_path, header, mode=0o600)

    def recover(self):
        """Crash recovery at open time (SQLite's hot-journal handling).

        A journal on disk means a transaction committed to the journal
        but never checkpointed — since data pages only reach the main
        file at checkpoint, the main file is still pre-transaction
        consistent and recovery simply discards the journal.  Returns
        True when a hot journal was found and cleared.
        """
        from repro.errors import SyscallError

        try:
            self.libc.unlink(self.journal_path)
            return True
        except SyscallError:
            return False

    def checkpoint(self):
        """Drain dirty pages to the database file, then drop the journal.

        This is the write-back step that normally happens off the app's
        critical path; benchmarks call it explicitly outside (or inside)
        their measured window depending on what they model.
        """
        self._sync()
        if self._in_transaction:
            # A rollback must write these pages again: the file is about
            # to hold their in-transaction images.
            self._undo[2].update(self._dirty)
        for page_no in sorted(self._dirty):
            self.libc.pwrite(
                self._fd, bytes(self._pages[page_no]), page_no * PAGE_SIZE
            )
        self._dirty.clear()
        self.libc.fsync(self._fd)
        try:
            self.libc.unlink(self.journal_path)
        except Exception:
            pass

    # -- rows -----------------------------------------------------------------------

    def insert(self, table, row):
        """Append one row (bytes); returns its row id.

        The row is copied unless it is exactly ``bytes`` (immutable), so
        a caller that later mutates a bytearray or the buffer behind a
        memoryview does not change the stored row.
        """
        if row.__class__ is not bytes:
            row = bytes(row)
        tail = self._tails.get(table)
        if tail is not None:
            size = len(row)
            used = tail.used + 2 + size
            if used <= PAGE_SIZE:
                clock = tail.clock
                if clock.dormant:
                    clock._now_ns += tail.cpu_ns
                else:
                    clock.advance(tail.cpu_ns, "sqlite:cpu")
                tail.used = used
                tail.count += 1
                tail.pending.append(
                    (_FRAMES[size] if size < _SHORT_ROW
                     else _ROW_LEN.pack(size)) + row
                )
                tail.rows += 1
                return tail.rows
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        if len(row) > MAX_ROW_BYTES:
            raise SimulationError(
                f"row of {len(row)} bytes exceeds {MAX_ROW_BYTES}"
            )
        if not self._in_transaction:
            # autocommit: wrap the single statement
            self.begin()
            row_id = self._insert_locked(table, info, row)
            self.commit()
            return row_id
        if tail is not None:
            self._lay_rows(tail)
        return self._insert_locked(table, info, row)

    def _insert_locked(self, table, info, row):
        """The cold path: charge, place the row, rebuild the cursor."""
        kernel = self.libc.kernel
        clock = kernel.clock
        cpu_ns = ROW_CPU_UNITS * kernel.costs.cpu_unit_ns
        if clock.dormant:
            clock._now_ns += cpu_ns
        else:
            clock.advance(cpu_ns, "sqlite:cpu")
        need = 2 + len(row)
        page_no = info["pages"][-1]
        page = self._pages.get(page_no)
        if page is None:
            page = self._load_page(page_no)
        used, count = _HEADER.unpack_from(page, 0)
        self._undo_tails.setdefault(page_no, (used, count))
        if used + need > PAGE_SIZE:
            page_no = self._allocate_page()
            info["pages"].append(page_no)
            page = self._pages[page_no]
            used, count = _HEADER.unpack_from(page, 0)
        _ROW_LEN.pack_into(page, used, len(row))
        page[used + 2 : used + 2 + len(row)] = row
        _HEADER.pack_into(page, 0, used + need, count + 1)
        self._dirty.add(page_no)
        info["row_count"] += 1
        self._tails[table] = _Tail(info, page_no, page, clock, cpu_ns)
        return info["row_count"]

    def _lay_rows(self, tail):
        """Write a tail cursor's queued rows into its page image."""
        pending = tail.pending
        if not pending:
            return
        page = tail.page
        used = _HEADER.unpack_from(page, 0)[0]
        page[used:tail.used] = b"".join(pending)
        _HEADER.pack_into(page, 0, tail.used, tail.count)
        pending.clear()
        self._dirty.add(tail.page_no)
        tail.info["row_count"] = tail.rows

    def _sync(self):
        """Lay every queued row down: run before reading the page
        images or the catalog."""
        for tail in self._tails.values():
            self._lay_rows(tail)

    def select_all(self, table):
        """Return every row of ``table`` (scans pages through the cache).

        Each page is copied once and its rows sliced out of the copy,
        each row's u16 length read inline.  Every row costs ``scan_ns``:
        while the clock is dormant a page's rows are charged as one add
        after its scan (no syscall runs inside it, so every syscall sees
        the same time); under a bus capture each row keeps its own
        ``sqlite:cpu`` charge, so the captured charge stream is per row.
        """
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        self._sync()
        kernel = self.libc.kernel
        clock = kernel.clock
        scan_ns = (ROW_CPU_UNITS // 4) * kernel.costs.cpu_unit_ns
        rows = []
        append = rows.append
        for page_no in info["pages"]:
            page = self._pages.get(page_no)
            if page is None:
                page = self._load_page(page_no)
            data = bytes(page)
            count = data[2] | data[3] << 8
            cursor = _HEADER.size
            for _ in range(count):
                start = cursor + 2
                cursor = start + (data[cursor] | data[cursor + 1] << 8)
                append(data[start:cursor])
            if clock.dormant:
                clock._now_ns += count * scan_ns
            else:
                for _ in range(count):
                    clock.advance(scan_ns, "sqlite:cpu")
        return rows

    def row_count(self, table):
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        self._sync()
        return info["row_count"]
