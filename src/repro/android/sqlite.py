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

The format is a simple paged heap: page 0 is the catalog, data pages hold
length-prefixed rows, and an in-memory index maps (table, row_id) to
(page, offset).  This is enough to run the AnTuTu DB workload and the
10,000-row transaction benchmark with real byte traffic.
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


class Transactionless(SimulationError):
    """Operation requires an open transaction."""


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

    def _charge_cpu(self, units):
        self.libc.kernel.clock.advance(
            units * self.libc.kernel.costs.cpu_unit_ns, "sqlite:cpu"
        )

    # -- schema ---------------------------------------------------------------

    def create_table(self, name):
        if name in self._catalog:
            raise SimulationError(f"table {name!r} exists")
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
        self._journal_written = False

    def commit(self):
        """Sync the journal; data pages stay cached until checkpoint."""
        if not self._in_transaction:
            raise Transactionless("commit outside transaction")
        self._write_journal()
        self._write_catalog()
        self.libc.fsync(self._fd)
        self._in_transaction = False

    def rollback(self):
        if not self._in_transaction:
            raise Transactionless("rollback outside transaction")
        self._pages.clear()
        self._dirty.clear()
        self._in_transaction = False
        self._catalog = {}
        self._open_catalog_from_disk()

    def _open_catalog_from_disk(self):
        raw = self.libc.pread(self._fd, PAGE_SIZE, 0)
        if raw.strip(b"\x00"):
            meta = json.loads(raw.rstrip(b"\x00").decode())
            self._catalog = {
                name: dict(info) for name, info in meta["tables"].items()
            }
            self._next_page = meta["next_page"]

    def _write_journal(self):
        """Rollback journal: original images of pages we are replacing."""
        entries = sorted(self._dirty)
        header = json.dumps({"pages": entries}).encode()
        self.libc.write_file(self.journal_path, header, mode=0o600)
        self._journal_written = True

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
        """Append one row (bytes); returns its row id."""
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        if not self._in_transaction:
            # autocommit: wrap the single statement
            self.begin()
            row_id = self._insert_locked(info, row)
            self.commit()
            return row_id
        return self._insert_locked(info, row)

    def _insert_locked(self, info, row):
        row = bytes(row)
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
        if used + need > PAGE_SIZE:
            page_no = self._allocate_page()
            info["pages"].append(page_no)
            page = self._load_page(page_no)
            used, count = _HEADER.unpack_from(page, 0)
        _ROW_LEN.pack_into(page, used, len(row))
        page[used + 2 : used + 2 + len(row)] = row
        _HEADER.pack_into(page, 0, used + need, count + 1)
        self._dirty.add(page_no)
        info["row_count"] += 1
        return info["row_count"]

    def select_all(self, table):
        """Return every row of ``table`` (scans pages through the cache)."""
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        rows = []
        for page_no in info["pages"]:
            page = self._load_page(page_no)
            used, count = _HEADER.unpack_from(page, 0)
            cursor = _HEADER.size
            for _ in range(count):
                (length,) = _ROW_LEN.unpack_from(page, cursor)
                rows.append(bytes(page[cursor + 2 : cursor + 2 + length]))
                cursor += 2 + length
                self._charge_cpu(ROW_CPU_UNITS // 4)
        return rows

    def row_count(self, table):
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        return info["row_count"]
