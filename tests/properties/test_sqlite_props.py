"""Model-based property tests for the SQLite-like engine."""

import copy
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.sqlite import (
    MAX_ROW_BYTES,
    ROW_CPU_UNITS,
    Database,
    Transactionless,
)
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.process import Credentials
from repro.obs.bus import TraceBus
from repro.perf.costs import PAGE_SIZE


def fresh_db(path="/data/local/tmp/prop.db", engine=Database):
    kernel = Machine(total_mb=128).kernel
    task = kernel.spawn_task("db", Credentials(10001))
    db = engine(Libc(kernel, task), path)
    db.create_table("t")
    return db


_rows = st.lists(st.binary(min_size=1, max_size=300), min_size=1,
                 max_size=40)


class TestSqliteModel:
    @given(rows=_rows)
    @settings(max_examples=30, deadline=None)
    def test_select_returns_inserts_in_order(self, rows):
        db = fresh_db()
        db.begin()
        for row in rows:
            db.insert("t", row)
        db.commit()
        assert db.select_all("t") == rows
        assert db.row_count("t") == len(rows)

    @given(rows=_rows)
    @settings(max_examples=25, deadline=None)
    def test_checkpoint_then_reopen_preserves_rows(self, rows):
        db = fresh_db()
        db.begin()
        for row in rows:
            db.insert("t", row)
        db.commit()
        db.checkpoint()
        libc = db.libc
        db.close()
        reopened = Database(libc, db.path)
        assert reopened.select_all("t") == rows

    @given(
        committed=_rows,
        abandoned=_rows,
    )
    @settings(max_examples=25, deadline=None)
    def test_rollback_discards_only_uncommitted(self, committed, abandoned):
        db = fresh_db()
        db.begin()
        for row in committed:
            db.insert("t", row)
        db.commit()
        db.checkpoint()

        db.begin()
        for row in abandoned:
            db.insert("t", row)
        db.rollback()
        assert db.select_all("t") == committed

    @given(batches=st.lists(_rows, min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_many_transactions_accumulate(self, batches):
        db = fresh_db()
        expected = []
        for batch in batches:
            db.begin()
            for row in batch:
                db.insert("t", row)
            db.commit()
            expected.extend(batch)
        assert db.select_all("t") == expected


# -- op scripts against a list model ---------------------------------------------

_TABLES = ("t", "t", "a", "b")
"""Table names, "t" (which every script starts with) weighted up."""
_SIZES = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=MAX_ROW_BYTES),
    st.sampled_from(["fill", MAX_ROW_BYTES, MAX_ROW_BYTES + 1]),
)
_STEP_KINDS = ("insert",) * 3 + (
    "checkpoint", "select_all", "row_count", "create_table",
)
_STEPS = st.lists(
    st.tuples(st.sampled_from(_STEP_KINDS), st.sampled_from(_TABLES),
              _SIZES, st.integers(min_value=1, max_value=30)),
    max_size=8,
)
_BLOCKS = st.lists(
    st.tuples(st.booleans(), _STEPS,
              st.sampled_from(["commit", "rollback", "checkpoint",
                               "reopen", "begin", None])),
    min_size=1, max_size=6,
)


def _script(blocks):
    """Flatten ``(opens a transaction, steps, closing op)`` blocks into
    ``(kind, table, row size, rows)`` ops; each kind reads what it
    needs.  A block that opens no transaction runs its steps in
    autocommit (or inside a transaction an earlier block left open)."""
    ops = []
    for opens, steps, closing in blocks:
        if opens:
            ops.append(("begin", "t", 0, 1))
        ops.extend(steps)
        if closing is not None:
            ops.append((closing, "t", 0, 1))
    return ops


_OPS = _BLOCKS.map(_script)


def _fill_size(rows):
    """The row size that exactly fills the tail page ``rows`` leave
    (a whole fresh page when the tail has no room left)."""
    used = 4
    for row in rows:
        if used + 2 + len(row) > PAGE_SIZE:
            used = 4
        used += 2 + len(row)
    room = PAGE_SIZE - used - 2
    return room if room >= 0 else MAX_ROW_BYTES


def _file_bytes(db):
    inode = db.libc.kernel.vfs.resolve(db.path, Credentials(0))
    return bytes(inode.data)


def _replay(ops, eager):
    """Run ``ops`` against a fresh database, checking every result
    against a list model; return the file image after each checkpoint.

    The model keeps the committed tables, the open transaction's working
    copy and the tables a reopen would see (``None`` once a checkpoint
    inside a transaction has put uncommitted pages in the file; a reopen
    then checkpoints first).  With ``eager`` every insert is followed by
    a ``row_count``, a sync point, so no row ever waits on a tail
    cursor.
    """
    db = fresh_db()
    libc = db.libc
    committed = {"t": []}
    disk = {}
    work = None
    serial = 0
    images = []

    def checkpoint():
        db.checkpoint()
        images.append(_file_bytes(db))

    for name, table, size, repeat in ops:
        tables = committed if work is None else work
        if name == "insert":
            for _ in range(repeat):
                if table not in tables:
                    with pytest.raises(SimulationError):
                        db.insert(table, b"")
                    break
                length = (_fill_size(tables[table]) if size == "fill"
                          else size)
                serial += 1
                row = (serial.to_bytes(4, "little") * length)[:length]
                if length > MAX_ROW_BYTES:
                    with pytest.raises(SimulationError):
                        db.insert(table, row)
                    break
                tables[table].append(row)
                assert db.insert(table, row) == len(tables[table])
                if eager:
                    db.row_count(table)
        elif name == "begin":
            if work is not None:
                with pytest.raises(SimulationError):
                    db.begin()
                continue
            db.begin()
            work = copy.deepcopy(committed)
        elif name in ("commit", "rollback"):
            if work is None:
                with pytest.raises(Transactionless):
                    getattr(db, name)()
                continue
            getattr(db, name)()
            if name == "commit":
                committed = work
            work = None
        elif name == "checkpoint":
            checkpoint()
            disk = copy.deepcopy(committed) if work is None else None
        elif name == "reopen":
            if work is not None:
                continue
            if disk is None:
                checkpoint()
                disk = copy.deepcopy(committed)
            db.close()
            db = Database(libc, db.path)
            committed = copy.deepcopy(disk)
        elif name == "create_table":
            if table in tables:
                with pytest.raises(SimulationError):
                    db.create_table(table)
            else:
                db.create_table(table)
                tables[table] = []
        elif table not in tables:
            with pytest.raises(SimulationError):
                getattr(db, name)(table)
        elif name == "select_all":
            assert db.select_all(table) == tables[table]
        else:
            assert db.row_count(table) == len(tables[table])
    if work is not None:
        db.commit()
        committed = work
    checkpoint()
    db.close()
    reopened = Database(libc, db.path)
    assert reopened.tables() == sorted(committed)
    for table, rows in committed.items():
        assert reopened.select_all(table) == rows
        assert reopened.row_count(table) == len(rows)
    return images


class TestOpScripts:
    """Random scripts over every sync point and every way a tail cursor
    can go stale."""

    @given(ops=_OPS)
    @settings(max_examples=150, deadline=None)
    def test_engine_matches_list_model_and_eager_file_bytes(self, ops):
        """Rows read back as the model says, and queued rows leave the
        same file bytes as rows laid down at once."""
        assert _replay(ops, eager=False) == _replay(ops, eager=True)


# -- row kernels against a row-at-a-time reference --------------------------------


class _RowAtATime(Database):
    """The reference encoder: each row is copied and queued unframed,
    framed and laid into its page one at a time, and scanned one at a
    time with one ``sqlite:cpu`` charge per row."""

    def insert(self, table, row):
        row = bytes(row)
        tail = self._tails.get(table)
        if tail is not None and tail.used + 2 + len(row) <= PAGE_SIZE:
            tail.clock.advance(tail.cpu_ns, "sqlite:cpu")
            tail.used += 2 + len(row)
            tail.count += 1
            tail.pending.append(row)
            tail.rows += 1
            return tail.rows
        return super().insert(table, row)

    def _lay_rows(self, tail):
        if not tail.pending:
            return
        page = tail.page
        (used,) = struct.unpack_from("<H", page, 0)
        for row in tail.pending:
            struct.pack_into("<H", page, used, len(row))
            page[used + 2:used + 2 + len(row)] = row
            used += 2 + len(row)
        assert used == tail.used
        struct.pack_into("<HH", page, 0, used, tail.count)
        tail.pending.clear()
        self._dirty.add(tail.page_no)
        tail.info["row_count"] = tail.rows

    def select_all(self, table):
        info = self._catalog.get(table)
        if info is None:
            raise SimulationError(f"no table {table!r}")
        self._sync()
        kernel = self.libc.kernel
        scan_ns = (ROW_CPU_UNITS // 4) * kernel.costs.cpu_unit_ns
        rows = []
        for page_no in info["pages"]:
            page = self._pages.get(page_no)
            if page is None:
                page = self._load_page(page_no)
            cursor = 4
            for _ in range(struct.unpack_from("<HH", page, 0)[1]):
                (size,) = struct.unpack_from("<H", page, cursor)
                rows.append(bytes(page[cursor + 2:cursor + 2 + size]))
                cursor += 2 + size
                kernel.clock.advance(scan_ns, "sqlite:cpu")
        return rows


class _Subclassed(bytes):
    """A bytes subclass: the engine must store a plain ``bytes`` copy."""


_CARRIERS = ("bytes", "bytearray", "memoryview", "subclass")


def _carry(row, carrier):
    """``row`` in the buffer type ``carrier`` names (a fresh buffer)."""
    if carrier == "bytes":
        return bytes(row)
    if carrier == "bytearray":
        return bytearray(row)
    if carrier == "memoryview":
        return memoryview(bytearray(row))
    return _Subclassed(row)


_KERNEL_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("insert",) * 6 + (
            "begin", "commit", "rollback", "checkpoint", "select_all",
            "row_count", "reopen")),
        _SIZES, st.sampled_from(_CARRIERS),
        st.integers(min_value=1, max_value=40)),
    min_size=1, max_size=14,
)


def _kernel_run(engine, steps):
    """Run ``steps`` on a fresh ``engine`` database, checking row ids and
    returned rows against a list model; return what each step left: its
    result, the clock, every page image and the file bytes.

    Each inserted bytearray or memoryview is overwritten right after
    the insert, while its row may still wait on the tail cursor.
    """
    db = fresh_db(engine=engine)
    libc = db.libc
    clock = libc.kernel.clock
    committed, work = [], None
    serial = 0
    seen = []
    for kind, size, carrier, repeat in steps:
        rows = committed if work is None else work
        result = None
        if kind == "insert":
            result = []
            for _ in range(repeat):
                length = _fill_size(rows) if size == "fill" else size
                serial += 1
                row = (serial.to_bytes(4, "little") * length)[:length]
                buffer = _carry(row, carrier)
                if length > MAX_ROW_BYTES:
                    with pytest.raises(SimulationError):
                        db.insert("t", buffer)
                    break
                result.append(db.insert("t", buffer))
                rows.append(row)
                assert result[-1] == len(rows)
                if isinstance(buffer, (bytearray, memoryview)):
                    buffer[:] = b"\xff" * length
        elif kind == "begin":
            if work is not None:
                with pytest.raises(SimulationError):
                    db.begin()
            else:
                db.begin()
                work = list(committed)
        elif kind in ("commit", "rollback"):
            if work is None:
                with pytest.raises(Transactionless):
                    getattr(db, kind)()
            else:
                getattr(db, kind)()
                if kind == "commit":
                    committed = work
                work = None
        elif kind == "checkpoint":
            db.checkpoint()
        elif kind == "reopen":
            if work is None:
                db.checkpoint()
                db.close()
                db = engine(libc, db.path)
        elif kind == "select_all":
            result = db.select_all("t")
            assert result == rows
        else:
            result = db.row_count("t")
            assert result == len(rows)
        seen.append((kind, result, clock.now_ns,
                     {no: bytes(page) for no, page in db._pages.items()},
                     _file_bytes(db)))
    return seen


class TestRowKernels:
    """Rows framed at insert, one join per page and one copy per scanned
    page leave what framing, laying and scanning one row at a time
    leaves."""

    @given(steps=_KERNEL_STEPS)
    @settings(max_examples=120, deadline=None)
    def test_row_kernels_match_row_at_a_time_reference(self, steps):
        assert _kernel_run(Database, steps) \
            == _kernel_run(_RowAtATime, steps)

    @given(sizes=st.lists(_SIZES.filter(
               lambda size: size == "fill" or size <= MAX_ROW_BYTES),
               min_size=1, max_size=60),
           carrier=st.sampled_from(_CARRIERS))
    @settings(max_examples=40, deadline=None)
    def test_captured_scan_charges_each_row(self, sizes, carrier):
        """A scan under a bus capture costs what the dormant scan costs,
        in one ``sqlite:cpu`` charge per row."""
        costs = []
        for captured in (False, True):
            db = fresh_db()
            rows = []
            db.begin()
            for index, size in enumerate(sizes):
                length = _fill_size(rows) if size == "fill" else size
                rows.append(bytes([index % 251]) * length)
                db.insert("t", _carry(rows[-1], carrier))
            db.commit()
            db.checkpoint()
            db.close()
            db = Database(db.libc, db.path)  # cold: pages load mid-scan
            clock = db.libc.kernel.clock
            start = clock.now_ns
            if captured:
                with TraceBus.install(clock).capture() as capture:
                    assert db.select_all("t") == rows
                scans = [charge for charge in capture.charges()
                         if charge[0] == "sqlite:cpu"]
                assert len(scans) == len(rows)
            else:
                assert db.select_all("t") == rows
            costs.append(clock.now_ns - start)
        assert costs[0] == costs[1]
