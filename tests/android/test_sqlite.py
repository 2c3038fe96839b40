"""The embedded SQLite-like engine."""

import pytest

from repro.android.sqlite import MAX_ROW_BYTES, Database, Transactionless
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.process import Credentials


@pytest.fixture
def libc():
    kernel = Machine(total_mb=128).kernel
    task = kernel.spawn_task("dbapp", Credentials(10001))
    task.cwd = "/data/local/tmp"
    return Libc(kernel, task)


def _file_bytes(libc, path):
    inode = libc.kernel.vfs.resolve(path, Credentials(0))
    return bytes(inode.data)


@pytest.fixture
def db(libc):
    database = Database(libc, "/data/local/tmp/test.db")
    database.create_table("t")
    return database


class TestSchema:
    def test_create_and_list_tables(self, db):
        db.create_table("second")
        assert db.tables() == ["second", "t"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SimulationError):
            db.create_table("t")

    def test_insert_into_missing_table_rejected(self, db):
        with pytest.raises(SimulationError):
            db.insert("ghost", b"row")


class TestRows:
    def test_insert_returns_row_ids(self, db):
        assert db.insert("t", b"one") == 1
        assert db.insert("t", b"two") == 2

    def test_select_all_returns_rows_in_order(self, db):
        db.insert("t", b"alpha")
        db.insert("t", b"beta")
        assert db.select_all("t") == [b"alpha", b"beta"]

    def test_row_count(self, db):
        for i in range(5):
            db.insert("t", b"r")
        assert db.row_count("t") == 5

    def test_rows_span_pages(self, db):
        row = b"x" * 500
        for _ in range(20):  # 20 * 502 bytes > one 4096B page
            db.insert("t", row)
        assert db.select_all("t") == [row] * 20

    def test_variable_length_rows(self, db):
        rows = [bytes([i]) * (i + 1) for i in range(30)]
        for row in rows:
            db.insert("t", row)
        assert db.select_all("t") == rows


class TestTransactions:
    def test_commit_outside_transaction_rejected(self, db):
        with pytest.raises(Transactionless):
            db.commit()

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(SimulationError):
            db.begin()

    def test_commit_writes_journal(self, db, libc):
        db.begin()
        db.insert("t", b"row")
        db.commit()
        assert libc.read_file("/data/local/tmp/test.db-journal")

    def test_checkpoint_drops_journal(self, db, libc):
        db.begin()
        db.insert("t", b"row")
        db.commit()
        db.checkpoint()
        from repro.errors import SyscallError

        with pytest.raises(SyscallError):
            libc.read_file("/data/local/tmp/test.db-journal")


    def test_rollback_keeps_uncheckpointed_commits(self, libc):
        """Rollback returns to the last commit, not the last checkpoint."""
        db = Database(libc, "/data/local/tmp/r.db")
        db.create_table("t")
        db.begin()
        db.insert("t", b"one")
        db.insert("t", b"two")
        db.commit()
        db.begin()
        db.insert("t", b"three")
        clock = libc.kernel.clock
        before = clock.now_ns
        db.rollback()
        assert clock.now_ns == before  # no syscall, no charge
        assert db.select_all("t") == [b"one", b"two"]
        assert db.row_count("t") == 2
        assert db.insert("t", b"four") == 3
        db.begin()
        db.insert("t", b"five")
        db.rollback()
        db.checkpoint()
        db.close()
        reopened = Database(libc, "/data/local/tmp/r.db")
        assert reopened.select_all("t") == [b"one", b"two", b"four"]
        assert reopened.row_count("t") == 3

    def test_rollback_leaves_the_file_bytes_of_its_commits(self, libc):
        paths = "/data/local/tmp/plain.db", "/data/local/tmp/undone.db"
        for path in paths:
            db = Database(libc, path)
            db.create_table("t")
            db.begin()
            db.insert("t", b"kept")
            db.commit()
            if path == paths[1]:
                db.begin()
                for _ in range(3):
                    db.insert("t", b"undone" * 300)  # two pages
                db.rollback()
            db.checkpoint()
            db.close()
        assert _file_bytes(libc, paths[0]) == _file_bytes(libc, paths[1])

    def test_rollback_drops_tables_and_pages_of_the_transaction(self, db):
        db.begin()
        db.create_table("later")
        db.insert("later", b"x")
        for _ in range(10):
            db.insert("t", b"y" * 1000)  # fills the tail, allocates pages
        db.rollback()
        assert db.tables() == ["t"]
        assert db.select_all("t") == []
        db.create_table("later")  # page numbering restored too
        assert db.select_all("later") == []


class TestRowSize:
    def test_page_sized_row_fits_and_persists(self, libc):
        row = bytes(range(256)) * 15 + b"z" * (MAX_ROW_BYTES - 3840)
        assert len(row) == MAX_ROW_BYTES == 4090
        db = Database(libc, "/data/local/tmp/big.db")
        db.create_table("t")
        db.insert("t", b"small")
        db.insert("t", row)
        db.checkpoint()
        db.close()
        reopened = Database(libc, "/data/local/tmp/big.db")
        assert reopened.select_all("t") == [b"small", row]

    @pytest.mark.parametrize("in_transaction", [False, True])
    def test_oversized_row_rejected_without_side_effects(self, libc,
                                                         in_transaction):
        clock = libc.kernel.clock
        paths = "/data/local/tmp/ref.db", "/data/local/tmp/over.db"
        for path in paths:
            db = Database(libc, path)
            db.create_table("t")
            if in_transaction:
                db.begin()
            db.insert("t", b"before")
            if path == paths[1]:
                before = clock.now_ns
                with pytest.raises(SimulationError):
                    db.insert("t", b"x" * (MAX_ROW_BYTES + 1))
                assert clock.now_ns == before
            db.insert("t", b"after")
            if in_transaction:
                db.commit()
            else:
                db.begin()  # no transaction was left open
                db.commit()
            assert db.select_all("t") == [b"before", b"after"]
            db.checkpoint()
            db.close()
        assert _file_bytes(libc, paths[0]) == _file_bytes(libc, paths[1])


class TestPersistence:
    def test_data_survives_reopen_after_checkpoint(self, libc):
        db = Database(libc, "/data/local/tmp/p.db")
        db.create_table("t")
        db.begin()
        db.insert("t", b"durable")
        db.commit()
        db.checkpoint()
        db.close()

        reopened = Database(libc, "/data/local/tmp/p.db")
        assert reopened.select_all("t") == [b"durable"]
        assert reopened.row_count("t") == 1

    def test_uncheckpointed_data_not_on_disk(self, libc):
        db = Database(libc, "/data/local/tmp/q.db")
        db.create_table("t")
        db.begin()
        db.insert("t", b"cached-only")
        db.commit()
        db.close()

        # Without checkpoint neither data pages nor the catalog hit the
        # file: a reopen sees the pre-transaction (empty) database.
        reopened = Database(libc, "/data/local/tmp/q.db")
        assert reopened.tables() == []


class TestCosts:
    def test_insert_charges_cpu(self, db, libc):
        clock = libc.kernel.clock
        db.begin()
        before = clock.now_ns
        db.insert("t", b"row")
        assert clock.now_ns > before

    def test_in_transaction_inserts_make_no_syscalls(self, db, libc):
        """Row inserts hit the page cache, not the kernel."""
        kernel = libc.kernel
        db.begin()
        db.insert("t", b"warm")  # first insert may load a page
        kernel.syscall_log = []
        kernel.syscall_log_enabled = True
        try:
            for _ in range(50):
                db.insert("t", b"row")
        finally:
            kernel.syscall_log_enabled = False
        assert kernel.syscall_log == []
