"""Marshaling sizes and fd translation."""

import errno

import pytest

from repro.android.binder import Transaction
from repro.core.marshal import (
    FdTranslationTable,
    RemoteFdStub,
    copy_parcel,
    encoded_size,
    marshal_call,
    marshal_call_into,
    result_size,
)
from repro.errors import SimulationError, SyscallError
from repro.kernel.process import Credentials, Task


class TestEncodedSize:
    def test_primitives(self):
        assert encoded_size(None) == 1
        assert encoded_size(True) == 1
        assert encoded_size(42) == 8
        assert encoded_size(3.14) == 8

    def test_bytes_and_strings_by_length(self):
        assert encoded_size(b"abcd") == 4
        assert encoded_size("hello") == 5

    def test_containers_sum_members(self):
        assert encoded_size([1, 2]) == 20  # 2*8 + 4
        assert encoded_size({"k": b"vv"}) == 1 + 2 + 4

    def test_transaction_uses_payload_size(self):
        txn = Transaction("svc", "m", {"blob": "x" * 100})
        assert encoded_size(txn) == txn.payload_size + 16

    def test_arbitrary_object_falls_back_to_repr(self):
        class Thing:
            def __repr__(self):
                return "Thing()"

        assert encoded_size(Thing()) == len("Thing()")


class TestMarshalCall:
    def test_size_includes_name_and_args(self):
        wire, size = marshal_call("write", (3, b"data"), {})
        assert size == len("write") + 8 + 4
        assert len(wire) == size

    def test_payload_bytes_present_in_wire(self):
        wire, _ = marshal_call("write", (3, b"MARKER-BYTES"), {})
        assert b"MARKER-BYTES" in wire

    def test_memoryview_argument_goes_on_the_wire_as_its_bytes(self):
        # A memoryview's repr names a heap address; the wire must carry
        # the viewed bytes, identical to the equal bytes argument.
        payload = b"hello, shared pages"
        expected, size = marshal_call("write", (3, payload), {})
        assert marshal_call("write", (3, memoryview(payload)), {}) == (
            expected, size)
        for arg in (payload, memoryview(payload)):
            wire, wire_size = marshal_call_into("write", (3, arg), {})
            assert (bytes(wire), wire_size) == (expected, size)

    def test_result_size(self):
        assert result_size(b"x" * 4096) == 4096
        assert result_size(0) == 8
        assert result_size(None) == 1


def _task(*pairs):
    """A host task whose fd table holds one stub per (host, proxy) fd."""
    task = Task(None, 100, "com.app", Credentials(10001))
    for host_fd, proxy_fd in pairs:
        task.install_fd(host_fd, RemoteFdStub(proxy_fd))
    return task


def _table(*pairs):
    """A translation table over :func:`_task`'s fd table."""
    return FdTranslationTable(_task(*pairs).fd_table)


class TestFdTranslation:
    """The table reads the stubs in the host fd table: binding a host fd
    is installing its stub, and unbinding it is removing the stub."""

    def test_bind_and_translate(self):
        table = _table((5, 3))
        assert table.to_proxy(5) == 3
        assert table.is_remote(5)
        assert 5 in table

    def test_double_bind_rejected(self):
        task = _task((5, 3))
        with pytest.raises(SimulationError):
            task.install_fd(5, RemoteFdStub(4))
        assert FdTranslationTable(task.fd_table).to_proxy(5) == 3

    def test_unbind(self):
        task = _task((5, 3))
        table = FdTranslationTable(task.fd_table)
        task.remove_fd(5)
        assert not table.is_remote(5)
        assert 5 not in table

    def test_translate_unknown_fd_errors(self):
        with pytest.raises(SimulationError):
            FdTranslationTable({}).to_proxy(9)

    def test_host_descriptor_is_not_remote(self):
        task = _task((5, 3))
        task.install_fd(4, object())
        table = FdTranslationTable(task.fd_table)
        assert not table.is_remote(4)
        assert 4 not in table
        with pytest.raises(SimulationError):
            table.to_proxy(4)
        with pytest.raises(SyscallError) as info:
            table.translate_args("read", (4, 100))
        assert info.value.errno == errno.EBADF

    def test_translate_args_rewrites_leading_fd(self):
        assert _table((7, 3)).translate_args("read", (7, 100)) == (3, 100)

    def test_translate_args_refuses_an_unbound_fd(self):
        # The policy redirects only fds that hold stubs: one that does
        # not is a descriptor a reboot dropped, and it must not cross.
        table = _table((7, 3))
        for name, args in (("read", (4, 100)), ("fchmod", (4, 0o600)),
                           ("sendfile", (7, 4, 0, 9))):
            with pytest.raises(SyscallError) as info:
                table.translate_args(name, args)
            assert info.value.errno == errno.EBADF

    def test_translate_args_sendfile_both_fds(self):
        table = _table((7, 3), (8, 4))
        assert table.translate_args("sendfile", (7, 8, None, 100)) == (
            3, 4, None, 100,
        )

    def test_translate_args_non_fd_call_untouched(self):
        assert _table((7, 3)).translate_args("mkdir", ("/x", 0o755)) == (
            "/x", 0o755)

    def test_remote_fds_set(self):
        task = _task((5, 1), (6, 2))
        task.install_fd(7, object())
        assert FdTranslationTable(task.fd_table).remote_fds() == {5, 6}


class TestRemoteFdStub:
    def test_dup_returns_self(self):
        stub = RemoteFdStub(3, "f")
        assert stub.dup() is stub

    def test_close_is_inert(self):
        assert RemoteFdStub(3).close() is None


class TestFdFirstSweep:
    """Every fd-first call the proxy can be handed must have its leading
    host fd rewritten — a call missing from the set reaches the CVM with
    a dangling host number and hits the wrong (or no) file."""

    @pytest.mark.parametrize("name,rest", [
        ("ftruncate", (4096,)),
        ("ftruncate64", (4096,)),
        ("fchmod", (0o640,)),
        ("fchown", (1000, 1000)),
        ("fchown32", (1000, 1000)),
        ("fdatasync", ()),
        ("fallocate", (0, 0, 4096)),
        ("flock", (2,)),
        ("getdents64", ()),
        ("_llseek", (0, 0, 0)),
        ("fstat64", ()),
        ("pread64", (100, 0)),
        ("pwrite64", (b"x", 0)),
    ])
    def test_translate_args_rewrites_the_new_fd_first_calls(self, name,
                                                            rest):
        table = _table((7, 3))
        assert table.translate_args(name, (7,) + rest) == (3,) + rest

    def test_translate_args_still_skips_path_first_calls(self):
        table = _table((7, 3))
        for name in ("truncate", "chmod", "chown", "unlink", "rename",
                     "getdents"):
            args = ("/data/x", 7)
            assert table.translate_args(name, args) == args


class TestCopyParcel:
    def test_scalars_pass_through(self):
        for value in ("text", b"raw", 7, 2.5, True, None):
            assert copy_parcel(value) is value

    def test_containers_are_rebuilt_at_every_depth(self):
        parcel = {"list": [1, {"deep": [2]}], "tuple": ([3],),
                  "set": {4}, "buf": bytearray(b"ab")}
        copied = copy_parcel(parcel)
        assert copied == parcel
        assert copied is not parcel
        assert copied["list"] is not parcel["list"]
        assert copied["list"][1]["deep"] is not parcel["list"][1]["deep"]
        assert isinstance(copied["tuple"], tuple)
        assert copied["tuple"][0] is not parcel["tuple"][0]
        assert copied["set"] is not parcel["set"]
        assert copied["buf"] is not parcel["buf"]

    def test_other_objects_pass_by_reference(self):
        marker = object()
        assert copy_parcel({"obj": marker})["obj"] is marker
