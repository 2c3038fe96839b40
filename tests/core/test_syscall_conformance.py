"""Syscall-coverage conformance: the redirect table is fully plumbed.

For every redirect-class syscall the simulated kernel actually
implements, three things must exist:

1. a **routing entry** — fd-taking calls must appear in the policy's
   fd lists, which both route them by the fd's locality and rewrite
   the fd into the proxy's space, or host descriptor numbers would
   ship verbatim into the CVM's fd space;
2. a **libc veneer** — a method on :class:`~repro.kernel.libc.Libc`
   (possibly under an alias, e.g. ``pread64`` -> ``pread``) so scripted
   programs can reach the call;
3. **>= 1 differential op-script** in the catalogue exercising it in
   all three modes, or a documented exemption.

Every split-class call the layer has its own handler for must likewise
run in the catalogue.  Each check fails with the list of missing names,
so adding a syscall handler without finishing its plumbing turns CI red
with a to-do list.
"""

from __future__ import annotations

import errno
import inspect
from types import SimpleNamespace

import pytest

from repro.android.app import AppContext
from repro.android.binder import (
    BINDER_IOCTL_REQUESTS,
    DELEGATED_BINDER_REQUESTS,
    Transaction,
)
from repro.core.anception import _SPLIT_HANDLERS
from repro.core.marshal import (
    FdTranslationTable,
    RemoteFdStub,
    encoded_size,
)
from repro.core.policy import (
    FD_CALLS,
    FD_PAIR_CALLS,
    PATH_CALLS,
    Decision,
    RedirectionPolicy,
)
from repro.errors import SyscallError
from repro.kernel import vfs
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.syscalls import CATALOGUE, SyscallClass, classify

from tests.differential.catalogue import (
    BINDER_EXEMPT,
    BINDER_SCRIPTS,
    EXEMPT,
    SCRIPTS,
    SYSCALL_ALIASES,
    covered_binder_requests,
    covered_calls,
    covered_ops,
)
from tests.differential.harness import HARNESS_OPS


def redirect_universe():
    """Redirect-class syscalls with a live kernel handler."""
    machine = Machine()
    handlers = set(machine.kernel._handlers)
    return sorted(
        name for name in handlers
        if name in CATALOGUE and classify(name) is SyscallClass.REDIRECT
    )


FD_TAKING = frozenset({
    # Universe calls whose first argument is a descriptor and therefore
    # must be rewritten into the proxy's fd space when forwarded.
    "read", "write", "readv", "writev", "pread64", "pwrite64",
    "lseek", "_llseek", "fstat", "fstat64", "fsync", "fdatasync",
    "ftruncate", "ftruncate64", "fchmod", "fchown", "fchown32",
    "send", "sendto", "recv", "recvfrom", "connect", "bind",
    "listen", "accept",
})

FD_PAIR_TAKING = frozenset({"sendfile"})


class TestUniverse:
    def test_universe_is_nonempty_and_stable_floor(self):
        universe = redirect_universe()
        assert len(universe) >= 52, universe

    def test_exemptions_are_real_syscalls(self):
        universe = set(redirect_universe())
        ghosts = sorted(set(EXEMPT) - universe)
        assert not ghosts, (
            f"EXEMPT names not in the redirect universe: {ghosts}"
        )

    def test_aliases_point_at_real_veneers(self):
        missing = sorted(
            alias for alias in set(SYSCALL_ALIASES.values())
            if not callable(getattr(Libc, alias, None))
        )
        assert not missing, f"alias targets without a veneer: {missing}"


class TestMarshalEntries:
    def test_fd_taking_calls_have_translation_entries(self):
        universe = set(redirect_universe())
        missing = sorted((FD_TAKING & universe) - FD_CALLS)
        assert not missing, (
            f"fd-taking redirect calls missing from FD_CALLS "
            f"(host fds would leak into the CVM): {missing}"
        )

    def test_fd_pair_calls_have_translation_entries(self):
        universe = set(redirect_universe())
        missing = sorted((FD_PAIR_TAKING & universe) - FD_PAIR_CALLS)
        assert not missing, (
            f"two-fd redirect calls missing from FD_PAIR_CALLS: {missing}"
        )

    def test_no_path_call_masquerades_as_fd_first(self):
        # getdents takes a path in this simulation (listdir veneer):
        # routed by fd, a path would never reach the CVM.
        assert not PATH_CALLS & (FD_CALLS | FD_PAIR_CALLS)
        universe = set(redirect_universe())
        unaccounted = sorted(
            (FD_CALLS | FD_PAIR_CALLS) & universe
            - FD_TAKING - FD_PAIR_TAKING
        )
        assert not unaccounted, (
            f"calls translated as fd-first but not catalogued as "
            f"fd-taking here — update FD_TAKING: {unaccounted}"
        )


def _fd_translated(name):
    """Whether the translation table rewrites ``name``'s fd argument."""
    table = FdTranslationTable({7: RemoteFdStub(3)})
    return table.translate_args(name, (7, 7, 0, 0)) != (7, 7, 0, 0)


class TestFdLocality:
    """A redirected fd call runs where its descriptor lives.

    Every call whose fd the translation table rewrites must also be
    routed by that fd: a host fd (or a closed one) left to a plain
    redirect crosses under its host number and names whatever the
    proxy holds there — another file of the app's.
    """

    def test_every_fd_translated_redirect_call_routes_by_locality(self):
        policy = RedirectionPolicy(())
        # fd 8 is open on the host, fd 9 is closed, fd 7 is in the CVM.
        task = SimpleNamespace(pid=99, cwd="/data/data/probe",
                               fd_table={8: object(), 7: RemoteFdStub(3)})
        table = FdTranslationTable(task.fd_table)
        misrouted = []
        for name in sorted(CATALOGUE):
            if classify(name) is not SyscallClass.REDIRECT \
                    or not _fd_translated(name):
                continue
            routes = tuple(
                policy.decide(task, name, (fd, fd, 0, 0), table)
                for fd in (8, 9, 7)
            )
            if routes != (Decision.HOST, Decision.HOST, Decision.REDIRECT):
                misrouted.append(name)
        assert not misrouted, (
            f"fd-translated redirect calls not routed by fd locality "
            f"(a host fd would cross under its host number): {misrouted}"
        )

    def test_a_split_fd_pair_fails_loudly(self, enrolled_ctx):
        # sendfile between a /system fd and a data file: no one kernel
        # holds both, so it fails with EXDEV and touches neither file
        # (natively it copies; EXPERIMENTS lists the deviation).  With
        # a closed fd in the pair it fails with EBADF, as natively.
        libc = enrolled_ctx.libc
        flags = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC
        system = libc.open("/system/bin/sh", vfs.O_RDONLY)
        src = libc.open(enrolled_ctx.data_path("src.bin"), flags, 0o644)
        dst = libc.open(enrolled_ctx.data_path("dst.bin"), flags, 0o644)
        libc.write(src, b"src-bytes")
        closed = 9
        for out_fd, in_fd, code in ((dst, system, errno.EXDEV),
                                    (system, src, errno.EXDEV),
                                    (dst, closed, errno.EBADF),
                                    (closed, src, errno.EBADF)):
            with pytest.raises(SyscallError) as info:
                libc.sendfile(out_fd, in_fd, 0, 9)
            assert info.value.errno == code, (out_fd, in_fd)
        assert libc.pread(src, 16, 0) == b"src-bytes"
        assert libc.pread(dst, 16, 0) == b""


class TestLibcVeneers:
    def test_every_redirect_call_has_a_veneer(self):
        missing = []
        for name in redirect_universe():
            veneer = SYSCALL_ALIASES.get(name, name)
            method = getattr(Libc, veneer, None)
            if not callable(method):
                missing.append(f"{name} (expected veneer {veneer!r})")
        assert not missing, f"redirect calls without a libc veneer: {missing}"

    def test_veneers_are_thin(self):
        # A veneer must stay a one-call wrapper: it forwards to
        # self.syscall and adds no semantics the interposition layer
        # would miss.
        for name in redirect_universe():
            veneer = SYSCALL_ALIASES.get(name, name)
            source = inspect.getsource(getattr(Libc, veneer))
            assert "self.syscall(" in source, (
                f"veneer {veneer!r} does not forward through "
                f"kernel.syscall"
            )


class TestScriptCoverage:
    def test_every_redirect_call_has_a_differential_script(self):
        ops = covered_ops()
        missing = []
        for name in redirect_universe():
            if name in EXEMPT:
                continue
            veneer = SYSCALL_ALIASES.get(name, name)
            if veneer not in ops:
                missing.append(f"{name} (veneer {veneer!r})")
        assert not missing, (
            f"redirect calls with no catalogue op-script: {missing}"
        )

    def test_catalogue_scripts_are_well_formed(self):
        handlers = Machine().kernel._handlers
        for label, entry in SCRIPTS.items():
            assert entry["script"], f"catalogue script {label!r} is empty"
            assert isinstance(entry["needs_server"], bool)
            for step in entry["script"]:
                assert isinstance(step[0], str), (label, step)
                assert (step[0] in HARNESS_OPS
                        or callable(getattr(Libc, step[0], None))), (
                    f"script {label!r} uses unknown op {step[0]!r}"
                )
                if step[0] == "syscall":
                    assert step[1] in handlers, (
                        f"script {label!r} calls unknown syscall "
                        f"{step[1]!r}"
                    )


class TestSplitHandlerCoverage:
    def test_every_split_handler_has_a_differential_script(self):
        # The layer runs its own code for each split call, so each one
        # is pinned against the native kernel's handler.
        missing = sorted(set(_SPLIT_HANDLERS) - covered_calls())
        assert not missing, (
            f"split handlers with no catalogue op-script: {missing}"
        )


class TestBinderUniverse:
    """The binder device's conformance universe is its ioctl surface.

    Binder calls reach the kernel through one syscall (``ioctl``), so
    the redirect-table checks above cannot see them; the universe here
    is the set of binder ioctl request codes, and every request the
    layer delegates must carry differential coverage or a documented
    exemption — failing with the list of missing names, same contract
    as the syscall universe.
    """

    def test_universe_is_nonempty(self):
        assert BINDER_IOCTL_REQUESTS, "binder ioctl universe is empty"
        for name, code in BINDER_IOCTL_REQUESTS.items():
            assert isinstance(code, int), (name, code)

    def test_every_request_is_delegated_or_exempt(self):
        missing = sorted(
            set(BINDER_IOCTL_REQUESTS)
            - set(DELEGATED_BINDER_REQUESTS)
            - set(BINDER_EXEMPT)
        )
        assert not missing, (
            f"binder ioctl requests neither delegated nor exempt "
            f"(delegate them or document why not): {missing}"
        )

    def test_delegated_and_exempt_are_disjoint(self):
        overlap = sorted(set(DELEGATED_BINDER_REQUESTS) & set(BINDER_EXEMPT))
        assert not overlap, (
            f"binder requests both delegated and exempt: {overlap}"
        )

    def test_exemptions_are_real_requests(self):
        ghosts = sorted(set(BINDER_EXEMPT) - set(BINDER_IOCTL_REQUESTS))
        assert not ghosts, (
            f"BINDER_EXEMPT names not in the ioctl universe: {ghosts}"
        )

    def test_delegated_requests_are_real_requests(self):
        ghosts = sorted(
            set(DELEGATED_BINDER_REQUESTS) - set(BINDER_IOCTL_REQUESTS)
        )
        assert not ghosts, (
            f"DELEGATED_BINDER_REQUESTS names not in the ioctl "
            f"universe: {ghosts}"
        )


class TestBinderMarshalCoverage:
    def test_ioctl_is_fd_translated(self, enrolled_ctx):
        # ioctl on a CVM fd must be rewritten into the proxy's fd
        # space like any delegated call.  Host fd 3 is a /system file,
        # so the data file is host fd 4 but proxy fd 3: untranslated,
        # the proxy would find no fd 4 (EBADF); translated, the file
        # answers ENOTTY as a regular file does.
        libc = enrolled_ctx.libc
        assert libc.open("/system/bin/sh", vfs.O_RDONLY) == 3
        fd = libc.open(enrolled_ctx.data_path("ioctl.bin"),
                       vfs.O_RDWR | vfs.O_CREAT, 0o600)
        assert fd == 4
        with pytest.raises(SyscallError) as info:
            libc.ioctl(fd, 0x5401)
        assert info.value.errno == errno.ENOTTY

    def test_transaction_payload_size_uses_marshal_sizing(self):
        payload = {"blob": "x" * 112, "n": 7}
        txn = Transaction("location", "get_fix", payload)
        assert txn.payload_size == encoded_size(payload)

    def test_transaction_encodes_as_payload_plus_header(self):
        txn = Transaction("location", "get_fix", {"blob": "x" * 112})
        assert encoded_size(txn) == txn.payload_size + 16

    def test_large_parcel_sizing_is_not_repr_based(self):
        # A 1 MiB parcel must size as its bytes, not as the repr of the
        # dict holding it (the PR 7 bugfix this test pins).
        blob = "z" * (1 << 20)
        txn = Transaction("location", "get_fix", {"blob": blob})
        assert txn.payload_size == encoded_size({"blob": blob})
        assert txn.payload_size < len(repr({"blob": blob}))


class TestBinderScriptCoverage:
    def test_every_delegated_request_has_a_binder_script(self):
        covered = covered_binder_requests()
        missing = sorted(set(DELEGATED_BINDER_REQUESTS) - covered)
        assert not missing, (
            f"delegated binder requests with no catalogue op-script: "
            f"{missing}"
        )

    def test_binder_scripts_tag_real_requests(self):
        ghosts = sorted(covered_binder_requests()
                        - set(BINDER_IOCTL_REQUESTS))
        assert not ghosts, (
            f"binder scripts tagged with unknown requests: {ghosts}"
        )

    def test_binder_scripts_are_well_formed(self):
        for label, entry in BINDER_SCRIPTS.items():
            assert entry["script"], f"binder script {label!r} is empty"
            assert entry["request"] in BINDER_IOCTL_REQUESTS, (label,)
            for step in entry["script"]:
                name = step[0]
                assert isinstance(name, str), (label, step)
                # Binder ops are app-context conveniences, reached via
                # the harness's ctx fallback; a libc name here would
                # silently shadow that fallback.
                assert callable(getattr(AppContext, name, None)), (
                    f"binder script {label!r} uses unknown ctx op "
                    f"{name!r}"
                )
                assert not callable(getattr(Libc, name, None)), (
                    f"binder script {label!r} op {name!r} collides "
                    f"with a libc veneer"
                )
