"""The precomputed route table agrees with the per-call if-chain.

``RedirectionPolicy.decide`` is one lookup in a table derived from the
catalogue at import, plus the path and fd refinements.  The oracle
below is the if-chain it replaced, kept as a reference: for
every catalogued name and for unknown names, under both values of
``file_io_on_host``, over drawn paths and fd arguments, both must give
the same decision.
"""

from hypothesis import given, settings, strategies as st

import errno

from repro.core.marshal import FdTranslationTable, RemoteFdStub
from repro.core.policy import (
    FD_CALLS,
    FD_PAIR_CALLS,
    FILE_IO_CALLS,
    PATH_CALLS,
    ROUTES,
    ROUTES_FILE_IO_ON_HOST,
    Decision,
    RedirectionPolicy,
)
from repro.errors import SyscallError
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials
from repro.kernel.syscalls import CATALOGUE, SyscallClass, classify


UI_NAMES = frozenset({"window", "input", "activity", "surfaceflinger"})


def reference_decide(policy, task, name, args, remote_fds):
    """The per-call if-chain ``decide`` used before the route table."""
    static = classify(name)
    if static is SyscallClass.BLOCKED:
        return Decision.BLOCK
    if static is SyscallClass.HOST:
        return Decision.HOST
    if policy.file_io_on_host and name in FILE_IO_CALLS:
        return Decision.HOST
    if static is SyscallClass.SPLIT:
        return Decision.SPLIT
    if name in ("open", "openat", "creat"):
        return policy._route_open(task, args[0] if args else "")
    if name in ("stat", "stat64", "lstat", "lstat64", "access",
                "readlink", "getdents", "truncate"):
        return policy._route_open(task, args[0] if args else "")
    if name in FD_CALLS and args:
        return (
            Decision.REDIRECT
            if args[0] in remote_fds
            else Decision.HOST
        )
    if name in FD_PAIR_CALLS and len(args) >= 2:
        remote = [fd in remote_fds for fd in args[:2]]
        if remote == [True, True]:
            return Decision.REDIRECT
        if remote == [False, False]:
            return Decision.HOST
        host_fd = args[remote.index(False)]
        if host_fd in task.fd_table:
            raise SyscallError(errno.EXDEV, call=name)
        raise SyscallError(errno.EBADF, call=name)
    return Decision.REDIRECT


def _task():
    kernel = Machine(total_mb=64).kernel
    task = kernel.spawn_task("com.route", Credentials(10001))
    task.cwd = "/data/data/com.route"
    return task


TASK = _task()
POLICIES = {
    flag: RedirectionPolicy(UI_NAMES, file_io_on_host=flag)
    for flag in (False, True)
}

_segment = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           max_codepoint=127),
    min_size=1, max_size=12,
)
_paths = st.one_of(
    _segment,
    st.builds(lambda s: f"../{s}", _segment),
    st.builds(lambda s: f"/system/{s}", _segment),
    st.builds(lambda s: f"/data/app/{s}.apk", _segment),
    st.builds(lambda s: f"/data/data/com.route/{s}", _segment),
    st.just("/proc/self/exe"),
    st.just(f"/proc/{TASK.pid}/exe"),
    st.integers(1, 99999).map(lambda pid: f"/proc/{pid}/exe"),
    st.just("/dev/binder"),
    st.just("/dev/graphics/fb0"),
    st.just("/system/../data/x"),
    st.integers(),
    st.binary(max_size=8),
    st.none(),
)
_fds = st.integers(min_value=0, max_value=24)
_remote = st.frozensets(st.integers(min_value=3, max_value=24), max_size=6)
_unknown = st.text(min_size=1, max_size=16).filter(
    lambda name: name not in CATALOGUE
)
_names = st.one_of(st.sampled_from(sorted(CATALOGUE)), _unknown)
_path_names = st.one_of(
    st.sampled_from(sorted(PATH_CALLS | FILE_IO_CALLS)), _names
)
_fd_names = st.one_of(st.sampled_from(sorted(FD_CALLS | FD_PAIR_CALLS)),
                      _names)
_flags = st.booleans()


def _outcome(decide, *args):
    """A decision, or the errno the call fails with."""
    try:
        return decide(*args)
    except SyscallError as exc:
        return exc.errno


def _agree(flag, name, args, remote):
    policy = POLICIES[flag]
    expected = _outcome(reference_decide, policy, TASK, name, args, remote)
    assert _outcome(policy.decide, TASK, name, args, remote) == expected


class TestRouteTable:
    def test_every_catalogue_name_without_args(self):
        for flag in (False, True):
            for name in sorted(CATALOGUE):
                _agree(flag, name, (), frozenset())

    def test_table_covers_the_catalogue_and_refined_names(self):
        for table in (ROUTES, ROUTES_FILE_IO_ON_HOST):
            refined = FD_CALLS | FILE_IO_CALLS | PATH_CALLS
            assert set(table) == set(CATALOGUE) | refined

    @given(flag=_flags, name=_path_names, path=_paths,
           rest=st.integers(0, 7))
    @settings(max_examples=400, deadline=None)
    def test_path_arguments(self, flag, name, path, rest):
        _agree(flag, name, (path, rest), frozenset())

    @given(flag=_flags, name=_fd_names, fd=_fds, fd_in=_fds,
           remote=_remote)
    @settings(max_examples=400, deadline=None)
    def test_fd_arguments(self, flag, name, fd, fd_in, remote):
        """Remote and local fds, as a set and as the layer's table."""
        table = FdTranslationTable({
            host_fd: RemoteFdStub(host_fd + 100) for host_fd in remote
        })
        _agree(flag, name, (fd, 100), remote)
        _agree(flag, name, (fd,), table)
        _agree(flag, name, (fd, fd_in), table)

    @given(flag=_flags, name=st.sampled_from(sorted(FD_CALLS)),
           remote=_remote)
    @settings(max_examples=80, deadline=None)
    def test_fd_calls_without_args(self, flag, name, remote):
        _agree(flag, name, (), remote)

    @given(flag=_flags, name=_unknown, path=_paths)
    @settings(max_examples=100, deadline=None)
    def test_unknown_names_fail_safe(self, flag, name, path):
        _agree(flag, name, (), frozenset())
        _agree(flag, name, (path,), frozenset({3}))
        assert POLICIES[flag].decide(TASK, name, (path,), ()) \
            is Decision.REDIRECT
