"""Property tests on the redirection policy itself."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    Transaction,
    is_ui_transaction,
)
from repro.android.services.base import ServiceCatalog
from repro.core.policy import Decision, RedirectionPolicy
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials
from repro.kernel.syscalls import CATALOGUE, SyscallClass
from repro.obs.runner import boot_obs_world


UI_NAMES = frozenset({"window", "input", "activity", "surfaceflinger"})


def make_task():
    kernel = Machine(total_mb=64).kernel
    task = kernel.spawn_task("com.prop", Credentials(10001))
    task.cwd = "/data/data/com.prop"
    return task


_arg_values = st.one_of(
    st.integers(min_value=0, max_value=1 << 32),
    st.text(max_size=32),
    st.binary(max_size=32),
    st.none(),
)


class TestPolicyTotality:
    @given(
        name=st.sampled_from(sorted(CATALOGUE)),
        args=st.lists(_arg_values, max_size=4),
        remote=st.sets(st.integers(min_value=3, max_value=20), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_call_gets_a_decision(self, name, args, remote):
        """The policy is total: any catalogued call, any argument shape."""
        policy = RedirectionPolicy(UI_NAMES)
        task = make_task()
        decision = policy.decide(task, name, tuple(args), remote)
        assert isinstance(decision, Decision)

    @given(name=st.sampled_from(sorted(
        n for n, k in CATALOGUE.items() if k is SyscallClass.BLOCKED
    )))
    @settings(max_examples=20, deadline=None)
    def test_blocked_class_always_blocked(self, name):
        policy = RedirectionPolicy(UI_NAMES)
        assert policy.decide(make_task(), name, (), set()) is Decision.BLOCK

    @given(name=st.sampled_from(sorted(
        n for n, k in CATALOGUE.items() if k is SyscallClass.HOST
    )))
    @settings(max_examples=30, deadline=None)
    def test_host_class_never_leaves_the_host(self, name):
        policy = RedirectionPolicy(UI_NAMES)
        assert policy.decide(make_task(), name, (), set()) is Decision.HOST

    @given(
        suffix=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                                   max_codepoint=127),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_system_paths_always_host(self, suffix):
        policy = RedirectionPolicy(UI_NAMES)
        decision = policy.decide(
            make_task(), "open", (f"/system/{suffix}", 0), set()
        )
        assert decision is Decision.HOST

    @given(
        suffix=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                                   max_codepoint=127),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_data_paths_always_redirected(self, suffix):
        policy = RedirectionPolicy(UI_NAMES)
        decision = policy.decide(
            make_task(), "open", (f"/data/data/com.prop/{suffix}", 0x41),
            set(),
        )
        assert decision is Decision.REDIRECT

    @given(fd=st.integers(min_value=3, max_value=50),
           remote=st.sets(st.integers(min_value=3, max_value=50),
                          max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_fd_locality_is_the_sole_criterion(self, fd, remote):
        policy = RedirectionPolicy(UI_NAMES)
        decision = policy.decide(make_task(), "read", (fd, 100), remote)
        expected = Decision.REDIRECT if fd in remote else Decision.HOST
        assert decision is expected


@pytest.fixture(scope="module")
def ioctl_world():
    """One booted layer (binder ring on) and its app, shared across
    examples: the split reads the policy and changes no world state on
    the paths checked here."""
    world, ctx = boot_obs_world(binder_ring=True)
    return world.anception, ctx


_SERVICE_NAMES = sorted(cls.name for cls in ServiceCatalog.all_types())

_targets = st.one_of(
    st.sampled_from(_SERVICE_NAMES),  # UI and delegated services
    st.text(max_size=12).map(lambda s: "app:" + s),
    st.tuples(st.sampled_from(("app", "ap:", "App:", " app:", "app;")),
              st.text(max_size=8)).map("".join),  # near misses
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=8).map(lambda b: b"app:" + b),
    st.integers(),
    st.none(),
)


class TestIoctlSplitRule:
    """The layer's ioctl split spells the UI and app-to-app tests inline
    (it runs on every UI frame); it must agree with
    ``binder.is_ui_transaction`` and ``binder_target_is_app``."""

    @given(cmd=st.sampled_from((BINDER_WRITE_READ, IOC_WAIT_INPUT_EVT)),
           target=_targets)
    @settings(max_examples=300, deadline=None)
    def test_host_exactly_when_ui_or_app_to_app(self, ioctl_world, cmd,
                                                target):
        layer, ctx = ioctl_world
        task = ctx.task
        table = layer.fd_tables[task.pid]
        fd = ctx.binder_fd
        assert not table.is_remote(fd)
        arg = Transaction(target, "probe")
        routes = []
        # A host-bound binder call goes straight to the host driver's
        # transact; anything else host-side takes execute_native.
        driver = task.fd_table[fd].inode.device
        layer._forward_binder = lambda *call: routes.append("cvm")
        layer.host_kernel.execute_native = lambda *call: routes.append("host")
        driver.transact = lambda *call: routes.append("host")
        try:
            layer._split_ioctl(task, table, fd, cmd, arg)
        finally:
            del layer._forward_binder
            del layer.host_kernel.execute_native
            del driver.transact
        policy = layer.policy
        expected = ("host" if is_ui_transaction(policy.ui_service_names,
                                                cmd, arg)
                    or policy.binder_target_is_app(arg) else "cvm")
        assert routes == [expected]
