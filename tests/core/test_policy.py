"""The redirection policy's static and dynamic decisions."""

import pytest

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    Transaction,
    is_ui_transaction,
)
from repro.core.policy import Decision, RedirectionPolicy
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials


UI_NAMES = {"window", "input", "activity", "surfaceflinger"}


@pytest.fixture
def policy():
    return RedirectionPolicy(UI_NAMES)


@pytest.fixture
def task():
    kernel = Machine(total_mb=64).kernel
    t = kernel.spawn_task("com.app", Credentials(10001))
    t.cwd = "/data/data/com.app"
    return t


class TestStaticClasses:
    def test_blocked(self, policy, task):
        assert policy.decide(task, "init_module", (), set()) is Decision.BLOCK
        assert policy.decide(task, "ptrace", (), set()) is Decision.BLOCK

    def test_host_process_control(self, policy, task):
        for name in ("getpid", "kill", "brk", "setuid", "futex"):
            assert policy.decide(task, name, (), set()) is Decision.HOST

    def test_split(self, policy, task):
        for name in ("fork", "execve", "mmap2", "ioctl", "close", "dup"):
            assert policy.decide(task, name, (), set()) is Decision.SPLIT

    def test_plain_redirect(self, policy, task):
        for name in ("socket", "mkdir", "pipe", "sendfile"):
            assert policy.decide(task, name, (), set()) is Decision.REDIRECT


class TestOpenRouting:
    def test_system_paths_host(self, policy, task):
        decision = policy.decide(task, "open", ("/system/lib/libc.so", 0),
                                 set())
        assert decision is Decision.HOST

    def test_app_code_host(self, policy, task):
        decision = policy.decide(task, "open", ("/data/app/com.app.apk", 0),
                                 set())
        assert decision is Decision.HOST

    def test_proc_self_exe_host(self, policy, task):
        decision = policy.decide(task, "open", ("/proc/self/exe", 0), set())
        assert decision is Decision.HOST

    def test_proc_pid_exe_host(self, policy, task):
        decision = policy.decide(
            task, "open", (f"/proc/{task.pid}/exe", 0), set()
        )
        assert decision is Decision.HOST

    def test_binder_device_host(self, policy, task):
        assert policy.decide(task, "open", ("/dev/binder", 2),
                             set()) is Decision.HOST

    def test_data_dir_redirected(self, policy, task):
        decision = policy.decide(
            task, "open", ("/data/data/com.app/notes.txt", 0x41), set()
        )
        assert decision is Decision.REDIRECT

    def test_proc_net_redirected(self, policy, task):
        assert policy.decide(task, "open", ("/proc/net/netlink", 0),
                             set()) is Decision.REDIRECT

    def test_framebuffer_redirected(self, policy, task):
        assert policy.decide(task, "open", ("/dev/graphics/fb0", 2),
                             set()) is Decision.REDIRECT

    def test_relative_path_resolved_against_cwd(self, policy, task):
        assert policy.decide(task, "open", ("notes.txt", 0),
                             set()) is Decision.REDIRECT

    def test_stat_routes_like_open(self, policy, task):
        assert policy.decide(task, "stat", ("/system/bin/sh",),
                             set()) is Decision.HOST
        assert policy.decide(task, "stat", ("/data/data/com.app/f",),
                             set()) is Decision.REDIRECT

    def test_getdents_routes_by_path(self, policy, task):
        assert policy.decide(task, "getdents", ("/proc",),
                             set()) is Decision.REDIRECT


class TestFdLocality:
    def test_remote_fd_redirected(self, policy, task):
        assert policy.decide(task, "read", (7, 100),
                             {7}) is Decision.REDIRECT

    def test_local_fd_host(self, policy, task):
        assert policy.decide(task, "read", (3, 100), {7}) is Decision.HOST

    def test_write_follows_fd(self, policy, task):
        assert policy.decide(task, "write", (9, b"x"),
                             {9}) is Decision.REDIRECT
        assert policy.decide(task, "write", (2, b"x"),
                             {9}) is Decision.HOST


class TestIoctlInspection:
    # The layer's ioctl split asks the binder UI test with the policy's
    # UI service names.
    def test_wait_input_is_ui(self, policy):
        assert is_ui_transaction(policy.ui_service_names,
                                 IOC_WAIT_INPUT_EVT, None)

    def test_ui_service_transaction_is_ui(self, policy):
        txn = Transaction("window", "create_window")
        assert is_ui_transaction(policy.ui_service_names,
                                 BINDER_WRITE_READ, txn)

    def test_delegated_service_transaction_not_ui(self, policy):
        txn = Transaction("location", "get_fix")
        assert not is_ui_transaction(policy.ui_service_names,
                                     BINDER_WRITE_READ, txn)

    def test_app_to_app_binder_recognised(self, policy):
        assert policy.binder_target_is_app(Transaction("app:com.x", "ping"))
        assert not policy.binder_target_is_app(Transaction("vold", "mount"))

    @pytest.mark.parametrize("target", [None, 5, b"app:com.x"])
    def test_non_string_target_is_not_an_app(self, policy, target):
        assert not policy.binder_target_is_app(Transaction(target, "ping"))

    def test_code_path_predicate(self, policy, task):
        assert policy.is_code_path(task, "/system/anything")
        assert policy.is_code_path(task, "/data/app/x.apk")
        assert not policy.is_code_path(task, "/data/data/com.app/f")
