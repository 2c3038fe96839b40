"""Proxy processes: credential mirroring, parked execution."""

import pytest

from repro.core.cvm import ContainerVM
from repro.core.proxy import PROXY_MEMORY_KB, ProxyManager
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.kernel.process import Credentials, TaskState


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def cvm(machine):
    return ContainerVM(machine)


@pytest.fixture
def manager(cvm):
    return ProxyManager(cvm)


def make_app_task(machine, uid=10001, name="com.app"):
    task = machine.kernel.spawn_task(name, Credentials(uid))
    task.cwd = f"/data/data/{name}"
    return task


class TestCreation:
    def test_proxy_mirrors_credentials(self, machine, manager):
        host_task = make_app_task(machine)
        proxy = manager.create_proxy(host_task)
        assert proxy.guest_task.credentials == host_task.credentials
        assert proxy.guest_task.cwd == host_task.cwd

    def test_proxy_lives_on_cvm_kernel(self, machine, manager, cvm):
        proxy = manager.create_proxy(make_app_task(machine))
        assert proxy.guest_task.kernel is cvm.kernel

    def test_proxy_parked_after_creation(self, machine, manager):
        proxy = manager.create_proxy(make_app_task(machine))
        assert proxy.guest_task.state is TaskState.SLEEPING

    def test_manager_holds_the_only_proxy_record(self, machine, manager):
        host_task = make_app_task(machine)
        proxy = manager.create_proxy(host_task)
        assert manager.proxy_for(host_task) is proxy
        # The host task holds no link into the CVM.
        assert not hasattr(host_task, "proxy")

    def test_duplicate_proxy_rejected(self, machine, manager):
        host_task = make_app_task(machine)
        manager.create_proxy(host_task)
        with pytest.raises(SimulationError):
            manager.create_proxy(host_task)

    def test_private_dir_replicated_in_cvm(self, machine, manager, cvm):
        host_task = make_app_task(machine, name="com.replicated")
        manager.create_proxy(host_task)
        assert cvm.kernel.vfs.exists(
            "/data/data/com.replicated", Credentials(0)
        )
        inode = cvm.kernel.vfs.resolve(
            "/data/data/com.replicated", Credentials(0)
        )
        assert inode.uid == host_task.credentials.uid

    def test_proxy_for_unknown_task_errors(self, machine, manager):
        with pytest.raises(SimulationError):
            manager.proxy_for(make_app_task(machine))


class TestExecution:
    def test_execute_runs_on_guest_kernel(self, machine, manager):
        host_task = make_app_task(machine)
        proxy = manager.create_proxy(host_task)
        pid = manager.execute(proxy, "getpid", (), {})
        assert pid == proxy.guest_task.pid

    def test_execute_reparks_after_call(self, machine, manager):
        proxy = manager.create_proxy(make_app_task(machine))
        manager.execute(proxy, "getpid", (), {})
        assert proxy.guest_task.state is TaskState.SLEEPING
        assert proxy.calls_executed == 1

    def test_permission_checks_use_proxy_credentials(self, machine, manager,
                                                     cvm):
        """The host's permission model transports to the CVM."""
        from repro.errors import SyscallError

        stranger_dir_owner = make_app_task(machine, uid=10001,
                                           name="com.victim")
        manager.create_proxy(stranger_dir_owner)
        attacker = make_app_task(machine, uid=10002, name="com.attacker")
        attacker_proxy = manager.create_proxy(attacker)
        with pytest.raises(SyscallError):
            manager.execute(
                attacker_proxy, "open",
                ("/data/data/com.victim/secret", 0x41, 0o600), {},
            )


class TestBookkeeping:
    def test_count_and_memory(self, machine, manager):
        for i in range(5):
            manager.create_proxy(make_app_task(machine, name=f"app{i}"))
        assert manager.count == 5
        assert manager.memory_kb() == 5 * PROXY_MEMORY_KB

    def test_remove_proxy_reaps_guest_task(self, machine, manager):
        host_task = make_app_task(machine)
        proxy = manager.create_proxy(host_task)
        manager.remove_proxy(host_task, exit_code=3)
        assert not proxy.guest_task.is_alive()
        assert proxy.guest_task.exit_code == 3
        assert not manager.has_proxy(host_task)
        assert manager.count == 0

    def test_host_reap_mirrors_to_proxy(self, anception_world, enrolled_ctx):
        """Killing the host task kills its CVM counterpart: the layer
        ends the proxy with the app's exit code."""
        proxy = anception_world.anception.proxies.proxy_for(enrolled_ctx.task)
        anception_world.kernel.reap_task(enrolled_ctx.task, exit_code=-9)
        assert not proxy.guest_task.is_alive()
        assert proxy.guest_task.exit_code == -9
        assert anception_world.anception.proxies.count == 0

    def test_bare_host_reap_reaches_no_guest_kernel(self, machine, manager):
        """Without a layer, the host kernel has no link to end a guest
        task through: ending the proxy is the layer's job."""
        host_task = make_app_task(machine)
        proxy = manager.create_proxy(host_task)
        machine.kernel.reap_task(host_task)
        assert proxy.guest_task.is_alive()
