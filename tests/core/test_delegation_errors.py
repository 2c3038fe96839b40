"""Typed delegation-layer failures: no more silent channel/proxy lies.

Before the fault-injection work the channel would hand over whatever
bytes it was given (including non-bytes) and the proxy manager would
happily ``execute`` against a dead guest task.  Both now fail loudly
with members of the :class:`~repro.errors.DelegationError` family, which
is what the recovery supervisor keys off.
"""

import pytest

from repro.clock import SimClock
from repro.core.channel import AnceptionChannel
from repro.errors import (
    ChannelError,
    ChannelIntegrityError,
    ChannelStalled,
    ContainerCrashed,
    DelegationError,
    ProxyDied,
    SyscallError,
)
from repro.faults.engine import FaultEngine
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


class TestHierarchy:
    def test_family_tree(self):
        assert issubclass(ChannelError, DelegationError)
        assert issubclass(ChannelIntegrityError, ChannelError)
        assert issubclass(ChannelStalled, ChannelError)
        assert issubclass(ProxyDied, DelegationError)
        assert issubclass(ContainerCrashed, DelegationError)

    def test_not_syscall_errors(self):
        # the supervisor must be able to tell infrastructure failures
        # from legitimate errnos
        assert not issubclass(DelegationError, SyscallError)

    def test_sites_labelled(self):
        assert ChannelError.site == "channel"
        assert ProxyDied.site == "proxy"
        assert ContainerCrashed.site == "cvm"


class TestChannelTyping:
    def test_non_bytes_payload_rejected(self, channel):
        with pytest.raises(ChannelError, match="bytes-like"):
            channel.send_to_guest("a string is not wire data")

    def test_non_bytes_payload_rejected_to_host(self, channel):
        with pytest.raises(ChannelError, match="bytes-like"):
            channel.send_to_host(12345)

    def test_corruption_detected_by_crc(self, channel, machine):
        engine = FaultEngine("channel.corrupt:nth=1").arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError) as exc:
                channel.send_to_guest(b"precious-payload")
        finally:
            engine.disarm()
        assert exc.value.direction == "to-guest"
        assert exc.value.expected_crc != exc.value.actual_crc
        assert exc.value.nbytes == len(b"precious-payload")
        assert channel.integrity_failures == 1
        assert channel.stats()["integrity_failures"] == 1

    def test_truncation_detected(self, channel, machine):
        engine = FaultEngine("channel.truncate:nth=1").arm(machine.clock)
        try:
            with pytest.raises(ChannelIntegrityError):
                channel.send_to_host(b"x" * 64)
        finally:
            engine.disarm()

    def test_clean_transfer_counts_no_failures(self, channel):
        channel.send_to_guest(b"fine")
        assert channel.integrity_failures == 0

    def test_dropped_irq_reported_not_hung(self, channel, machine):
        engine = FaultEngine("irq.drop:nth=1").arm(machine.clock)
        try:
            assert channel.hypervisor.inject_interrupt("doorbell") is False
            assert channel.hypervisor.inject_interrupt("doorbell") is True
        finally:
            engine.disarm()

    def test_dropped_hypercall_reported(self, channel, machine):
        engine = FaultEngine("hypercall.drop:nth=1").arm(machine.clock)
        try:
            assert channel.hypervisor.hypercall("completion") is False
            assert channel.hypervisor.hypercall("completion") is True
        finally:
            engine.disarm()

    def test_duplicated_irq_counted_twice(self, channel, machine):
        before = channel.hypervisor.interrupt_count
        engine = FaultEngine("irq.dup:nth=1").arm(machine.clock)
        try:
            assert channel.hypervisor.inject_interrupt("doorbell") is True
        finally:
            engine.disarm()
        assert channel.hypervisor.interrupt_count == before + 2


class TestProxyTyping:
    def test_dead_proxy_raises_proxy_died(self, anception_world,
                                          enrolled_ctx):
        proxies = anception_world.anception.proxies
        proxy = proxies.proxy_for(enrolled_ctx.task)
        anception_world.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        with pytest.raises(ProxyDied) as exc:
            proxies.execute(proxy, "getpid", (), {})
        assert exc.value.host_pid == enrolled_ctx.task.pid
        assert exc.value.guest_pid == proxy.guest_task.pid

    def test_dead_proxy_surfaces_as_eio_to_app(self, anception_world,
                                               enrolled_ctx):
        # default recovery policy is disabled: typed failure -> EIO
        proxy = anception_world.anception.proxies.proxy_for(
            enrolled_ctx.task
        )
        anception_world.cvm.kernel.reap_task(proxy.guest_task, exit_code=-9)
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.open(enrolled_ctx.data_path("f"), 0o102)
        assert "EIO" in str(exc.value)

    def test_respawn_replaces_proxy(self, anception_world, enrolled_ctx):
        """With recovery on, the next crossing after the proxy died
        respawns it through the layer and completes."""
        anception_world.anception.recovery = True
        proxies = anception_world.anception.proxies
        old = proxies.proxy_for(enrolled_ctx.task)
        anception_world.cvm.kernel.reap_task(old.guest_task, exit_code=-9)
        enrolled_ctx.libc.stat(enrolled_ctx.data_path("seed.txt"))
        new = proxies.proxy_for(enrolled_ctx.task)
        assert new.guest_task.pid != old.guest_task.pid
        assert new.guest_task.is_alive()
        assert ("respawn-proxy", f"host pid {enrolled_ctx.task.pid}") \
            in anception_world.anception.recovery_log
        guest_pids = anception_world.cvm.kernel.pids
        assert guest_pids.get(new.guest_task.pid) is new.guest_task


class TestEngineArmError:
    def test_engine_arm_is_reversible_midstream(self, channel, machine):
        engine = FaultEngine("channel.corrupt").arm(machine.clock)
        engine.disarm()
        channel.send_to_guest(b"safe again")
        assert channel.integrity_failures == 0

    def test_simclock_has_no_default_engine(self):
        assert getattr(SimClock(), "faults", None) is None
