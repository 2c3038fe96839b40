"""Cross-cutting invariants and failure injection.

These pin down the accounting discipline (exactly two world switches per
redirected call), the paper's *non*-guarantees (a compromised CVM may
return bad results — integrity is out of scope), and assorted edge
behaviour of the layer under failure.
"""

import pytest

from repro.errors import SimulationError, SyscallError
from repro.kernel import vfs


class TestWorldSwitchAccounting:
    def test_redirected_call_costs_exactly_two_switches(self,
                                                        anception_world,
                                                        enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        irq_before = hypervisor.interrupt_count
        hyp_before = hypervisor.hypercall_count
        enrolled_ctx.libc.syscall("mkdir", enrolled_ctx.data_path("d"))
        assert hypervisor.interrupt_count == irq_before + 1
        assert hypervisor.hypercall_count == hyp_before + 1

    def test_host_call_costs_zero_switches(self, anception_world,
                                           enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        irq_before = hypervisor.interrupt_count
        hyp_before = hypervisor.hypercall_count
        enrolled_ctx.libc.getpid()
        assert hypervisor.interrupt_count == irq_before
        assert hypervisor.hypercall_count == hyp_before

    def test_ui_ioctl_costs_zero_switches(self, anception_world,
                                          enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        enrolled_ctx.create_window("w")
        irq_before = hypervisor.interrupt_count
        enrolled_ctx.submit_frame(b"px")
        assert hypervisor.interrupt_count == irq_before

    def test_channel_bytes_match_payload_scale(self, anception_world,
                                               enrolled_ctx):
        channel = anception_world.anception.channel
        before = channel.bytes_to_guest
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("b"), vfs.O_WRONLY | vfs.O_CREAT
        )
        enrolled_ctx.libc.write(fd, b"z" * 10_000)
        sent = channel.bytes_to_guest - before
        assert sent >= 10_000  # the payload crossed, plus call framing


class TestIntegrityNonGuarantee:
    def test_compromised_cvm_can_lie_in_syscall_results(self,
                                                        anception_world,
                                                        enrolled_ctx):
        """Section V-A: 'the CVM can return bad results from system
        calls' — integrity is explicitly not guaranteed (that is what
        the Section VII crypto wrapper mitigates)."""
        path = enrolled_ctx.data_path("ledger.txt")
        enrolled_ctx.libc.write_file(path, b"balance=1000")
        # a CVM-level attacker rewrites the stored bytes
        from repro.kernel.kernel import KernelControl

        attacker = KernelControl(anception_world.cvm.kernel)
        attacker.write_file(path, b"balance=0001")
        # ...and the app reads the lie, with no error raised
        assert enrolled_ctx.libc.read_file(path) == b"balance=0001"

    def test_crypto_fs_detects_the_same_lie(self, anception_world):
        from repro.core.crypto_fs import TransparentCryptoFS
        from repro.errors import SecurityViolation
        from tests.conftest import ScratchApp
        from repro.android.app import AppManifest

        class VaultApp(ScratchApp):
            manifest = AppManifest("com.vault.app")

        crypto = TransparentCryptoFS(anception_world.anception)
        anception_world.anception.iago_verify = True
        running = anception_world.install_and_launch(VaultApp())
        running.run()
        crypto.enable_for(running.ctx.task)
        ctx = running.ctx
        path = ctx.data_path("ledger.enc")
        ctx.libc.write_file(path, b"balance=1000")

        from repro.kernel.kernel import KernelControl

        attacker = KernelControl(anception_world.cvm.kernel)
        attacker.write_file(path, b"balance=0001")
        fd = ctx.libc.open(path, vfs.O_RDONLY)
        with pytest.raises(SecurityViolation):
            ctx.libc.pread(fd, 12, 0)


class TestFailureInjection:
    def test_dispatch_from_unenrolled_task_is_a_bug(self, anception_world):
        from repro.kernel.process import Credentials

        rogue = anception_world.kernel.spawn_task("rogue",
                                                  Credentials(10099))
        rogue.redirection_entry = 1  # flagged but never enrolled
        with pytest.raises(SimulationError):
            anception_world.libc_for(rogue).open("/data/local/tmp/x", 0x41)

    def test_double_enrollment_rejected(self, anception_world,
                                        enrolled_ctx):
        with pytest.raises(SimulationError):
            anception_world.anception.enroll_task(enrolled_ctx.task)

    def test_killed_app_cannot_continue(self, anception_world,
                                        enrolled_ctx):
        anception_world.kernel.reap_task(enrolled_ctx.task)
        with pytest.raises(SyscallError):
            enrolled_ctx.libc.getpid()

    def test_killed_app_proxy_also_dies(self, anception_world,
                                        enrolled_ctx):
        proxies = anception_world.anception.proxies
        proxy_task = proxies.proxy_for(enrolled_ctx.task).guest_task
        anception_world.kernel.reap_task(enrolled_ctx.task)
        assert not proxy_task.is_alive()

    def test_blocked_calls_do_not_touch_the_cvm(self, anception_world,
                                                enrolled_ctx):
        hypervisor = anception_world.cvm.hypervisor
        before = hypervisor.interrupt_count
        with pytest.raises(SyscallError):
            enrolled_ctx.libc.syscall("reboot")
        assert hypervisor.interrupt_count == before

    def test_enrolled_apps_isolated_from_each_other_in_cvm(
            self, anception_world, enrolled_ctx):
        from repro.android.app import AppManifest
        from tests.conftest import ScratchApp

        class OtherApp(ScratchApp):
            manifest = AppManifest("com.other.tenant")

        other = anception_world.install_and_launch(OtherApp())
        other.run()
        with pytest.raises(SyscallError) as exc:
            other.ctx.libc.read_file(
                "/data/data/com.test.scratch/seed.txt"
            )
        assert "EACCES" in str(exc.value)
