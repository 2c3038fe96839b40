"""CVM reboot and the virtual data disk (Section IV-5 persistence)."""

import pytest

from repro.core.recovery import RecoveryLog
from repro.errors import SyscallError
from repro.exploits.base import ExploitOutcome
from repro.exploits.generic import RedirectedSyscallExploit, make_kernel_vuln
from repro.exploits.sock_sendpage import SockSendpage
from repro.kernel import vfs
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld


ROOT = Credentials(0)


def crash_cvm(anception_world):
    """Crash the container with the sock_sendpage exploit."""
    running = anception_world.install_and_launch(SockSendpage())
    running.run()
    assert anception_world.cvm.crashed
    return running


class TestReboot:
    def test_reboot_revives_the_container(self, anception_world,
                                          enrolled_ctx):
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        assert not anception_world.cvm.crashed
        assert anception_world.cvm.reboot_count == 1

    def test_app_data_survives_reboot(self, anception_world, enrolled_ctx):
        path = enrolled_ctx.data_path("precious.txt")
        enrolled_ctx.libc.write_file(path, b"survives-the-crash")
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        assert enrolled_ctx.libc.read_file(path) == b"survives-the-crash"

    def test_headless_services_rebooted(self, anception_world,
                                        enrolled_ctx):
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        assert anception_world.cvm.android.has_service("vold")
        reply = enrolled_ctx.call_service("location", "get_fix")
        assert reply["lat"] == pytest.approx(42.2808)

    def test_survivor_apps_reenrolled(self, anception_world, enrolled_ctx):
        crash_cvm(anception_world)
        survivors = anception_world.anception.reboot_cvm()
        assert survivors >= 1
        proxies = anception_world.anception.proxies
        assert proxies.has_proxy(enrolled_ctx.task)
        guest_task = proxies.proxy_for(enrolled_ctx.task).guest_task
        assert guest_task.kernel is anception_world.cvm.kernel

    def test_stale_remote_fds_invalidated(self, anception_world,
                                          enrolled_ctx):
        fd = enrolled_ctx.libc.open(
            enrolled_ctx.data_path("open-across-crash"),
            vfs.O_RDWR | vfs.O_CREAT,
        )
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        with pytest.raises(SyscallError) as exc:
            enrolled_ctx.libc.write(fd, b"stale")
        assert "EBADF" in str(exc.value)

    def test_new_files_after_reboot_work(self, anception_world,
                                         enrolled_ctx):
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        enrolled_ctx.libc.write_file(
            enrolled_ctx.data_path("fresh.txt"), b"post-reboot"
        )
        assert enrolled_ctx.libc.read_file(
            enrolled_ctx.data_path("fresh.txt")
        ) == b"post-reboot"

    def test_guest_memory_scrubbed_on_reboot(self, anception_world,
                                             enrolled_ctx):
        """Nothing from the old instance's RAM leaks into the new one."""
        window = anception_world.cvm.hypervisor.guest_window
        physical = anception_world.machine.physical
        # Plant recognisable bytes in a guest frame via the proxy space.
        proxies = anception_world.anception.proxies
        guest_task = proxies.proxy_for(enrolled_ctx.task).guest_task
        proxy_space = guest_task.address_space
        frame = proxy_space.allocator.allocate(owner="leak-test")
        physical.write_frame(frame, b"OLD-INSTANCE-SECRET")
        assert frame in window
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()
        assert physical.read_frame(frame)[:19] == bytes(19)

    def test_compromised_cvm_state_cleared(self, anception_world,
                                           enrolled_ctx):
        from repro.exploits.generic import RedirectedSyscallExploit

        exploit = RedirectedSyscallExploit("CVE-0000-0007", "persist-test",
                                           "setsockopt")
        exploit.prepare_world(anception_world)
        anception_world.install_and_launch(exploit).run()
        assert anception_world.cvm.compromised
        anception_world.anception.reboot_cvm()
        assert not anception_world.cvm.compromised


class TestSqliteCrashRecovery:
    def test_hot_journal_recovered_after_cvm_crash(self, anception_world,
                                                   enrolled_ctx):
        from repro.android.sqlite import Database

        db_path = enrolled_ctx.data_path("ledger.db")
        db = Database(enrolled_ctx.libc, db_path)
        db.create_table("tx")
        db.begin()
        db.insert("tx", b"committed-row")
        db.commit()
        db.checkpoint()

        # A second transaction commits its journal but the container
        # dies before checkpoint.
        db.begin()
        db.insert("tx", b"lost-row")
        db.commit()
        db.close()
        crash_cvm(anception_world)
        anception_world.anception.reboot_cvm()

        reopened = Database(enrolled_ctx.libc, db_path)
        assert reopened.recover()  # hot journal found and cleared
        assert reopened.select_all("tx") == [b"committed-row"]

    def test_recover_without_journal_is_noop(self, enrolled_ctx):
        from repro.android.sqlite import Database

        db = Database(enrolled_ctx.libc, enrolled_ctx.data_path("clean.db"))
        assert not db.recover()


def _integer_counters(stats, prefix=""):
    """Every integer in a (nested) stats dict, keyed by its path."""
    flat = {}
    for key, value in stats.items():
        if isinstance(value, dict):
            flat.update(_integer_counters(value, f"{prefix}{key}."))
        elif isinstance(value, int) and not isinstance(value, bool):
            flat[prefix + key] = value
    return flat


def _assert_no_counter_fell(before, after):
    fell = {key: (value, after[key]) for key, value in before.items()
            if after[key] < value}
    assert not fell, fell


class TestCountersSurvive:
    """A reboot resets queues and state only; counters are run-level."""

    def test_channel_counters_survive_reboot(self, anception_world,
                                             enrolled_ctx):
        enrolled_ctx.libc.write_file(enrolled_ctx.data_path("pre.bin"),
                                     b"x" * 5000)
        before = _integer_counters(anception_world.anception.stats()
                                   ["channel"])
        assert before["bytes_to_guest"] >= 5000
        assert before["submit_ring.pushed"] > 0
        anception_world.anception.reboot_cvm()
        _assert_no_counter_fell(
            before,
            _integer_counters(anception_world.anception.stats()["channel"]))

    def test_channel_counters_survive_a_non_default_lane_reboot(self):
        from repro.obs.runner import boot_obs_world

        world, ctx = boot_obs_world(cvms=4, read_cache=True,
                                    async_delegation=True)
        ctx.libc.write_file(ctx.data_path("pre.bin"), b"x" * 5000)
        layer = world.anception
        lane = layer._lane(ctx.libc.task)
        assert lane is not layer.pool.default_lane
        before = _integer_counters(layer.stats()["channel"])
        lane_before = _integer_counters(lane.channel.stats())
        assert lane_before["bytes_to_guest"] >= 5000
        layer.reboot_cvm(lane)
        _assert_no_counter_fell(
            before, _integer_counters(layer.stats()["channel"]))
        _assert_no_counter_fell(
            lane_before, _integer_counters(lane.channel.stats()))


class TestRecoveryLogRing:
    def test_ring_is_bounded_and_stats_read_the_total(
            self, anception_world, enrolled_ctx):
        layer = anception_world.anception
        layer.recovery_log = RecoveryLog(2)
        for _ in range(3):
            layer.reboot_cvm()
        # each reboot logs one channels-rebound step
        assert [action for action, _ in layer.recovery_log] == \
            ["channels-rebound"] * 2
        assert layer.recovery_log.dropped == 1
        assert layer.stats()["recoveries"] == 3

    def test_ring_survives_a_snapshot(self, anception_world, enrolled_ctx):
        layer = anception_world.anception
        layer.recovery_log = RecoveryLog(2)
        for _ in range(3):
            layer.reboot_cvm()
        log = layer.recovery_log
        again = AnceptionWorld.restore(
            anception_world.snapshot()).anception.recovery_log
        assert list(again) == list(log)
        assert (again.entries.maxlen, again.total, again.dropped) == \
            (log.entries.maxlen, log.total, log.dropped) == (2, 3, 1)
        again.append(("next", ""))
        assert (list(again)[-1], again.total, again.dropped) == \
            (("next", ""), 4, 2)


class TestOneKernelBuild:
    """Every guest shares the host kernel's configuration: a reboot
    never boots a silently patched container."""

    def test_configuration_survives_a_reboot(self, anception_world):
        world = anception_world
        world.install_kernel_vulnerability("ioctl", make_kernel_vuln())
        world.kernel.quirks["mem_write_bypass"] = True
        world.anception.reboot_cvm()
        guest = world.cvm.kernel
        assert list(guest.vulnerabilities) == ["ioctl"]
        assert guest.quirks == {"mem_write_bypass": True}

    @pytest.mark.parametrize("cvms", [1, 4])
    def test_vulnerability_installed_before_reboot_is_exploitable_after(
            self, cvms):
        world = AnceptionWorld(cvms=cvms)
        exploit = RedirectedSyscallExploit("CVE-2012-2136", "sock-alloc",
                                           "sendto", 2012)
        exploit.prepare_world(world)
        for lane in world.anception.pool.lanes:
            world.anception.reboot_cvm(lane)
        report = world.install_and_launch(exploit).run()
        assert report.outcome() is ExploitOutcome.CVM_ROOT
        assert world.kernel.compromised_by is None

    def test_later_install_reaches_a_rebooted_lane(self):
        world = AnceptionWorld(cvms=2)
        world.anception.reboot_cvm(world.anception.pool.lanes[1])
        world.kernel.nproc_limits[2000] = 8
        for lane in world.anception.pool.lanes:
            assert lane.cvm.kernel.nproc_limits == {2000: 8}

    def test_restore_keeps_the_configuration_shared(self):
        world = AnceptionWorld(cvms=2)
        world.kernel.quirks["mem_write_bypass"] = True
        restored = AnceptionWorld.restore(world.snapshot())
        restored.install_kernel_vulnerability("ioctl", make_kernel_vuln())
        for lane in restored.anception.pool.lanes:
            guest = lane.cvm.kernel
            assert guest.quirks is restored.kernel.quirks
            assert guest.vulnerabilities is restored.kernel.vulnerabilities
            assert guest.nproc_limits is restored.kernel.nproc_limits
            assert "ioctl" in guest.vulnerabilities
