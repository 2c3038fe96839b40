"""Installer, zygote, app context: the app lifecycle."""

import pytest

from repro.android.app import App, AppManifest
from repro.errors import SimulationError, SyscallError
from repro.kernel.process import Credentials, FIRST_APP_UID
from repro.obs.bus import TraceBus
from repro.world import AnceptionWorld, NativeWorld


class DemoApp(App):
    manifest = AppManifest(
        "com.demo.app",
        permissions=("INTERNET",),
        initial_data={"config.json": b'{"mode":"demo"}'},
    )

    def main(self, ctx):
        return {"pid": ctx.libc.getpid()}


@pytest.fixture
def world():
    return NativeWorld()


class TestInstaller:
    def test_uid_allocation_sequential(self, world):
        first = world.install(DemoApp())

        class SecondApp(App):
            manifest = AppManifest("com.demo.second")

            def main(self, ctx):
                return None

        second = world.install(SecondApp())
        assert first.uid == FIRST_APP_UID
        assert second.uid == FIRST_APP_UID + 1

    def test_code_placed_in_data_app(self, world):
        record = world.install(DemoApp())
        assert record.code_path == "/data/app/com.demo.app.apk"
        inode = world.kernel.vfs.resolve(record.code_path, Credentials(0))
        assert bytes(inode.data).startswith(b"\x7fELF")

    def test_code_not_writable_by_app(self, world):
        from repro.kernel import vfs

        record = world.install(DemoApp())
        app_creds = Credentials(record.uid)
        with pytest.raises(SyscallError):
            world.kernel.vfs.open(record.code_path, vfs.O_WRONLY, app_creds)

    def test_data_dir_private_to_app(self, world):
        record = world.install(DemoApp())
        stranger = Credentials(record.uid + 1)
        with pytest.raises(SyscallError):
            world.kernel.vfs.resolve(
                f"{record.data_dir}/config.json", stranger
            )

    def test_initial_data_unpacked(self, world):
        record = world.install(DemoApp())
        inode = world.kernel.vfs.resolve(
            f"{record.data_dir}/config.json", Credentials(record.uid)
        )
        assert bytes(inode.data) == b'{"mode":"demo"}'

    def test_double_install_rejected(self, world):
        world.install(DemoApp())
        with pytest.raises(SimulationError):
            world.install(DemoApp())

    def test_package_manager_learns_of_install(self, world):
        world.install(DemoApp())
        pm = world.system.service("package")
        assert "com.demo.app" in pm.packages

    def test_uninstall_removes_code(self, world):
        record = world.install(DemoApp())
        world.installer.uninstall("com.demo.app")
        assert not world.kernel.vfs.exists(record.code_path, Credentials(0))


class TestZygote:
    def test_launch_requires_install(self, world):
        with pytest.raises(SimulationError):
            world.launch(DemoApp())

    def test_launch_sets_identity(self, world):
        record = world.install(DemoApp())
        running = world.launch(DemoApp())
        task = running.task
        assert task.credentials.uid == record.uid
        assert task.launch_uid == record.uid
        assert task.cwd == record.data_dir
        assert task.name == "com.demo.app"

    def test_app_runs_and_returns(self, world):
        world.install(DemoApp())
        running = world.launch(DemoApp())
        result = running.run()
        assert result["pid"] == running.pid

    def test_native_launch_has_no_redirection(self, world):
        world.install(DemoApp())
        running = world.launch(DemoApp())
        assert running.task.redirection_entry == 0

    def test_anception_launch_enrolls(self):
        world = AnceptionWorld()
        world.install(DemoApp())
        running = world.launch(DemoApp())
        assert running.task.redirection_entry == 1
        proxy = world.anception.proxies.proxy_for(running.task)
        assert proxy.guest_task.is_alive()

    def test_run_checked_captures_crash(self, world):
        class CrashingApp(App):
            manifest = AppManifest("com.demo.crash")

            def main(self, ctx):
                raise SyscallError(13, "boom")

        world.install(CrashingApp())
        running = world.launch(CrashingApp())
        assert running.run_checked() is None
        assert running.exception is not None


class TestAppContext:
    def test_data_path_helper(self, world):
        world.install(DemoApp())
        ctx = world.launch(DemoApp()).ctx
        assert ctx.data_path("f.txt") == "/data/data/com.demo.app/f.txt"

    def test_binder_fd_lazy_and_cached(self, world):
        world.install(DemoApp())
        ctx = world.launch(DemoApp()).ctx
        fd1 = ctx.binder_fd
        fd2 = ctx.binder_fd
        assert fd1 == fd2

    def test_call_service_via_context(self, world):
        world.install(DemoApp())
        ctx = world.launch(DemoApp()).ctx
        reply = ctx.call_service("sensor", "read_accelerometer")
        assert reply["z"] == pytest.approx(9.81)

    def test_compute_charges_clock(self, world):
        world.install(DemoApp())
        ctx = world.launch(DemoApp()).ctx
        before = world.clock.now_ns
        ctx.compute(100)
        assert world.clock.now_ns - before == 100 * world.machine.costs.cpu_unit_ns

    def test_compute_off_the_integer_path_goes_through_advance(self, world):
        """Fractional work truncates and negative work raises, dormant
        or traced, exactly as ``clock.advance`` does."""
        world.install(DemoApp())
        ctx = world.launch(DemoApp()).ctx
        clock = world.clock
        unit_ns = world.machine.costs.cpu_unit_ns

        def check():
            before = clock.now_ns
            ctx.compute(2.5)
            assert clock.now_ns - before == int(2.5 * unit_ns)
            assert type(clock.now_ns) is int
            with pytest.raises(ValueError):
                ctx.compute(-1)
            assert clock.now_ns - before == int(2.5 * unit_ns)

        check()
        with TraceBus.install(clock).capture():
            check()
        assert clock.dormant
