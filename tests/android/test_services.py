"""System services: catalogue partition and individual behaviours."""

import errno

import pytest

from repro.android.services.base import Service, ServiceCatalog
from repro.world import NativeWorld


@pytest.fixture
def world():
    return NativeWorld()


class TestCatalogue:
    def test_framework_total_matches_paper(self):
        assert ServiceCatalog.total_lines() == 181_260

    def test_ui_lines_match_paper(self):
        assert ServiceCatalog.ui_lines() == 72_542

    def test_delegated_lines_match_paper(self):
        assert ServiceCatalog.delegated_lines() == 108_718

    def test_deprivileged_fraction_about_60_percent(self):
        fraction = ServiceCatalog.delegated_lines() / ServiceCatalog.total_lines()
        assert 0.59 < fraction < 0.61

    def test_every_service_declares_loc(self):
        assert all(s.lines_of_code > 0 for s in ServiceCatalog.all_types())

    def test_partition_is_exhaustive_and_disjoint(self):
        ui = set(ServiceCatalog.ui_types())
        delegated = set(ServiceCatalog.delegated_types())
        assert not ui & delegated
        assert ui | delegated == set(ServiceCatalog.all_types())

    def test_vold_is_delegated_root_daemon(self):
        from repro.android.services.vold import VoldService

        assert VoldService in ServiceCatalog.delegated_types()
        assert VoldService.uid == 0

    def test_ui_services_are_exactly_four(self):
        names = {s.name for s in ServiceCatalog.ui_types()}
        assert names == {"window", "input", "activity", "surfaceflinger"}


class TestServiceBehaviour:
    def test_location_fix(self, world):
        service = world.system.service("location")
        fix = service.handle_transaction("get_fix", {}, service.task)
        assert set(fix) == {"lat", "lon", "accuracy_m"}

    def test_package_registry(self, world):
        pm = world.system.service("package")
        pm.register_package("com.x", 10001, "/data/app/com.x.apk")
        info = pm.handle_transaction(
            "get_package_info", {"package": "com.x"}, pm.task
        )
        assert info["found"]
        assert info["uid"] == 10001

    def test_package_unknown_not_found(self, world):
        pm = world.system.service("package")
        info = pm.handle_transaction(
            "get_package_info", {"package": "ghost"}, pm.task
        )
        assert not info["found"]

    def test_power_wakelocks(self, world):
        power = world.system.service("power")
        power.handle_transaction("acquire_wakelock", {"tag": "t"}, power.task)
        assert (power.task.pid, "t") in power.wakelocks
        power.handle_transaction("release_wakelock", {"tag": "t"}, power.task)
        assert not power.wakelocks

    def test_audio_volume_clamped(self, world):
        audio = world.system.service("audio")
        reply = audio.handle_transaction("set_volume", {"volume": 99},
                                         audio.task)
        assert reply["volume"] == 15

    def test_clipboard_roundtrip(self, world):
        clip = world.system.service("clipboard")
        clip.handle_transaction("set_clip", {"text": "copied"}, clip.task)
        reply = clip.handle_transaction("get_clip", {}, clip.task)
        assert reply["text"] == "copied"

    def test_notification_post_and_cancel(self, world):
        notif = world.system.service("notification")
        notif.handle_transaction("post", {"text": "hello"}, notif.task)
        assert len(notif.posted) == 1
        notif.handle_transaction("cancel_all", {}, notif.task)
        assert notif.posted == []

    def test_activity_tracking(self, world):
        activity = world.system.service("activity")
        activity.handle_transaction(
            "publish_activity", {"component": "com.x/.Main"}, activity.task
        )
        reply = activity.handle_transaction("get_running_apps", {},
                                            activity.task)
        assert "com.x/.Main" in reply["apps"]

    def test_services_have_heap_pages(self, world):
        vold = world.system.service("vold")
        assert vold.task.address_space.resident_pages() >= Service.HEAP_PAGES

    def test_call_log_records(self, world):
        """A call reaches the service's ``method_<name>`` handler."""
        sensor = world.system.service("sensor")
        reply = sensor.handle_transaction("list_sensors", {}, sensor.task)
        assert "accelerometer" in reply["sensors"]

    def test_unknown_method_still_einval_after_known_calls(self, world):
        from repro.errors import SyscallError

        sensor = world.system.service("sensor")
        sensor.handle_transaction("list_sensors", {}, sensor.task)
        for method in ("no_such_method", "no_such_method", ["unhashable"]):
            with pytest.raises(SyscallError) as excinfo:
                sensor.handle_transaction(method, {}, sensor.task)
            assert excinfo.value.errno == errno.EINVAL
        assert sensor.handle_transaction("list_sensors", {}, sensor.task)

    def test_window_manager_headless_refuses_ui(self):
        """UI methods on a headless instance fail cleanly."""
        from repro.errors import SyscallError
        from repro.kernel.kernel import Machine
        from repro.android.framework import AndroidSystem

        machine = Machine(total_mb=128)
        # ui_only profile without a ui_stack is impossible; build the
        # service directly to model the headless degenerate case.
        from repro.android.services.ui_services import WindowManagerService

        wm = WindowManagerService(machine.kernel, ui_stack=None)
        with pytest.raises(SyscallError):
            wm.handle_transaction("create_window", {}, wm.task)
