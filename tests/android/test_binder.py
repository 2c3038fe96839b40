"""Binder: transactions, service manager, the UI inspection hook."""

import pytest

from repro.android.binder import (
    BINDER_WRITE_READ,
    IOC_WAIT_INPUT_EVT,
    Transaction,
    is_ui_transaction,
)
from repro.errors import SyscallError
from repro.world import NativeWorld

from tests.recorders import record_deliveries


@pytest.fixture
def world():
    return NativeWorld()


@pytest.fixture
def driver(world):
    return world.system.binder_driver


@pytest.fixture
def task(world):
    from repro.kernel.process import Credentials

    return world.kernel.spawn_task("client", Credentials(10001))


class TestTransaction:
    def test_payload_defaults_empty(self):
        assert Transaction("svc", "m").payload == {}

    def test_payload_size_tracks_content(self):
        small = Transaction("svc", "m", {"a": 1})
        large = Transaction("svc", "m", {"a": "x" * 500})
        assert large.payload_size > small.payload_size


class TestServiceManager:
    def test_lookup_registered_service(self, world):
        sm = world.system.service_manager
        assert sm.get("vold") is world.system.service("vold")

    def test_unknown_service_none(self, world):
        assert world.system.service_manager.get("ghost") is None

    def test_names_sorted(self, world):
        names = world.system.service_manager.names()
        assert names == sorted(names)

    def test_unregister(self, world):
        sm = world.system.service_manager
        sm.unregister("clipboard")
        assert sm.get("clipboard") is None


class TestTransact:
    def test_roundtrip_to_service(self, driver, task):
        txn = Transaction("location", "get_fix")
        reply = driver.transact(task, txn)
        assert reply["lat"] == pytest.approx(42.2808)
        assert txn.sender_pid == task.pid

    def test_unknown_target_enoent(self, driver, task):
        with pytest.raises(SyscallError):
            driver.transact(task, Transaction("ghost", "m"))

    def test_unknown_method_einval(self, driver, task):
        with pytest.raises(SyscallError):
            driver.transact(task, Transaction("location", "no_such"))

    def test_non_transaction_arg_einval(self, driver, task):
        with pytest.raises(SyscallError):
            driver.transact(task, {"not": "a transaction"})

    def test_transaction_log_records(self, driver, task, monkeypatch):
        deliveries = record_deliveries(monkeypatch)
        driver.transact(task, Transaction("power", "acquire_wakelock"))
        assert deliveries.on(driver.kernel) == [
            (task.pid, "power", "acquire_wakelock")]

    def test_ui_target_charged_at_ui_rate(self, world, driver, task):
        before = world.clock.now_ns
        driver.transact(task, Transaction("window", "get_display_info"))
        ui_cost = world.clock.now_ns - before
        before = world.clock.now_ns
        driver.transact(task, Transaction("location", "get_fix"))
        binder_cost = world.clock.now_ns - before
        assert ui_cost < binder_cost

    def test_read_write_rejected(self, driver):
        with pytest.raises(SyscallError):
            driver.read(None, 10)
        with pytest.raises(SyscallError):
            driver.write(None, b"x")


class TestWaitInput:
    def test_wait_input_pops_event(self, world, driver, task):
        window = world.ui.create_window(task, "w")
        world.ui.inject_text("typed")
        event = driver.ioctl(task, None, IOC_WAIT_INPUT_EVT, None)
        assert event.text == "typed"

    def test_wait_input_without_window_enoent(self, driver, task):
        with pytest.raises(SyscallError):
            driver.ioctl(task, None, IOC_WAIT_INPUT_EVT, None)

    def test_unknown_ioctl_einval(self, driver, task):
        with pytest.raises(SyscallError):
            driver.ioctl(task, None, 0xBEEF, None)


class TestUiInspection:
    def test_wait_input_is_ui(self):
        assert is_ui_transaction(set(), IOC_WAIT_INPUT_EVT, None)

    def test_ui_target_is_ui(self):
        assert is_ui_transaction(
            {"window"}, BINDER_WRITE_READ, Transaction("window", "m")
        )

    def test_non_ui_target_is_not_ui(self):
        assert not is_ui_transaction(
            {"window"}, BINDER_WRITE_READ, Transaction("location", "m")
        )

    def test_non_binder_request_is_not_ui(self):
        assert not is_ui_transaction({"window"}, 0x1234, None)

    def test_target_stands_in_for_the_transaction(self):
        """A trace span's args carry only the request and target."""
        assert is_ui_transaction({"window"}, BINDER_WRITE_READ,
                                 target="window")
        assert not is_ui_transaction({"window"}, BINDER_WRITE_READ,
                                     target="location")
        assert not is_ui_transaction({"window"}, BINDER_WRITE_READ)
        assert not is_ui_transaction({"window"}, 0x1234, target="window")
