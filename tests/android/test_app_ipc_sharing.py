"""App-to-app binder IPC, shared UIDs, and the CVM firewall."""

import pytest

from repro.android.app import App, AppManifest
from repro.errors import SyscallError
from repro.kernel.net import AF_INET, SOCK_STREAM

from tests.recorders import record_decisions


class ProviderApp(App):
    """Exports a binder endpoint serving a tiny key-value store."""

    manifest = AppManifest("com.example.provider")

    def main(self, ctx):
        self.store = {}

        def handler(method, payload, sender_task):
            if method == "put":
                self.store[payload["key"]] = payload["value"]
                return {"status": "stored"}
            if method == "get":
                return {"value": self.store.get(payload["key"])}
            return {"status": "unknown"}

        self.endpoint = ctx.export_service(handler)
        return {"endpoint": self.endpoint}


class ConsumerApp(App):
    manifest = AppManifest("com.example.consumer")

    def main(self, ctx):
        ctx.call_app("com.example.provider", "put",
                     {"key": "greeting", "value": "hello-ipc"})
        reply = ctx.call_app("com.example.provider", "get",
                             {"key": "greeting"})
        return reply


class TestAppToAppBinder:
    def test_roundtrip_native(self, native_world):
        native_world.install_and_launch(ProviderApp()).run()
        result = native_world.install_and_launch(ConsumerApp()).run()
        assert result == {"value": "hello-ipc"}

    def test_roundtrip_anception(self, anception_world):
        anception_world.install_and_launch(ProviderApp()).run()
        result = anception_world.install_and_launch(ConsumerApp()).run()
        assert result == {"value": "hello-ipc"}

    def test_proceeds_on_host_under_anception(self, anception_world,
                                              monkeypatch):
        """App-to-app IPC never crosses into the CVM (Section III-D)."""
        from repro.core.policy import Decision

        decisions = record_decisions(monkeypatch)
        anception_world.install_and_launch(ProviderApp()).run()
        anception_world.install_and_launch(ConsumerApp()).run()
        ioctl_decisions = [
            d for (_pid, name, d) in decisions if name == "ioctl"
        ]
        assert ioctl_decisions
        assert Decision.REDIRECT not in ioctl_decisions

    def test_endpoint_visible_in_service_manager(self, native_world):
        native_world.install_and_launch(ProviderApp()).run()
        assert native_world.system.service_manager.get(
            "app:com.example.provider"
        ) is not None

    def test_unknown_app_endpoint_enoent(self, native_world):
        running = native_world.install_and_launch(ConsumerApp())
        with pytest.raises(SyscallError):
            running.ctx.call_app("com.example.ghost", "get", {})


class _SharedA(App):
    manifest = AppManifest("com.suite.alpha", shared_user_id="com.suite")

    def main(self, ctx):
        ctx.libc.write_file(ctx.data_path("shared-note"), b"from-alpha")
        return {"uid": ctx.libc.getuid()}


class _SharedB(App):
    manifest = AppManifest("com.suite.beta", shared_user_id="com.suite")

    def main(self, ctx):
        # Same UID: may read its sibling's private file.
        return {
            "uid": ctx.libc.getuid(),
            "sibling_note": ctx.libc.read_file(
                "/data/data/com.suite.alpha/shared-note"
            ),
        }


class _LoneApp(App):
    manifest = AppManifest("com.other.lone")

    def main(self, ctx):
        return ctx.libc.read_file("/data/data/com.suite.alpha/shared-note")


class TestSharedUid:
    def test_same_shared_id_same_uid(self, native_world):
        a = native_world.install_and_launch(_SharedA()).run()
        b = native_world.install_and_launch(_SharedB()).run()
        assert a["uid"] == b["uid"]
        assert b["sibling_note"] == b"from-alpha"

    def test_shared_uid_works_under_anception(self, anception_world):
        anception_world.install_and_launch(_SharedA()).run()
        b = anception_world.install_and_launch(_SharedB()).run()
        assert b["sibling_note"] == b"from-alpha"

    def test_foreign_app_still_denied(self, native_world):
        native_world.install_and_launch(_SharedA()).run()
        running = native_world.install_and_launch(_LoneApp())
        with pytest.raises(SyscallError) as exc:
            running.run()
        assert "EACCES" in str(exc.value)

    def test_distinct_shared_ids_distinct_uids(self, native_world):
        class OtherSuite(App):
            manifest = AppManifest("com.else.app", shared_user_id="com.else")

            def main(self, ctx):
                return {"uid": ctx.libc.getuid()}

        a = native_world.install_and_launch(_SharedA()).run()
        c = native_world.install_and_launch(OtherSuite()).run()
        assert a["uid"] != c["uid"]


class _DialOutApp(App):
    manifest = AppManifest("com.example.dialer2")

    def __init__(self, address):
        self.address = address
        self._manifest = AppManifest(
            f"com.example.dialout{abs(hash(address)) % 1000}",
            permissions=("INTERNET",),
        )

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        fd = ctx.libc.socket(AF_INET, SOCK_STREAM, 0)
        ctx.libc.connect(fd, self.address)
        ctx.libc.send(fd, b"ping")
        return {"reply": ctx.libc.recv(fd, 16)}


class _Echo:
    def handle_data(self, conn, data):
        return b"pong"


class TestCvmFirewall:
    def test_allowed_address_passes(self, anception_world):
        anception_world.internet.register_server(("good.example", 443),
                                                 _Echo())
        anception_world.anception.set_firewall(allow=[("good.example", 443)])
        result = anception_world.install_and_launch(
            _DialOutApp(("good.example", 443))
        ).run()
        assert result["reply"] == b"pong"

    def test_disallowed_address_refused(self, anception_world):
        anception_world.internet.register_server(("evil.example", 80),
                                                 _Echo())
        anception_world.anception.set_firewall(allow=[("good.example", 443)])
        running = anception_world.install_and_launch(
            _DialOutApp(("evil.example", 80))
        )
        with pytest.raises(SyscallError) as exc:
            running.run()
        assert "ECONNREFUSED" in str(exc.value)
        assert anception_world.cvm.kernel.network.blocked_connections

    def test_rule_callable_form(self, anception_world):
        anception_world.internet.register_server(("c2.example", 80), _Echo())
        anception_world.anception.set_firewall(
            rule=lambda address: not address[0].startswith("c2.")
        )
        running = anception_world.install_and_launch(
            _DialOutApp(("c2.example", 80))
        )
        with pytest.raises(SyscallError):
            running.run()

    def test_clearing_firewall_restores_access(self, anception_world):
        anception_world.internet.register_server(("open.example", 80),
                                                 _Echo())
        anception_world.anception.set_firewall(allow=[])
        anception_world.anception.set_firewall()
        result = anception_world.install_and_launch(
            _DialOutApp(("open.example", 80))
        ).run()
        assert result["reply"] == b"pong"

    def test_firewall_survives_cvm_reboot(self, anception_world,
                                          enrolled_ctx):
        from repro.exploits.sock_sendpage import SockSendpage

        anception_world.anception.set_firewall(allow=[])
        running = anception_world.install_and_launch(SockSendpage())
        running.run()
        anception_world.anception.reboot_cvm()
        assert anception_world.cvm.kernel.network.firewall is not None
