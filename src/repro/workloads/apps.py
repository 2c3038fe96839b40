"""Example applications: the secure banking app and its neighbours.

:class:`BankingApp` is the paper's running example (Listing 1 / Figure 2):
certificate in read-only code, credentials captured through the host-side
UI, secrets only ever in virtual memory, all network traffic sealed
end-to-end.  The low-assurance apps (:class:`CalculatorApp`,
:class:`GameApp`) are the LoApp side of Figure 1, and
:class:`PopularApp` reproduces ProfileDroid-style syscall mixes for the
Section VI-A statistics.
"""

from __future__ import annotations

import json
import os

from repro.android.app import App, AppManifest
from repro.errors import SimulationError
from repro.kernel.memory import MAP_ANONYMOUS, PROT_READ, PROT_WRITE
from repro.kernel.net import AF_INET, SOCK_STREAM
from repro.perf.costs import PAGE_SIZE
from repro.workloads import servers
from repro.workloads.servers import BANK_ADDRESS, BANK_CA_CERT, derive_session_key, tls_open, tls_seal


class BankingApp(App):
    """The high-assurance banking app of Listing 1 / Figure 2."""

    manifest = AppManifest(
        "com.bank.secure",
        permissions=("INTERNET",),
        code_units=4000,
    )

    # The certificate ships inside the app's read-only code (Figure 2):
    # under Anception this never exists in the CVM's filesystem.
    BANK_CERT = BANK_CA_CERT
    CLIENT_NONCE = b"nonce-0001"

    def main(self, ctx):
        """Launch phase: window, cert into memory, TLS handshake."""
        return self.setup(ctx)

    # -- phase 1: launch -----------------------------------------------------

    def setup(self, ctx):
        ctx.create_window("SimuBank")
        ctx.call_service("activity", "publish_activity",
                         {"component": "com.bank.secure/.Login"})

        # Load the certificate from the code base into isolated memory.
        self._secret_base = ctx.libc.mmap(
            PAGE_SIZE, PROT_READ | PROT_WRITE, MAP_ANONYMOUS
        )
        ctx.task.address_space.write(self._secret_base, self.BANK_CERT)
        self._publish_secret(ctx, self.BANK_CERT)

        # Open the end-to-end channel (Lines 4-5 of Listing 1).
        self._sockfd = ctx.libc.socket(AF_INET, SOCK_STREAM, 0)
        ctx.libc.connect(self._sockfd, BANK_ADDRESS)
        hello = ctx.libc.send(self._sockfd, b"HELLO|" + self.CLIENT_NONCE)
        reply = ctx.libc.recv(self._sockfd, 64)
        if reply != b"HELLO-OK":
            raise SimulationError(f"handshake failed: {reply!r}")
        self._session_key = derive_session_key(self.BANK_CERT,
                                               self.CLIENT_NONCE)
        return {"status": "ready"}

    def _publish_secret(self, ctx, value):
        """Record where the sensitive bytes live (for the probes)."""
        ctx.secret_in_memory = {
            "address": self._secret_base,
            "length": len(value),
            "value": bytes(value),
        }

    # -- phase 2: interactive login -----------------------------------------

    def handle_login(self, ctx):
        """Consume the typed user id and password, authenticate.

        Expects two input events to be queued (Lines 8-16 of Listing 1).
        """
        user_event = ctx.wait_input()
        password_event = ctx.wait_input()
        if user_event is None or password_event is None:
            raise SimulationError("no credentials were typed")
        username = user_event.text
        password = password_event.text

        # Store the credentials in isolated virtual memory.
        secret = f"{username}:{password}".encode()
        ctx.task.address_space.write(self._secret_base, secret)
        self._publish_secret(ctx, secret)

        # Userspace encryption (Line 13-15) runs at native speed.
        ctx.compute(500)
        envelope = tls_seal(
            self._session_key,
            json.dumps(
                {"cmd": "LOGIN_CMD", "user": username, "password": password}
            ).encode(),
        )
        ctx.libc.send(self._sockfd, envelope)
        reply = tls_open(self._session_key, ctx.libc.recv(self._sockfd, 4096))
        result = json.loads(reply.decode())
        return result

    def store_statement(self, ctx, result):
        """Optional local storage of the (encrypted) statement."""
        blob = tls_seal(self._session_key, json.dumps(result).encode())
        ctx.libc.write_file(ctx.data_path("statement.enc"), blob)
        return ctx.data_path("statement.enc")


def run_banking_session(world, username="alice", password="hunter2",
                        app=None, store_statement=True):
    """Drive a full banking session: launch, type credentials, login.

    Returns ``(running_app, login_result, bank_server)``.
    """
    bank = servers.register_bank(world.internet)
    app = app or BankingApp()
    if app.package not in world.installer.installed:
        world.install(app)
    running = world.launch(app)
    running.run()  # setup phase
    world.focus(running)
    world.type_text(username)
    world.type_text(password, password=True)
    result = app.handle_login(running.ctx)
    if store_statement:
        app.store_statement(running.ctx, result)
    return running, result, bank


class CalculatorApp(App):
    """A low-assurance app: pure UI + computation (the paper's LoApp)."""

    manifest = AppManifest("com.example.calculator")

    def main(self, ctx):
        ctx.create_window("Calculator")
        total = 0
        for i in range(50):
            ctx.compute(20)
            total += i * i
        ctx.submit_frame(b"\x10" * 256)
        return {"result": total}


class GameApp(App):
    """A graphics-heavy app: mostly UI ioctls with a little storage."""

    manifest = AppManifest("com.example.game", code_units=6000)

    FRAMES = 30

    def main(self, ctx):
        ctx.create_window("Game")
        for frame in range(self.FRAMES):
            ctx.compute(40)  # physics + render
            ctx.submit_frame(bytes([frame % 256]) * 512)
            ctx.call_service("window", "get_display_info")
        ctx.libc.write_file(ctx.data_path("savegame.dat"),
                            b"LEVEL:3;SCORE:4200")
        return {"frames": self.FRAMES}


class NoteTakingApp(App):
    """A storage-heavy app exercising the data directory."""

    manifest = AppManifest(
        "com.example.notes",
        initial_data={"welcome.txt": b"Welcome to notes"},
    )

    def main(self, ctx):
        ctx.create_window("Notes")
        notes = []
        for i in range(10):
            path = ctx.data_path(f"note-{i}.txt")
            ctx.libc.write_file(path, f"note body {i}".encode())
            notes.append(ctx.libc.read_file(path))
        return {"notes": len(notes)}


class PopularApp(App):
    """Synthetic 'popular app' with a configurable syscall mix.

    ProfileDroid measured that 58.7%-80.1% of popular apps' system calls
    are ioctls (average 73.7%), and a custom profiling pass found 81.35%
    of those ioctls to be UI-related.  Instances issue exactly the mix
    they are configured with, so the Section VI-A statistics are measured
    from real call streams rather than asserted.
    """

    def __init__(self, name, total_calls, ioctl_fraction, ui_ioctl_fraction):
        self._manifest = AppManifest(f"com.popular.{name}")
        self.app_name = name
        self.total_calls = total_calls
        self.ioctl_fraction = ioctl_fraction
        self.ui_ioctl_fraction = ui_ioctl_fraction

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        ctx.create_window(self.app_name)  # 1 UI ioctl (+ binder open)
        n_ioctl = round(self.total_calls * self.ioctl_fraction)
        n_ui = round(n_ioctl * self.ui_ioctl_fraction)
        n_other = self.total_calls - n_ioctl

        for _ in range(n_ui - 1):
            ctx.submit_frame(b"px")  # a UI ioctl on the WindowManager
        for _ in range(n_ioctl - n_ui):
            ctx.call_service("location", "get_fix")  # non-UI binder ioctl

        # Raw single-syscall file traffic on a pre-opened descriptor so
        # the measured call mix equals the configured one.
        from repro.kernel import vfs as _vfs

        fd = ctx.libc.open(
            ctx.data_path("scratch.bin"), _vfs.O_RDWR | _vfs.O_CREAT
        )
        remaining = n_other - 2  # the open above + the close below
        for i in range(remaining // 2):
            ctx.libc.pwrite(fd, b"x" * 64, 0)
        for i in range(remaining - remaining // 2):
            ctx.libc.pread(fd, 64, 0)
        ctx.libc.close(fd)
        return {
            "ioctls": n_ioctl,
            "ui_ioctls": n_ui,
            "other": n_other,
        }


POPULAR_APP_PROFILES = [
    # (name, total syscalls, ioctl fraction, UI share of ioctls)
    ("maps", 620, 0.587, 0.79),
    ("browser", 540, 0.801, 0.83),
    ("social", 480, 0.762, 0.82),
    ("video", 500, 0.748, 0.80),
    ("mail", 450, 0.729, 0.81),
    ("music", 410, 0.795, 0.83),
]
"""Six profiles whose ioctl fractions span the paper's 58.7-80.1% range
with mean 73.7% and UI share averaging 81.35%."""


def popular_apps():
    return [PopularApp(*profile) for profile in POPULAR_APP_PROFILES]
