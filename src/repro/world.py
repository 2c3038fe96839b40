"""World assembly: the two configurations every experiment compares.

* :class:`NativeWorld` — stock Android: one kernel, full service stack.
  This is the paper's baseline ("Native" in Table I and Figures 6-7) and
  the environment where the exploit corpus succeeds.
* :class:`AnceptionWorld` — the same machine with Anception installed:
  the host keeps the UI stack and app memory; a 64 MB CVM runs the
  headless Android with all delegated services; apps are enrolled at
  launch and their syscalls routed by the redirection layer.

Both expose the same surface (install / launch / inject input / clock),
so workloads and exploits run unmodified against either — the paper's
"supports unmodified apps" property, load-bearing for every experiment.
"""

from __future__ import annotations

from repro.android.framework import AndroidSystem
from repro.android.installer import Installer
from repro.android.zygote import Zygote
from repro.core.anception import AnceptionLayer
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc


class _World:
    """Common plumbing for all configurations."""

    __snapshot__ = "auto"

    def __init__(self, machine, system, anception=None, kernel=None):
        self.machine = machine
        self.system = system
        self.anception = anception
        self._app_kernel = kernel if kernel is not None else machine.kernel
        self.installer = Installer(self._app_kernel, system)
        self.zygote = Zygote(self._app_kernel, self.installer, anception)

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self, meta=None):
        """Serialize this world into a versioned, digest-checked blob.

        See :mod:`repro.core.snapshot` for the format and the
        determinism contract (two snapshots of the same world are
        byte-identical; restore ≡ boot behaviorally).
        """
        from repro.core.snapshot import snapshot_world

        return snapshot_world(self, meta=meta)

    @staticmethod
    def restore(blob):
        """Reconstruct a world from :meth:`snapshot` output.

        All-or-nothing: raises :class:`~repro.errors.SnapshotError` on
        corrupted, truncated, or version-mismatched blobs.
        """
        from repro.core.snapshot import restore_world

        return restore_world(blob)

    # -- conveniences --------------------------------------------------------

    @property
    def kernel(self):
        """The kernel apps live on (the guest, in a classical-VM world)."""
        return self._app_kernel

    @property
    def clock(self):
        return self.machine.clock

    @property
    def internet(self):
        return self.machine.internet

    @property
    def ui(self):
        if self.system.ui_stack is None:
            raise SimulationError("this world has no UI stack")
        return self.system.ui_stack

    def install(self, app):
        """Install an app (class or instance); returns the record."""
        manifest = app.manifest
        record = self.installer.install(manifest)
        if self.anception is not None:
            # Every lane's container learns the package: the app may be
            # placed on any of them.
            for lane in self.anception.pool.lanes:
                cvm_android = lane.cvm.android
                if cvm_android.has_service("package"):
                    cvm_android.service("package").register_package(
                        manifest.package, record.uid, record.code_path
                    )
        return record

    def launch(self, app):
        """Launch an installed app; returns the RunningApp."""
        return self.zygote.launch(app)

    def install_and_launch(self, app):
        self.install(app)
        return self.launch(app)

    def libc_for(self, task):
        return Libc(self.kernel, task)

    def install_kernel_vulnerability(self, syscall_name, trigger):
        """Install the same kernel bug in every kernel of this world.

        Host and guest run the same kernel sources, so a bug exists in
        both; Anception's protection comes from *where* the vulnerable
        path executes, never from pretending the guest is patched.
        Every CVM guest shares the host kernel's configuration, reboots
        included (see :meth:`AnceptionLayer._bind_lane`).
        """
        self.kernel.register_vulnerability(syscall_name, trigger)

    def type_text(self, text, password=False):
        """Simulate the user typing on the (host) keyboard."""
        return self.ui.inject_text(text, is_password_field=password)

    def focus(self, running_app):
        return self.ui.set_focus_by_task(running_app.task)


class NativeWorld(_World):
    """Stock Android 4.2: the baseline configuration."""

    def __init__(self, machine=None, total_mb=1024):
        machine = machine or Machine(total_mb=total_mb)
        system = AndroidSystem(machine.kernel, profile="full")
        super().__init__(machine, system)

    def __repr__(self):
        return "NativeWorld(full Android, no Anception)"


class ClassicalVmWorld(_World):
    """Classical whole-system virtualization (the Cells/AirBag shape).

    Everything — every app, the full Android stack, all services and the
    UI — runs inside *one* unprivileged guest.  Section V-B's comparison
    point: "all of the above vulnerabilities could have ended up
    compromising the guest, but not the host OS.  While this prevents
    host OS compromise, this would not have protected the virtual memory
    or UI interactions of other apps within the same guest."
    """

    def __init__(self, machine=None, total_mb=1024, guest_mb=512):
        from repro.hypervisor import LguestHypervisor

        machine = machine or Machine(total_mb=total_mb)
        self.hypervisor = LguestHypervisor(machine, guest_mb)
        guest = self.hypervisor.launch_guest("guest")
        system = AndroidSystem(guest, profile="full")
        super().__init__(machine, system, kernel=guest)

    @property
    def guest(self):
        return self._app_kernel

    def __repr__(self):
        return "ClassicalVmWorld(full Android inside one guest)"


class AnceptionWorld(_World):
    """Android with the Anception layer and its container VM.

    ``knobs`` are :class:`~repro.core.anception.AnceptionLayer`'s
    keyword arguments, passed through unchanged.
    """

    def __init__(self, machine=None, total_mb=1024, **knobs):
        machine = machine or Machine(total_mb=total_mb)
        system = AndroidSystem(machine.kernel, profile="ui_only")
        anception = AnceptionLayer(machine, system, **knobs)
        super().__init__(machine, system, anception)

    @property
    def cvm(self):
        return self.anception.cvm

    @property
    def pool(self):
        return self.anception.pool

    def __repr__(self):
        pool = self.anception.pool
        if len(pool) > 1:
            crashed = sum(1 for lane in pool.lanes if lane.cvm.crashed)
            return (f"AnceptionWorld(host ui_only + {len(pool)} CVMs, "
                    f"{crashed} crashed)")
        state = "crashed" if self.cvm.crashed else "running"
        return f"AnceptionWorld(host ui_only + CVM {state})"
