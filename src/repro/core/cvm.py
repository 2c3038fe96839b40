"""The container VM: hypervisor guest + headless Android.

The CVM is the deprivileged half of the trust decomposition: a guest
kernel confined to a 64 MB window running a headless Android stack (all
delegated services, no UI, no framebuffer).  It can crash — many
redirected exploits end exactly there — and a crashed CVM leaves the host
and every app's memory intact.
"""

from __future__ import annotations

from repro.android.framework import AndroidSystem
from repro.hypervisor import LguestHypervisor
from repro.kernel.process import Credentials, ROOT_UID


class ContainerVM:
    """The guest: kernel, headless Android, private app directories."""

    __snapshot__ = "auto"

    lane = "cvm"
    """Clock overlap-lane identity for this vCPU.  Write-behind drains
    charge guest-side work onto this lane so the host task keeps running
    while the container executes the window (one vCPU, one lane).
    Instances in a multi-CVM pool override this per ``cvm_id`` — lane 0
    keeps the classic ``"cvm"`` name, siblings get ``"cvmN"`` — so each
    container's vCPU accrues work on its own clock cursor."""

    def __init__(self, machine, guest_mb=64, cvm_id=0):
        from repro.kernel.filesystems import build_data_fs

        self.machine = machine
        self.cvm_id = cvm_id
        self.lane = "cvm" if cvm_id == 0 else f"cvm{cvm_id}"
        self.hypervisor = LguestHypervisor(machine, guest_mb)
        # The virtual storage device (Section IV-5): the container's
        # /data partition is backed by host-held state, so its contents
        # survive guest crashes and reboots.
        self.data_disk = build_data_fs()
        self.kernel = self.hypervisor.launch_guest(
            self.lane, data_fs=self.data_disk
        )
        self.kernel.anception_build = True
        self.android = AndroidSystem(self.kernel, profile="headless")
        self._root = Credentials(ROOT_UID)
        self.reboot_count = 0

    def reboot(self):
        """Restart the container after a crash (or proactively).

        The guest RAM is scrubbed and a fresh headless Android boots;
        only the virtual data disk persists.  Proxies and in-flight
        state died with the old kernel — the Anception layer rebuilds
        them (see :meth:`AnceptionLayer.reboot_cvm`).
        """
        engine = self.machine.clock.faults
        if engine is not None:
            slow_ns = engine.delay_at("cvm.slow-boot",
                                      default_ns=250_000_000)
            if slow_ns:
                self.machine.clock.advance(slow_ns, "fault:cvm-slow-boot")
        self.kernel = self.hypervisor.relaunch_guest(
            self.lane, data_fs=self.data_disk
        )
        self.kernel.anception_build = True
        self.android = AndroidSystem(self.kernel, profile="headless")
        self.reboot_count += 1
        return self.kernel

    @property
    def crashed(self):
        return self.kernel.crashed

    @property
    def compromised(self):
        return self.kernel.compromised_by is not None

    def ensure_private_dir(self, host_task):
        """Replicate the app's /data/data directory into the container.

        The CVM keeps an identically named and configured directory so
        redirected file I/O resolves exactly as it would have on the host
        (GingerBreak walkthrough step 1 writes into this directory).
        """
        cwd = host_task.cwd
        if not cwd.startswith("/data/data/"):
            return
        if self.kernel.vfs.exists(cwd, self._root):
            return
        self.kernel.vfs.mkdir(cwd, self._root, mode=0o700)
        self.kernel.vfs.chown(
            cwd, host_task.credentials.uid, host_task.credentials.uid,
            self._root,
        )

    def copy_in_file(self, path, data, uid, mode=0o600):
        """Enrollment-time copy of packaged app data into the container."""
        from repro.kernel.vfs import O_CREAT, O_TRUNC, O_WRONLY

        open_file = self.kernel.vfs.open(
            path, O_WRONLY | O_CREAT | O_TRUNC, self._root, mode
        )
        open_file.write(bytes(data))
        self.kernel.vfs.chown(path, uid, uid, self._root)

    def read_out_file(self, path):
        """Host-side (trusted) read of a CVM file, e.g. for exec-cache."""
        inode = self.kernel.vfs.resolve(path, self._root)
        return bytes(inode.data)

    def __repr__(self):
        state = "crashed" if self.crashed else "running"
        return f"ContainerVM({state}, window={self.hypervisor.guest_window})"
