"""Zygote: app launching.

Launch always happens **from the trusted host** (principle 1): the task is
created on the host kernel, its code image is loaded from the host's
``/data/app``, and its virtual memory lives in host frames.  When an
Anception layer is installed, the zygote hands the fresh task to it for
enrollment — which pins the launch UID, sets the redirection-entry byte
and creates the CVM proxy.
"""

from __future__ import annotations

from repro.android.app import AppContext, RunningApp
from repro.errors import SimulationError
from repro.kernel.process import Credentials


class Zygote:
    """App launcher bound to the host kernel."""

    __snapshot__ = "auto"

    def __init__(self, kernel, installer, anception=None):
        self.kernel = kernel
        self.installer = installer
        self.anception = anception
        self.launched = []

    def launch(self, app):
        """Launch an installed app; returns a :class:`RunningApp`.

        The app must have been installed first (the install record supplies
        UID, code path and data directory).
        """
        record = self.installer.installed.get(app.package)
        if record is None:
            raise SimulationError(f"{app.package} is not installed")

        task = self.kernel.spawn_task(
            app.package,
            Credentials(record.uid, groups=record.groups),
        )
        task.launch_uid = record.uid
        task.cwd = record.data_dir

        # Load the app's code from the host's read-only copy.
        self.kernel.execute_native(task, "execve", (record.code_path,), {})
        task.name = app.package

        if self.anception is not None:
            self.anception.enroll_task(task, record)

        ctx = AppContext(self.kernel, task, app.package, record.data_dir)
        running = RunningApp(app, ctx)
        self.launched.append(running)
        return running
