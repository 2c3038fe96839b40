"""Section VI-A ProfileDroid-style syscall profiling of popular apps.

Paper: "Using ProfileDroid, we found that approximately 58.7% to 80.1%
(average = 73.7) of system calls made by popular apps are ioctl calls.
After performing an additional custom profiling of only ioctl calls, we
found that 81.35% of such calls are UI-related and thus will run at
native speed."

The profiler runs each popular-app workload inside a trace-bus capture
and computes the fractions from the app's ``syscall`` spans — the
profiles in :data:`repro.workloads.apps.POPULAR_APP_PROFILES` are the
workload inputs; what is *reported* is measured.
"""

from __future__ import annotations

from repro.android.binder import is_ui_transaction
from repro.obs.bus import TraceBus
from repro.workloads.apps import popular_apps
from repro.world import NativeWorld


def profile_app(world, app):
    """Run one app inside a bus capture; return its call-mix stats."""
    running = world.install_and_launch(app)
    pid = running.pid
    with TraceBus.install(world.kernel.clock).capture() as capture:
        running.run()
    spans = [s for s in capture.spans("syscall") if s.get("pid") == pid]
    total = len(spans)
    ui_names = world.system.ui_service_names()
    ioctls = [s for s in spans if s["name"] == "ioctl"]
    # A captured ioctl span carries its ``request`` and, for a binder
    # transaction, its ``target``.
    ui_ioctls = [s for s in ioctls
                 if is_ui_transaction(ui_names, s["args"].get("request"),
                                      target=s["args"].get("target"))]
    return {
        "app": getattr(app, "app_name", app.package),
        "total_syscalls": total,
        "ioctls": len(ioctls),
        "ui_ioctls": len(ui_ioctls),
        "ioctl_fraction": round(100.0 * len(ioctls) / total, 1),
        "ui_share_of_ioctls": round(
            100.0 * len(ui_ioctls) / len(ioctls), 2
        ) if ioctls else 0.0,
    }


def run_profiledroid():
    """Profile all popular apps; aggregate like the paper."""
    world = NativeWorld()
    profiles = [profile_app(world, app) for app in popular_apps()]
    fractions = [p["ioctl_fraction"] for p in profiles]
    total_ioctls = sum(p["ioctls"] for p in profiles)
    total_ui = sum(p["ui_ioctls"] for p in profiles)
    return {
        "apps": profiles,
        "ioctl_fraction_min": min(fractions),
        "ioctl_fraction_max": max(fractions),
        "ioctl_fraction_avg": round(sum(fractions) / len(fractions), 1),
        "ui_share_overall": round(100.0 * total_ui / total_ioctls, 2),
        "paper": {
            "ioctl_fraction_min": 58.7,
            "ioctl_fraction_max": 80.1,
            "ioctl_fraction_avg": 73.7,
            "ui_share_overall": 81.35,
        },
    }
