"""Section VI-C: memory overhead of the container VM.

Paper: "assigning 64MB to the CVM allows proper operation (typical
Android devices have 1-4GB RAM). [...] The active memory used is 25460 KB
± 524.54 KB out of 49228 KB available on average, i.e., almost 51% of
assigned memory is available for use by proxy processes.  A proxy process
is much smaller than the actual process running on the host."

The measurement boots an AnceptionWorld, launches an active set of apps
(each bringing a proxy into the CVM), and accounts the headless Android
instance's resident memory + proxies against the guest window.  Five runs
with the active-set sizes a device sees across a day produce the mean and
SD the paper reports.
"""

from __future__ import annotations

import math

from repro.android.app import App, AppManifest
from repro.world import AnceptionWorld, NativeWorld


AVAILABLE_KB = 49_228
"""Guest window minus the guest kernel's own footprint (paper's figure)."""

ACTIVE_SET_RUNS = (15, 19, 23, 27, 31)
"""Resident-app counts across the five measurement runs (median 23 — the
active set observed on the paper's Galaxy Tab)."""

MIN_STOCK_ANDROID_MB = 256
"""Even GingerBread-era Android required at least 256 MB (footnote 4)."""


class _ResidentApp(App):
    def __init__(self, index):
        self._manifest = AppManifest(f"com.resident.app{index:02d}")

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        # Touch the container once so the proxy holds live handles.
        ctx.libc.write_file(ctx.data_path("state.bin"), b"resident")
        return {"ok": True}


def measure_run(active_set_size):
    """One measurement run: boot, populate, account."""
    world = AnceptionWorld()
    for i in range(active_set_size):
        world.install_and_launch(_ResidentApp(i)).run()
    cvm = world.anception.cvm
    assigned_kb = cvm.hypervisor.guest_mb * 1024
    proxy_count = world.anception.proxies.count
    active_kb = cvm.android.memory_kb(proxy_count=proxy_count)
    return {
        "assigned_kb": assigned_kb,
        "available_kb": AVAILABLE_KB,
        "guest_kernel_kb": assigned_kb - AVAILABLE_KB,
        "proxies": proxy_count,
        "active_kb": active_kb,
        "free_kb": AVAILABLE_KB - active_kb,
        "free_fraction": round(
            100.0 * (AVAILABLE_KB - active_kb) / AVAILABLE_KB, 1
        ),
    }


def run_memory_overhead(active_set_runs=ACTIVE_SET_RUNS):
    """The full E5 experiment: five runs, mean and SD."""
    runs = [measure_run(size) for size in active_set_runs]
    actives = [run["active_kb"] for run in runs]
    mean = sum(actives) / len(actives)
    sd = math.sqrt(sum((a - mean) ** 2 for a in actives) / len(actives))
    return {
        "runs": runs,
        "active_mean_kb": round(mean, 1),
        "active_sd_kb": round(sd, 2),
        "available_kb": AVAILABLE_KB,
        "free_fraction_at_mean": round(
            100.0 * (AVAILABLE_KB - mean) / AVAILABLE_KB, 1
        ),
        "paper": {
            "active_mean_kb": 25_460,
            "active_sd_kb": 524.54,
            "available_kb": 49_228,
            "free_fraction": 51.0,
        },
    }


def headless_vs_full_footprint():
    """The Section IV-4 design point: headless Android is small.

    Compares the resident footprint of the CVM's headless instance with
    a full (UI-bearing) Android instance on the same accounting, plus the
    paper's 256 MB floor for a stock GingerBread device.
    """
    anception = AnceptionWorld()
    headless_kb = anception.cvm.android.memory_kb()
    native = NativeWorld()
    full_kb = native.system.memory_kb()
    return {
        "headless_kb": headless_kb,
        "full_stack_kb": full_kb,
        "ui_savings_kb": full_kb - headless_kb,
        "fits_in_guest_window": (
            headless_kb < anception.cvm.hypervisor.guest_mb * 1024
        ),
        "stock_android_floor_mb": MIN_STOCK_ANDROID_MB,
    }
