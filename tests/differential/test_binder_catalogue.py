"""Run every binder catalogue script in all three modes; all must agree.

The modes are native, synchronous delegation, and batched-async binder
delegation (tri_worlds' third world runs with the binder ring on); each
script's normalized outcome stream — replies, errnos, optimistic
oneway ``None``s — and the deliveries on one driver's kernel,
normalized to ``(target, method)`` pairs, must be identical across all
of them.

Scripts stay within one delegation domain each: system-service targets
execute in the CVM's binder driver under Anception (and the host's
natively), while app-exported ``app:*`` endpoints stay on the host in
every mode (Section III-D), so each script compares exactly one
driver's deliveries.
"""

import pytest

from repro.android.app import App, AppManifest

from tests.differential.catalogue import (
    BINDER_APP_PACKAGE,
    BINDER_SCRIPTS,
    binder_domain_calls,
)
from tests.differential.harness import run_modes
from tests.recorders import record_deliveries


class BinderCatApp(App):
    manifest = AppManifest(
        BINDER_APP_PACKAGE,
        permissions=("INTERNET",),
        initial_data={"seed.txt": b"catalogue-seed"},
    )

    def main(self, ctx):
        return {"ok": True}


@pytest.mark.parametrize("label", sorted(BINDER_SCRIPTS))
def test_binder_script_equivalent_in_all_modes(tri_worlds, label,
                                               monkeypatch):
    entry = BINDER_SCRIPTS[label]
    halves = {}
    logs = {}
    deliveries = record_deliveries(monkeypatch)
    for mode, world in tri_worlds.items():
        deliveries.clear()
        halves[mode] = run_modes({mode: world}, entry["script"],
                                 BinderCatApp)[mode]
        logs[mode] = binder_domain_calls(deliveries, world, label)
    reference = halves["native"]
    for mode, half in halves.items():
        assert half[0] == reference[0], (
            f"{label}: outcome stream diverges ({mode} vs native)"
        )
    for mode, log in logs.items():
        assert log == logs["native"], (
            f"{label}: deliveries diverge ({mode} vs native)"
        )


def test_oneway_burst_defers_until_fence(tri_worlds, monkeypatch):
    """The batched world really batches: a oneway burst stays staged
    (zero drains) until the reply-carrying call fences it."""
    world = tri_worlds["write-behind"]
    running = world.install_and_launch(BinderCatApp())
    running.run()
    ctx = running.ctx
    deliveries = record_deliveries(monkeypatch)
    ring = world.anception.binder_ring
    for _ in range(4):
        ctx.call_service_oneway("location", "get_fix", {})
    assert ring.drains == 0
    assert ring.enqueued == 4
    ctx.call_service("power", "acquire_wakelock", {})
    assert ring.drains == 1
    # All four staged oneways landed before the sync call's transaction.
    log = binder_domain_calls(deliveries, world, "binder-oneway")
    assert log == [("location", "get_fix")] * 4 + [
        ("power", "acquire_wakelock")
    ]
