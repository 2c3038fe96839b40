"""Snapshot/resume as a fourth differential mode: restore ≡ boot.

Every catalogue script already agrees across native, synchronous
delegation, and fully-async delegation.  This suite adds the fourth
world: the script's first half runs on an async Anception world, the
world snapshots mid-script, the blob restores into a brand-new world
object, and the second half finishes there.  The normalized outcome
stream and the final VFS tree must match the other three modes exactly
— a snapshot boundary dropped at an arbitrary step is invisible to the
app.

The fault section pins the same property under an armed chaos plan:
the engine's trigger cursor and PRNG ride the snapshot, so a split run
fires the same faults at the same steps as a straight run.
"""

import pytest

from repro.android.app import App, AppManifest
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.world import AnceptionWorld, _World

from tests.differential.catalogue import (
    BINDER_SCRIPTS,
    SCRIPTS,
    binder_domain_calls,
)
from tests.differential.harness import (
    H,
    P,
    SnapshotResume,
    data_kernel,
    run_modes,
    run_script,
    vfs_tree,
)
from tests.recorders import record_deliveries


class CatApp(App):
    manifest = AppManifest(
        "com.catalogue.probe",
        permissions=("INTERNET",),
        initial_data={"seed.txt": b"catalogue-seed"},
    )

    def main(self, ctx):
        return {"ok": True}


class EchoServer:
    def handle_data(self, conn, data):
        return b"echo:" + data


@pytest.mark.parametrize("label", sorted(SCRIPTS))
def test_catalogue_script_survives_snapshot_boundary(quad_worlds, label):
    entry = SCRIPTS[label]
    if entry["needs_server"]:
        for world in quad_worlds.values():
            if isinstance(world, SnapshotResume):
                world = world.world
            world.internet.register_server(("echo.example", 7),
                                           EchoServer())
    halves = run_modes(quad_worlds, entry["script"], CatApp)
    reference = halves["native"]
    for mode, half in halves.items():
        assert half[0] == reference[0], (
            f"{label}: outcome stream diverges ({mode} vs native)"
        )
        assert half[1] == reference[1], (
            f"{label}: final VFS state diverges ({mode} vs native)"
        )


@pytest.mark.parametrize("label", sorted(BINDER_SCRIPTS))
def test_binder_script_survives_snapshot_boundary(tri_worlds, label,
                                                  monkeypatch):
    entry = BINDER_SCRIPTS[label]
    native = tri_worlds["native"]
    resumed = AnceptionWorld(async_delegation=True, binder_ring=True)
    deliveries = record_deliveries(monkeypatch)
    halves = {}
    calls = {}
    for mode, spec, world in (
            ("native", native, native),
            ("snapshot-resume", SnapshotResume(resumed), resumed)):
        deliveries.clear()
        halves[mode] = run_modes({mode: spec}, entry["script"],
                                 CatApp)[mode]
        # The restored world's kernels keep their labels, so one
        # recorder sees both halves of the resumed run.
        calls[mode] = binder_domain_calls(deliveries, world, label)
    assert halves["snapshot-resume"][0] == halves["native"][0], (
        f"{label}: outcome stream diverges across the snapshot boundary"
    )
    assert calls["snapshot-resume"] == calls["native"], (
        f"{label}: deliveries diverge across the snapshot boundary"
    )


@pytest.mark.parametrize("split", [1, 3, 5, 7])
def test_split_point_is_invisible(split):
    """The same script agrees with itself wherever the boundary falls."""
    script = [
        ("open", P("s.txt"), 0o102, 0o600),
        ("write", H(0), b"alpha"),
        ("lseek", H(0), 0, 0),
        ("read", H(0), 5),
        ("write", H(0), b"beta"),
        ("fsync", H(0)),
        ("lseek", H(0), 0, 0),
        ("read", H(0), 16),
        ("close", H(0)),
    ]
    straight = run_modes(
        {"straight": AnceptionWorld(async_delegation=True,
                                    binder_ring=True)},
        script, CatApp,
    )["straight"]
    halves = run_modes(
        {"split": SnapshotResume(
            AnceptionWorld(async_delegation=True, binder_ring=True),
            split=split,
        )},
        script, CatApp,
    )["split"]
    assert halves == straight


FAULT_PLAN = "channel.corrupt:nth=4;channel.truncate:nth=9"

FAULT_SCRIPT = [
    ("open", P("f.txt"), 0o102, 0o600),
    ("write", H(0), b"x" * 128),
    ("lseek", H(0), 0, 0),
    ("read", H(0), 128),
    ("write", H(0), b"y" * 64),
    ("lseek", H(0), 0, 0),
    ("read", H(0), 192),
    ("fsync", H(0)),
    ("read", H(0), 16),
    ("close", H(0)),
]


class TestFaultScripts:
    """Mid-chaos snapshots resume with the fault cursor intact."""

    def _armed_world(self, seed):
        world = AnceptionWorld(async_delegation=True, binder_ring=True)
        engine = FaultEngine(FaultPlan.parse(FAULT_PLAN), seed=seed)
        engine.arm(world.clock)
        return world

    def _half(self, world, script, split=None):
        running = world.install_and_launch(CatApp())
        running.run()
        ctx = running.ctx
        if split is None:
            outcomes = run_script(ctx, script)
            world.anception.async_fence(ctx.libc.task)
            return outcomes, vfs_tree(data_kernel(world), ctx.data_dir)
        handles, outcomes = {}, []
        run_script(ctx, script, stop=split, handles=handles,
                   outcomes=outcomes)
        restored = _World.restore(world.snapshot())
        rctx = restored.zygote.launched[-1].ctx
        run_script(rctx, script, start=split, handles=handles,
                   outcomes=outcomes)
        restored.anception.async_fence(rctx.libc.task)
        return outcomes, vfs_tree(data_kernel(restored), rctx.data_dir)

    @pytest.mark.parametrize("split", [2, 4, 6])
    def test_fault_plan_fires_identically_across_boundary(self, split):
        straight = self._half(self._armed_world(7), FAULT_SCRIPT)
        resumed = self._half(self._armed_world(7), FAULT_SCRIPT,
                             split=split)
        assert resumed == straight

    def test_faults_actually_fired(self):
        outcomes, _tree = self._half(self._armed_world(7), FAULT_SCRIPT)
        statuses = {status for _s, _n, status, _v in outcomes}
        assert "errno" in statuses, (
            "the fault plan never fired; the resume pin is vacuous"
        )
