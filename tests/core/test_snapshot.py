"""The snapshot format, its determinism contract, and restore≡boot.

The pins here are the acceptance gates from DESIGN.md §14:

* two snapshots of the same world are byte-identical (deterministic
  traversal — including cache/LRU structures);
* restore → run ends byte-identical (``world_digest``) to a
  never-snapshotted run, across every placement policy at 1 and 4
  lanes;
* corrupted, truncated, or version-skewed blobs raise
  :class:`SnapshotError` and never a partial world;
* an armed fault engine rides the snapshot with its cursor and PRNG
  intact (the mid-chaos resume pin).
"""

import struct

import pytest

from repro.core.snapshot import (
    SNAPSHOT_EXEMPT,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    app_slice,
    audit_components,
    component_manifest,
    describe_snapshot,
    restore_world,
    snapshot_digest,
    snapshot_manifest,
    snapshot_meta,
    snapshot_world,
    stable_pickle_digest,
    walk_components,
    world_digest,
)
from repro.errors import SnapshotError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.obs.bus import TraceBus
from repro.obs.runner import boot_obs_world, run_traced
from repro.world import AnceptionWorld, NativeWorld, _World


FULL_KNOBS = dict(read_cache=True, write_behind=True, binder_ring=True,
                  cvms=4, placement="by-uid")


def _warm_world(**knobs):
    """A booted world that has actually run a workload."""
    world, _ctx = boot_obs_world(**knobs)
    run_traced("write4k", seed=0, world=world)
    return world


class TestFormat:
    def test_blob_opens_with_magic(self, anception_world):
        blob = anception_world.snapshot()
        assert blob.startswith(SNAPSHOT_MAGIC)

    def test_describe_reports_version_and_digest(self, anception_world):
        blob = anception_world.snapshot()
        info = describe_snapshot(blob)
        assert info["version"] == SNAPSHOT_VERSION
        assert info["payload_bytes"] == len(blob) - 52  # header size
        assert snapshot_digest(blob) == info["digest"]

    def test_native_world_snapshots_too(self, native_world):
        restored = _World.restore(native_world.snapshot())
        assert world_digest(restored) == world_digest(native_world)

    def test_meta_rides_the_blob(self, anception_world):
        blob = anception_world.snapshot(
            meta={"workload": "write4k", "warmup": 2}
        )
        assert snapshot_meta(blob) == {"workload": "write4k", "warmup": 2}

    def test_meta_defaults_empty(self, anception_world):
        assert snapshot_meta(anception_world.snapshot()) == {}

    def test_manifest_names_world_components(self, anception_world):
        manifest = snapshot_manifest(anception_world.snapshot())
        assert "repro.kernel.kernel.Kernel" in manifest
        assert "repro.core.anception.AnceptionLayer" in manifest
        assert all(count > 0 for count in manifest.values())


class TestRejection:
    def test_too_short_blob(self):
        with pytest.raises(SnapshotError, match="too short"):
            describe_snapshot(b"ANCS")

    def test_bad_magic(self, anception_world):
        blob = anception_world.snapshot()
        with pytest.raises(SnapshotError, match="magic"):
            restore_world(b"NOTASNAP" + blob[8:])

    def test_unsupported_version(self, anception_world):
        blob = bytearray(anception_world.snapshot())
        blob[8] = 0xFF  # version u16 lives right after the magic
        with pytest.raises(SnapshotError, match="version"):
            restore_world(bytes(blob))

    def test_truncated_payload(self, anception_world):
        blob = anception_world.snapshot()
        with pytest.raises(SnapshotError, match="truncated"):
            restore_world(blob[:-10])

    def test_corrupted_payload_fails_digest(self, anception_world):
        blob = bytearray(anception_world.snapshot())
        blob[-1] ^= 0xFF
        with pytest.raises(SnapshotError, match="digest"):
            restore_world(bytes(blob))

    def test_corrupted_header_digest(self, anception_world):
        blob = bytearray(anception_world.snapshot())
        blob[20] ^= 0xFF  # inside the sha256 field
        with pytest.raises(SnapshotError):
            restore_world(bytes(blob))

    def test_valid_header_garbage_payload(self):
        import hashlib
        import struct
        import zlib

        payload = zlib.compress(b"not a pickle at all")
        header = struct.pack(
            "<8sHHQ32s", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0,
            len(payload), hashlib.sha256(payload).digest(),
        )
        with pytest.raises(SnapshotError, match="deserialize"):
            restore_world(header + payload)

    def test_payload_without_section_table(self):
        import hashlib
        import pickle
        import struct
        import zlib

        payload = zlib.compress(pickle.dumps([1, 2, 3], protocol=4))
        header = struct.pack(
            "<8sHHQ32s", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0,
            len(payload), hashlib.sha256(payload).digest(),
        )
        with pytest.raises(SnapshotError, match="section table"):
            restore_world(header + payload)


class TestDeterminism:
    def test_double_snapshot_is_byte_identical(self, anception_world):
        assert anception_world.snapshot() == anception_world.snapshot()

    def test_double_snapshot_after_cached_run(self):
        # The cache pin: a run with the read cache and both async lanes
        # on fills LRU/dict structures whose serialization must still be
        # a pure function of the object graph.
        world = _warm_world(**FULL_KNOBS)
        assert world.snapshot() == world.snapshot()

    def test_two_restores_resnapshot_identically(self):
        blob = _warm_world(**FULL_KNOBS).snapshot()
        first = _World.restore(blob)
        second = _World.restore(blob)
        assert first.snapshot() == second.snapshot()

    def test_restore_preserves_world_digest(self):
        world = _warm_world(**FULL_KNOBS)
        digest = world_digest(world)
        restored = _World.restore(world.snapshot())
        assert world_digest(restored) == digest

    def test_warm_boot_restores_a_nonempty_snapshot(self):
        blob = _warm_world(read_cache=True, write_behind=True).snapshot()
        assert len(blob) > 0
        assert isinstance(_World.restore(blob), AnceptionWorld)

    def test_double_restore_is_idempotent(self):
        world = _warm_world(read_cache=True, write_behind=True)
        once = _World.restore(world.snapshot())
        twice = _World.restore(once.snapshot())
        assert world_digest(twice) == world_digest(world)

    def test_restore_does_not_alias_the_original(self, anception_world):
        restored = _World.restore(anception_world.snapshot())
        assert restored is not anception_world
        assert restored.kernel is not anception_world.kernel
        assert restored.clock is not anception_world.clock
        # but identity WITHIN the restored world is preserved
        assert restored.clock is restored.machine.clock

    def test_stable_digest_survives_restore_roundtrip(self):
        world = _warm_world(read_cache=True)
        restored = _World.restore(world.snapshot())
        assert (stable_pickle_digest(sorted(world.anception.fd_tables))
                == stable_pickle_digest(
                    sorted(restored.anception.fd_tables)))


class TestRestoreEqualsBoot:
    """snapshot → restore → run ≡ straight run, across the knob matrix."""

    @pytest.mark.parametrize("placement",
                             ["by-uid", "by-trust-class", "by-load"])
    @pytest.mark.parametrize("cvms", [1, 4])
    def test_resumed_run_matches_straight_run(self, placement, cvms):
        knobs = dict(read_cache=True, write_behind=True,
                     binder_ring=True, cvms=cvms, placement=placement)
        # Straight world: warmup + one more run, never snapshotted.
        straight = _warm_world(**knobs)
        run_traced("write4k", seed=1, world=straight)
        # Split world: identical warmup, snapshot, restore, same run.
        split = _warm_world(**knobs)
        restored = _World.restore(split.snapshot())
        run_traced("write4k", seed=1, world=restored)
        assert world_digest(restored) == world_digest(straight)

    def test_resume_twice_from_one_blob(self):
        blob = _warm_world(read_cache=True, write_behind=True).snapshot()
        first = _World.restore(blob)
        second = _World.restore(blob)
        run_traced("write4k", seed=2, world=first)
        run_traced("write4k", seed=2, world=second)
        assert world_digest(first) == world_digest(second)


class TestMidChaosResume:
    """An armed fault engine travels with its cursor and PRNG intact."""

    # Timing + cache faults only: they advance the engine's cursor and
    # PRNG without surfacing errnos that would abort the workload body.
    PLAN = "channel.stall:nth=3;cache.stale:nth=5;channel.stall:every=7"

    def _armed(self):
        world, _ctx = boot_obs_world(read_cache=True, write_behind=True)
        engine = FaultEngine(FaultPlan.parse(self.PLAN), seed=11)
        engine.arm(world.clock)
        return world

    @staticmethod
    def _cursor(engine):
        """The engine's observable trigger state."""
        return (engine._occurrences, engine._fires,
                engine.rng.getstate(),
                [(f["site"], f["occurrence"]) for f in engine.fired])

    def test_engine_section_restores_armed(self):
        world = self._armed()
        restored = _World.restore(world.snapshot())
        assert restored.clock.faults is not None
        assert (self._cursor(restored.clock.faults)
                == self._cursor(world.clock.faults))
        assert restored.clock.faults.clock is restored.clock

    def test_mid_campaign_cursor_is_intact(self):
        # Fire part of the plan, snapshot, and compare the engine's
        # cursor after the straight world fired the same prefix.
        straight = self._armed()
        split = self._armed()
        run_traced("write4k", seed=3, world=straight)
        run_traced("write4k", seed=3, world=split)
        restored = _World.restore(split.snapshot())
        assert (self._cursor(restored.clock.faults)
                == self._cursor(straight.clock.faults))
        # …and the remainder of both campaigns agrees.
        run_traced("write4k", seed=4, world=straight)
        run_traced("write4k", seed=4, world=restored)
        assert world_digest(restored) == world_digest(straight)
        assert (self._cursor(restored.clock.faults)
                == self._cursor(straight.clock.faults))


class TestAudit:
    def test_full_knob_world_is_fully_audited(self):
        world = _warm_world(**FULL_KNOBS)
        manifest = audit_components(world)
        assert manifest == component_manifest(world)

    def test_unaudited_component_fails_with_its_name(self, anception_world):
        class Rogue:
            pass

        Rogue.__module__ = "repro.test_rogue"
        anception_world.kernel._rogue = Rogue()
        try:
            with pytest.raises(SnapshotError,
                               match=r"repro\.test_rogue\..*Rogue"):
                anception_world.snapshot()
        finally:
            del anception_world.kernel._rogue

    def test_exemptions_carry_rationale(self):
        for name, why in SNAPSHOT_EXEMPT.items():
            assert name.startswith("repro."), name
            assert len(why) > 20, f"exemption {name} lacks a rationale"

    def test_walk_yields_each_object_once(self, anception_world):
        ids = [id(obj) for obj in walk_components(anception_world)]
        assert len(ids) == len(set(ids))


class TestWorldApi:
    def test_world_snapshot_restore_are_module_functions(self):
        world = AnceptionWorld()
        assert world.snapshot() == snapshot_world(world)
        assert isinstance(_World.restore(world.snapshot()),
                          AnceptionWorld)

    def test_restored_app_context_is_usable(self, enrolled_ctx,
                                            anception_world):
        path = enrolled_ctx.data_path("warm.txt")
        fd = enrolled_ctx.libc.open(path, 0o102, 0o600)
        enrolled_ctx.libc.write(fd, b"before-snapshot")
        enrolled_ctx.libc.close(fd)
        restored = _World.restore(anception_world.snapshot())
        rctx = restored.zygote.launched[-1].ctx
        rfd = rctx.libc.open(rctx.data_path("warm.txt"), 0, 0)
        assert rctx.libc.read(rfd, 64) == b"before-snapshot"
        rctx.libc.close(rfd)


class TestDormantClockResume:
    """A resumed clock's ``dormant`` agrees with what it restored."""

    @staticmethod
    def _agrees(clock):
        bus = clock.bus
        return clock.dormant == (
            clock._overlap_lane is None and not clock._trace_depth
            and (bus is None or not bus._depth))

    def test_previous_version_blob_is_refused_cleanly(self, anception_world):
        blob = bytearray(anception_world.snapshot())
        struct.pack_into("<H", blob, 8, SNAPSHOT_VERSION - 1)
        with pytest.raises(SnapshotError, match="unsupported snapshot "
                           f"version {SNAPSHOT_VERSION - 1}"):
            restore_world(bytes(blob))

    @pytest.mark.parametrize("state", ["idle", "bus", "trace", "capture"])
    def test_resumed_clock_agrees_with_its_state(self, anception_world,
                                                 state):
        clock = anception_world.clock
        if state in ("bus", "capture"):
            bus = TraceBus.install(clock)
        if state == "trace":
            clock.enable_trace()
        if state == "capture":
            with bus.capture():
                blob = anception_world.snapshot()
        else:
            blob = anception_world.snapshot()
        restored = restore_world(blob).clock
        assert self._agrees(restored)
        assert restored.dormant == (state in ("idle", "bus"))
        before = restored.now_ns
        restored.advance(11, "resume")
        assert restored.now_ns == before + 11
