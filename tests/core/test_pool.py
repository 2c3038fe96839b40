"""The CVM pool: placement, routed transport, lane reboot.

The tentpole guarantees under test:

* placement is the launch uid's hash — the same apps land on the same
  lanes on every run;
* every piece of lane-held transport state is re-armed through the one
  ``_bind_lane`` choke point, so a lane-scoped reboot leaves no stale
  references behind (the satellite-1 regression);
* a lane crash is *lane-scoped*: sibling lanes' apps keep running,
  differentially identical to a no-fault run;
* aggregated ``stats()`` keeps the classic single-CVM shape at
  ``cvms=1`` and sums across lanes otherwise.
"""

from __future__ import annotations

import pytest

from repro.core.pool import CVMPool
from repro.clock import SimClock
from repro.errors import SimulationError, SyscallError
from repro.faults.engine import FaultEngine
from repro.workloads.fleet import FleetApp
from repro.world import AnceptionWorld


def _launch_fleet(world, count):
    members = []
    for index in range(count):
        running = world.install_and_launch(FleetApp(index))
        running.run()
        members.append(running)
    return members


class _FakeCreds:
    def __init__(self, uid):
        self.uid = uid


class _FakeTask:
    def __init__(self, pid, uid):
        self.pid = pid
        self.credentials = _FakeCreds(uid)
        self.name = f"task-{pid}"


class TestPlacement:
    def test_by_uid_is_deterministic(self):
        tasks = [_FakeTask(pid, 10000 + pid) for pid in range(20)]
        first = CVMPool(SimClock(), cvms=4)
        second = CVMPool(SimClock(), cvms=4)
        for task in tasks:
            assert first.assign(task).cvm_id == second.assign(task).cvm_id

    def test_by_uid_map_is_pinned(self):
        """The uid hash (its salt and finalizer) defines every multi-lane
        digest, so the map itself is pinned, at two pool sizes."""
        tasks = [_FakeTask(pid, 10000 + pid) for pid in range(16)]
        four = CVMPool(SimClock(), cvms=4)
        two = CVMPool(SimClock(), cvms=2)
        assert [four.assign(task).cvm_id for task in tasks] == \
            [2, 1, 2, 1, 1, 2, 0, 1, 2, 2, 3, 2, 0, 1, 0, 0]
        assert [two.assign(task).cvm_id for task in tasks] == \
            [0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0]

    def test_single_lane_short_circuits(self):
        pool = CVMPool(SimClock(), cvms=1)
        assert pool.assign(_FakeTask(1, 10001)).cvm_id == 0

    def test_unassigned_pid_resolves_to_default_lane(self):
        pool = CVMPool(SimClock(), cvms=4)
        assert pool.lane_for(_FakeTask(99, 10099)) is pool.default_lane

    def test_pool_needs_at_least_one_cvm(self):
        with pytest.raises(SimulationError, match=">= 1 CVM"):
            CVMPool(SimClock(), cvms=0)


class TestRoutedTransport:
    def test_apps_spread_across_lanes(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 8)
        pool = world.anception.pool
        used = {pool.lane_for(m.task).cvm_id for m in members}
        assert len(used) > 1
        assert pool.assignments == 8

    def test_each_app_delegates_through_its_own_lane(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 6)
        pool = world.anception.pool
        for member in members:
            lane = pool.lane_for(member.task)
            before = lane.channel.stats()["transfers"]
            member.ctx.libc.write_file(
                member.ctx.data_path("probe.bin"), b"probe"
            )
            assert lane.channel.stats()["transfers"] > before

    def test_single_cvm_keeps_classic_back_compat_views(self):
        world = AnceptionWorld()
        anception = world.anception
        lane = anception.pool.default_lane
        assert anception.cvm is lane.cvm
        assert anception.channel is lane.channel
        assert anception.proxies is lane.proxies
        assert lane.cvm.lane == "cvm"
        assert lane.cvm.kernel.label == "cvm"

    def test_placement_flap_diverts_one_assignment(self):
        world = AnceptionWorld(cvms=4)
        engine = FaultEngine("pool.placement-flap:nth=1", seed=0)
        engine.arm(world.clock)
        try:
            _launch_fleet(world, 4)
        finally:
            engine.disarm()
        assert world.anception.pool.flaps == 1
        assert engine.fired[0]["site"] == "pool.placement-flap"

    def test_placement_flap_never_consulted_single_lane(self):
        world = AnceptionWorld()
        engine = FaultEngine("pool.placement-flap:p=1.0", seed=0)
        engine.arm(world.clock)
        try:
            _launch_fleet(world, 3)
        finally:
            engine.disarm()
        assert world.anception.pool.flaps == 0
        assert engine.fired == []


class TestLaneReboot:
    def _crash(self, lane):
        try:
            lane.cvm.kernel.panic("induced")
        except Exception:
            pass

    def test_reboot_rebinds_all_lane_state(self):
        """Satellite 1: no stale lane-held reference survives a reboot."""
        world = AnceptionWorld(cvms=2, read_cache=True,
                               async_delegation=True, binder_ring=True)
        members = _launch_fleet(world, 4)
        pool = world.anception.pool
        lane = pool.lane_for(members[0].task)
        # Populate every piece of lane-held state.
        for member in members:
            if pool.lane_for(member.task) is lane:
                member.ctx.libc.write_file(
                    member.ctx.data_path("pre.bin"), b"pre"
                )
        old_channel, old_proxies = lane.channel, lane.proxies
        old_cache, old_wb = lane.page_cache, lane.write_behind
        old_binder = lane.binder_ring
        lane.cache_paths["/stale"] = 1
        lane.write_behind.errors[(999, 1)] = 5
        lane.binder_ring.errors[(999, "svc")] = 5

        self._crash(lane)
        world.anception.reboot_cvm(lane)

        # Channel and proxies are new objects; windows/caches are the
        # same objects (counters survive) but their state is gone.
        assert lane.channel is not old_channel
        assert lane.proxies is not old_proxies
        assert lane.page_cache is old_cache
        assert lane.write_behind is old_wb
        assert lane.binder_ring is old_binder
        assert lane.cache_paths == {}
        assert len(lane.channel.submit_ring) == 0
        assert lane.write_behind.errors == {}
        assert lane.binder_ring.errors == {}
        assert old_cache.stats()["pages"] == 0

        # Survivors on the rebooted lane keep working end to end.
        for member in members:
            if pool.lane_for(member.task) is lane:
                member.ctx.libc.write_file(
                    member.ctx.data_path("post.bin"), b"post"
                )
                member.ctx.libc.fence()
                assert member.ctx.libc.read_file(
                    member.ctx.data_path("post.bin")
                ) == b"post"

    def test_crash_is_lane_scoped(self):
        world = AnceptionWorld(cvms=4)
        members = _launch_fleet(world, 8)
        pool = world.anception.pool
        victim = pool.lane_for(members[0].task)
        self._crash(victim)
        for member in members:
            payload = f"alive-{member.app.index}".encode()
            path = member.ctx.data_path("alive.bin")
            if pool.lane_for(member.task) is victim:
                with pytest.raises(SyscallError):
                    member.ctx.libc.write_file(path, payload)
            else:
                member.ctx.libc.write_file(path, payload)
                assert member.ctx.libc.read_file(path) == payload

    def test_sibling_lane_stream_identical_to_no_fault(self):
        """Differential pin: a crash on one lane never changes a byte
        of what apps on sibling lanes compute."""
        def run(crash):
            world = AnceptionWorld(cvms=4)
            members = _launch_fleet(world, 8)
            pool = world.anception.pool
            victim = pool.lane_for(members[0].task)
            if crash:
                self._crash(victim)
            outcomes = {}
            for member in members:
                if pool.lane_for(member.task) is victim:
                    continue
                path = member.ctx.data_path("diff.bin")
                payload = f"diff-{member.app.index}".encode() * 8
                member.ctx.libc.write_file(path, payload)
                outcomes[member.app.index] = member.ctx.libc.read_file(path)
            return outcomes

        assert run(crash=True) == run(crash=False)

    def test_reboot_defaults_to_lane_zero(self):
        world = AnceptionWorld()
        running = world.install_and_launch(FleetApp(0))
        running.run()
        lane = world.anception.pool.default_lane
        self._crash(lane)
        world.anception.reboot_cvm()
        running.ctx.libc.write_file(
            running.ctx.data_path("again.bin"), b"again"
        )
        assert lane.cvm.reboot_count == 1


class TestStatsAggregation:
    def test_single_cvm_keeps_the_classic_shape(self):
        """One schema at every pool size: one lane reports pool keys."""
        world = AnceptionWorld()
        running = world.install_and_launch(FleetApp(0))
        running.run()
        stats = world.anception.stats()
        assert stats["pool"]["cvms"] == 1
        assert set(stats["per_cvm"]) == {"cvm"}

    def test_multi_cvm_counters_are_fleet_sums(self):
        world = AnceptionWorld(cvms=4, read_cache=True,
                               async_delegation=True, binder_ring=True)
        members = _launch_fleet(world, 8)
        for member in members:
            member.ctx.libc.write_file(
                member.ctx.data_path("agg.bin"), b"agg"
            )
        stats = world.anception.stats()
        per_cvm = stats["per_cvm"]
        assert set(per_cvm) == {"cvm", "cvm1", "cvm2", "cvm3"}
        assert stats["channel"]["transfers"] == sum(
            entry["channel"]["transfers"] for entry in per_cvm.values()
        )
        assert stats["proxies"] == sum(
            entry["proxies"] for entry in per_cvm.values()
        )
        assert sum(stats["pool"]["residents"].values()) == 8
        assert stats["pool"]["assignments"] == 8

    def test_world_repr_reports_the_pool(self):
        world = AnceptionWorld(cvms=4)
        assert "4 CVMs" in repr(world)
        assert "AnceptionWorld(host ui_only + CVM running)" == repr(
            AnceptionWorld()
        )
