"""Property tests on CVM pool placement and pool-size equivalence.

The scheduler's contract is determinism: placement is a pure function
of the launch uid — never Python's randomized ``hash()``, never wall
clock — so the same apps land on the same lanes on every run, on every
machine, and after a lane reboot.  And the pool is *routing only*: what
an app computes must be byte-identical at every pool size.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.core.pool import CVMPool
from repro.workloads.fleet import run_fleet
from repro.world import AnceptionWorld


class _Creds:
    def __init__(self, uid):
        self.uid = uid


class _Task:
    def __init__(self, pid, uid):
        self.pid = pid
        self.credentials = _Creds(uid)
        self.name = f"task-{pid}"


def _tasks(uids):
    return [_Task(pid + 2, uid) for pid, uid in enumerate(uids)]


_uids = st.lists(
    st.integers(min_value=1000, max_value=99_999),
    min_size=1, max_size=24,
)
_cvm_counts = st.integers(min_value=1, max_value=8)


class TestPlacementDeterminism:
    @given(uids=_uids, cvms=_cvm_counts)
    @settings(max_examples=120, deadline=None)
    def test_two_pools_agree(self, uids, cvms):
        """Same apps -> same lane map, fresh pool."""
        first = CVMPool(SimClock(), cvms=cvms)
        second = CVMPool(SimClock(), cvms=cvms)
        for task in _tasks(uids):
            assert first.assign(task).cvm_id == second.assign(task).cvm_id

    @given(uids=_uids, cvms=_cvm_counts)
    @settings(max_examples=120, deadline=None)
    def test_release_and_replay_reproduces_the_map(self, uids, cvms):
        """The reboot analogue: releasing every pid and re-enrolling in
        the same order lands everyone on the same lanes again."""
        pool = CVMPool(SimClock(), cvms=cvms)
        tasks = _tasks(uids)
        before = [pool.assign(task).cvm_id for task in tasks]
        for task in tasks:
            pool.release(task.pid)
        after = [pool.assign(task).cvm_id for task in tasks]
        assert before == after

    @given(uids=_uids, cvms=_cvm_counts)
    @settings(max_examples=80, deadline=None)
    def test_hash_policies_ignore_enrollment_order(self, uids, cvms):
        """Placement depends only on the uid, not on who enrolled first
        — so a lane reboot (which re-creates proxies but never
        reassigns) can't perturb any later enrollment."""
        pool = CVMPool(SimClock(), cvms=cvms)
        forward = {
            task.credentials.uid: pool.assign(task).cvm_id
            for task in _tasks(uids)
        }
        reversed_pool = CVMPool(SimClock(), cvms=cvms)
        backward = {
            task.credentials.uid: reversed_pool.assign(task).cvm_id
            for task in _tasks(list(reversed(uids)))
        }
        assert forward == backward

    @given(uids=_uids, cvms=_cvm_counts)
    @settings(max_examples=80, deadline=None)
    def test_every_assignment_is_a_valid_lane(self, uids, cvms):
        pool = CVMPool(SimClock(), cvms=cvms)
        for task in _tasks(uids):
            lane = pool.assign(task)
            assert 0 <= lane.cvm_id < cvms
            assert pool.lane_for(task) is lane


class TestPoolSizeEquivalence:
    def test_fleet_digests_identical_at_every_pool_size(self):
        """Routing changes where work runs, never what it computes: the
        fleet's per-app digests are byte-identical at 1, 2, 4 and 8
        CVMs."""
        reference = None
        for cvms in (1, 2, 4, 8):
            world = AnceptionWorld(cvms=cvms, async_delegation=True,
                                   binder_ring=True)
            summary = run_fleet(world, apps=12, rounds=2)
            if reference is None:
                reference = summary["digests"]
            assert summary["digests"] == reference

    def test_single_cvm_world_is_the_classic_world(self):
        """cvms=1 (the default) runs the identical transport: same lane
        name, same guest label, and the one stats schema (pool keys
        included)."""
        classic = AnceptionWorld()
        assert len(classic.pool) == 1
        assert classic.pool.default_lane.cvm.lane == "cvm"
        stats = classic.anception.stats()
        assert "pool" in stats and "per_cvm" in stats
