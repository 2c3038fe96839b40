"""Chaos properties: whatever we break, the stack never lies or hangs.

Random fault plans crossed with random workloads must uphold three
invariants: (1) the run *terminates* with either success or a clean
errno — no deadlock, no simulator exception escaping to the app;
(2) the host side stays intact — host kernel alive, host files
untouched by delegated traffic; (3) identical (plan, seed, workload)
triples produce byte-identical reports — every chaos failure replays.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.faults.chaos import chaos_report_json, run_chaos
from repro.faults.plan import SITES, FaultPlan


_TRIGGERS = st.one_of(
    st.just(""),
    st.integers(min_value=1, max_value=6).map(lambda n: f":nth={n}"),
    st.integers(min_value=2, max_value=5).map(lambda n: f":every={n}"),
    st.sampled_from([0.1, 0.3, 0.7]).map(lambda p: f":p={p}"),
)

_SITES = st.sampled_from(sorted(SITES))

_rules = st.tuples(_SITES, _TRIGGERS).map(lambda st_: st_[0] + st_[1])
_plans = st.lists(_rules, min_size=1, max_size=3).map(";".join)

_workloads = st.sampled_from(["fileops", "write4k", "read4k", "getpid"])

_SLOW = dict(max_examples=25, deadline=None)


class TestNeverHangNeverLeak:
    @given(plan=_plans, workload=_workloads,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_terminates_with_defined_outcome(self, plan, workload, seed):
        result = run_chaos(workload, seed=seed, faults=plan)
        assert result.status in ("ok", "syscall-error")
        if result.status == "syscall-error":
            # a well-defined errno name, not simulator internals
            assert any(code in result.error for code in
                       ("EIO", "EBADF", "ENOSPC", "EPERM", "ENOENT"))

    @given(plan=_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_host_kernel_survives_all_chaos(self, plan, seed):
        result = run_chaos("fileops", seed=seed, faults=plan)
        host = result.world.kernel
        assert not host.crashed
        assert host.compromised_by is None
        # delegated file traffic never materializes in the host tree
        from repro.kernel.process import Credentials

        data_dir = "/data/data/com.chaos.prey"
        if host.vfs.exists(data_dir, Credentials(0)):
            spill = [name for name in
                     host.vfs.listdir(data_dir, Credentials(0))
                     if name.startswith("chaos-")]
            assert spill == []

    @given(plan=_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_recovery_disabled_still_terminates(self, plan, seed):
        result = run_chaos("write4k", seed=seed, faults=plan,
                           recovery=False)
        assert result.status in ("ok", "syscall-error")
        assert result.stats["cvm_reboots"] == 0


class TestReplayability:
    @given(plan=_plans, workload=_workloads,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_identical_seed_identical_report(self, plan, workload, seed):
        first = chaos_report_json(run_chaos(workload, seed=seed,
                                            faults=plan))
        second = chaos_report_json(run_chaos(workload, seed=seed,
                                             faults=plan))
        assert first == second

    @given(plan=_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_report_is_json_clean(self, plan, seed):
        report = run_chaos("getpid", seed=seed, faults=plan).report()
        round_tripped = json.loads(json.dumps(report, sort_keys=True))
        assert round_tripped["plan"] == FaultPlan.parse(plan).describe()
        assert round_tripped["seed"] == seed
