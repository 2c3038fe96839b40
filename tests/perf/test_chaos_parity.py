"""The chaos-parity tool's run list and its byte comparison.

``benchmarks/chaos_parity.py`` replays CI's chaos runs, then a per-site
sweep, on two checkouts.  Its run list must start with the CI step's
runs and arm every site under every sweep trigger, a checkout compared
with itself must match on every run it makes, and a site that fired in
no run must be named.
"""

import os
import re

from benchmarks import chaos_parity
from benchmarks.chaos_parity import (
    FOUR_LANE,
    REBOOT_PLAN,
    ROOT,
    TRIGGERS,
    chaos_runs,
    silent_sites,
)
from repro.faults.plan import SITES
from repro.obs.runner import TRACE_WORKLOADS


def test_runs_start_with_ci_chaos_runs():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as ci:
        four_lane = re.search(r"for w in ([\w ]+); do\s+for run in a b",
                              ci.read())
    assert tuple(four_lane.group(1).split()) == FOUR_LANE
    ci_runs = list(TRACE_WORKLOADS) + [
        f"{name} --cvms 4" for name in FOUR_LANE]
    labels = [label for label, _ in chaos_runs()]
    assert labels[:len(ci_runs)] == ci_runs


def test_sweep_arms_every_site_under_every_trigger_on_every_shape():
    shapes = len(TRACE_WORKLOADS) + 1
    runs = chaos_runs()[len(TRACE_WORKLOADS) + len(FOUR_LANE):]
    assert len(runs) == len(SITES) * len(TRIGGERS) * shapes + 1
    plans = {}
    for _, args in runs[:-1]:
        plans.setdefault(args[args.index("--faults") + 1], []).append(args)
    assert sorted(plans) == sorted(f"{site}:{trigger}" for site in SITES
                                   for trigger in TRIGGERS)
    for plan_runs in plans.values():
        assert [args[0] for args in plan_runs] == [*TRACE_WORKLOADS,
                                                   "batchio"]
        assert ["--cvms", "4"] == plan_runs[list(TRACE_WORKLOADS).index(
            "fleet")][1:3]
        assert plan_runs[-1][1:3] == ["--ring-depth", "2"]
    assert runs[-1][1] == ["fileops", "--faults", REBOOT_PLAN]


def test_a_checkout_matches_itself(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(chaos_parity, "chaos_runs", lambda: [
        ("getpid --cvms 2", ["getpid", "--cvms", "2"]),
        ("getpid syscall.delay", ["getpid", "--faults",
                                  "syscall.delay:nth=1"]),
    ])
    differing, fired = chaos_parity.compare(ROOT, str(tmp_path))
    assert differing == []
    assert capsys.readouterr().out.split() == [
        "getpid", "--cvms", "2", "same", "getpid", "syscall.delay", "same"]
    assert fired == {"syscall.delay"}


def test_a_site_that_fired_in_no_run_is_named():
    assert silent_sites(set(SITES)) == []
    assert silent_sites(set(SITES) - {"irq.dup", "cvm.crash"}) == [
        "irq.dup", "cvm.crash"]
