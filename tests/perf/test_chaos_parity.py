"""The chaos-parity tool's run list and its byte comparison.

``benchmarks/chaos_parity.py`` replays CI's chaos runs on two
checkouts.  Its run list must stay the CI step's, and a checkout
compared with itself must match on every run it makes.
"""

import os
import re

from benchmarks import chaos_parity
from benchmarks.chaos_parity import FOUR_LANE, ROOT, chaos_runs
from repro.obs.runner import TRACE_WORKLOADS


def test_runs_are_ci_chaos_runs():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as ci:
        four_lane = re.search(r"for w in ([\w ]+); do\s+for run in a b",
                              ci.read())
    assert tuple(four_lane.group(1).split()) == FOUR_LANE
    labels = [label for label, _ in chaos_runs()]
    assert labels == list(TRACE_WORKLOADS) + [
        f"{name} --cvms 4" for name in FOUR_LANE]


def test_a_checkout_matches_itself(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(chaos_parity, "chaos_runs",
                        lambda: [("getpid --cvms 2",
                                  ["getpid", "--cvms", "2"])])
    assert chaos_parity.compare(ROOT, str(tmp_path)) == []
    assert capsys.readouterr().out.split() == ["getpid", "--cvms", "2",
                                               "same"]
