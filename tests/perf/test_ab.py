"""The A/B runner's comparison rule, on synthetic perfbench results.

``benchmarks/ab.py`` gates a change against a base commit; its
``compare`` is a pure function of both sides' parsed ``run.py`` results
and the ``BENCHMARK.json`` contract, so every gate is checked here
without running perfbench.  Bounds and directions are read from the
real contract.
"""

import copy
import json
import os

import pytest

from benchmarks.ab import ROOT, SEED, SIM_METRIC, compare, load_contract


CONTRACT = load_contract()
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
METRICS = {metric["name"]: metric for metric in CONTRACT["end_to_end"]}
PAIRS = 3


def _metric(better):
    """The contract's first gated metric in one direction (not sim time)."""
    return next(metric for metric in CONTRACT["end_to_end"]
                if metric["better"] == better
                and metric["name"] != SIM_METRIC)


def _run(failed=0, drop=(), **values):
    """One parsed ``run.py`` result: every metric 100.0 unless given."""
    metrics = {name: {"value": values.get(name, 100.0), "unit": "x"}
               for name in METRICS if name not in drop}
    return {"correct": failed == 0, "attempted": 1000, "failed": failed,
            "metrics": metrics}


def _compare(change=None, base=None, contract=CONTRACT):
    """``PAIRS`` default runs per side and workload, except that the
    first workload runs ``change`` / ``base`` when given.

    A single run dict stands for the same result in every pair.
    """
    sides = []
    for runs in (base, change):
        side = {workload: [_run()] * PAIRS for workload in WORKLOADS}
        if isinstance(runs, dict):
            runs = [runs] * PAIRS
        if runs is not None:
            side[WORKLOADS[0]] = runs
        sides.append(side)
    return compare(*sides, contract)


def _moved(better, fraction_of_bound):
    """A change value that is ``fraction_of_bound`` of the bound worse."""
    metric = _metric(better)
    sign = -1 if better == "higher" else 1
    value = 100.0 * (1 + sign * metric["bound"] * fraction_of_bound)
    return metric["name"], value


def test_seed_is_perfbench_held_out_seed():
    with open(os.path.join(ROOT, "perfbench", "design.json")) as handle:
        assert SEED == json.load(handle)["seeds"]["held_out"]


def test_identical_sides_pass_with_one_row_per_metric():
    rows, failures = _compare()
    assert failures == []
    assert len(rows) == len(WORKLOADS) * len(METRICS)
    assert all(row["wins"] == 0 and row["pairs"] == PAIRS for row in rows)


def test_rows_carry_the_contract_bound_and_direction():
    rows, _ = _compare()
    for row in rows:
        assert row["bound"] == METRICS[row["metric"]]["bound"]
        assert row["better"] == METRICS[row["metric"]]["better"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_just_inside_the_bound_passes(better):
    name, value = _moved(better, 0.99)
    assert _compare(_run(**{name: value}))[1] == []


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_just_outside_the_bound_fails_once(better):
    name, value = _moved(better, 1.01)
    failures = _compare(_run(**{name: value}))[1]
    assert len(failures) == 1
    assert failures[0].startswith(f"{WORKLOADS[0]} {name}:")


def test_better_by_more_than_the_bound_passes():
    for better in ("higher", "lower"):
        name, value = _moved(better, -5)
        assert _compare(_run(**{name: value}))[1] == []


def test_bound_is_read_from_the_contract():
    name, value = _moved("higher", 1.01)
    loose = copy.deepcopy(CONTRACT)
    for metric in loose["end_to_end"]:
        if metric["name"] == name:
            metric["bound"] *= 2
    assert _compare(_run(**{name: value}), contract=loose)[1] == []


def test_any_sim_time_difference_fails_once():
    failures = _compare(_run(**{SIM_METRIC: 100.0 + 1e-9}))[1]
    assert len(failures) == 1
    assert failures[0].startswith(f"{WORKLOADS[0]} {SIM_METRIC}:")


def test_one_more_failed_op_fails_once():
    failures = _compare([_run(failed=1)] + [_run()] * 2)[1]
    assert failures == [f"{WORKLOADS[0]}: change failed 1 ops, base 0"]


def test_fewer_failed_ops_than_base_passes():
    assert _compare(_run(failed=0), _run(failed=1))[1] == []


@pytest.mark.parametrize("side", ["base", "change"])
def test_metric_missing_from_one_side_fails_once(side):
    name = _metric("higher")["name"]
    failures = _compare(**{side: _run(drop=(name,))})[1]
    assert failures == [f"{WORKLOADS[0]} {name}: missing from {side}"]


def test_wins_count_strict_improvements_per_pair():
    name = _metric("higher")["name"]
    rows, failures = _compare(
        change=[_run(**{name: v}) for v in (101.0, 100.0, 95.0)],
        base=[_run(**{name: v}) for v in (100.0, 100.0, 90.0)])
    row = next(row for row in rows
               if (row["workload"], row["metric"]) == (WORKLOADS[0], name))
    assert failures == []
    assert row["wins"] == 2  # the tie counts for neither side
    assert row["base_median"] == 100.0
    assert row["change_median"] == 100.0
    assert row["base_iqr"] == pytest.approx(5.0)
