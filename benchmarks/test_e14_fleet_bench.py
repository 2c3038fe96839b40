"""E14 — fleet scaling: the 1/2/4/8-CVM curve and its gates.

Every fleet number is *simulated* (syscalls per simulated second), so
the curve itself is deterministic and these tests assert real
invariants — digest equality across pool sizes, monotone scaling, the
1.5x floor at 4 CVMs, crash isolation — not just structure.  The
module report is the full default sweep (48 apps, 8 rounds, 1/2/4/8
CVMs): a smaller fleet cannot carry the 1.5x floor.
"""

import json

import pytest

from repro.perf.fleet_bench import (
    bench_pool_size,
    check_fleet,
    crash_isolation_probe,
    run_fleet_bench,
)


@pytest.fixture(scope="module")
def report():
    return run_fleet_bench()


def test_report_runs_the_full_sweep(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert [point["cvms"] for point in report["scaling"]] == [1, 2, 4, 8]
    assert {point["apps"] for point in report["scaling"]} == {48}
    assert {point["rounds"] for point in report["scaling"]} == {8}
    assert report["isolation"]["apps"] == 48
    for point in report["scaling"]:
        benchmark.extra_info[f"{point['cvms']}cvm.speedup"] = (
            point["speedup"]
        )


def test_scaling_points_are_consistent(report):
    for point in report["scaling"]:
        assert point["syscalls"] > 0
        assert point["sim_ms"] > 0
        assert point["syscalls_per_sim_sec"] > 0
        assert sum(point["residents"].values()) == point["apps"]
    base = report["scaling"][0]
    assert base["speedup"] == 1.0
    for point in report["scaling"][1:]:
        assert point["speedup"] == pytest.approx(
            point["syscalls_per_sim_sec"] / base["syscalls_per_sim_sec"],
            abs=0.001,
        )


def test_digests_identical_across_pool_sizes(report):
    digests = {point["fleet_digest"] for point in report["scaling"]}
    assert len(digests) == 1


def test_sweep_point_is_deterministic():
    first = bench_pool_size(2, apps=6, rounds=2)
    second = bench_pool_size(2, apps=6, rounds=2)
    assert first == second


def test_isolation_probe_scopes_the_blast_radius(report):
    isolation = report["isolation"]
    assert isolation["isolated"]
    assert isolation["failed"] == isolation["victim_residents"]
    assert isolation["survived"] == (
        isolation["apps"] - isolation["victim_residents"]
    )
    assert isolation["corrupt"] == 0


def test_report_round_trips_through_json(report):
    assert json.loads(json.dumps(report)) == report


def test_gates_pass_at_the_scaling_floor(report):
    assert check_fleet(report, floor=1.5) == []


def test_gate_catches_digest_divergence(report):
    broken = json.loads(json.dumps(report))
    broken["scaling"][-1]["fleet_digest"] ^= 0xFFFF
    failures = check_fleet(broken, floor=1.5)
    assert any("digests diverge" in failure for failure in failures)


def test_gate_catches_non_monotone_curve(report):
    broken = json.loads(json.dumps(report))
    broken["scaling"][-1]["syscalls_per_sim_sec"] = 1.0
    failures = check_fleet(broken, floor=1.5)
    assert any("not monotone" in failure for failure in failures)


def test_gate_catches_scaling_floor_miss(report):
    failures = check_fleet(report, floor=1000.0)
    assert any("below the 1000.00x floor" in failure
               for failure in failures)


def test_gate_catches_isolation_failure(report):
    broken = json.loads(json.dumps(report))
    broken["isolation"]["isolated"] = False
    failures = check_fleet(broken, floor=1.5)
    assert any("crash isolation failed" in failure
               for failure in failures)


def test_probe_reports_a_real_victim():
    probe = crash_isolation_probe(apps=8)
    assert probe["victim"].startswith("cvm")
    assert probe["victim_residents"] >= 1
    assert probe["isolated"]
