"""E4, E5, E10: sqlite bench, memory overhead, ProfileDroid stats."""

import pytest

from repro.perf.memory import (
    headless_vs_full_footprint,
    measure_run,
    run_memory_overhead,
)
from repro.perf.profiledroid import run_profiledroid
from repro.perf.sqlite_bench import run_sqlite_bench


class TestSqliteBench:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            "native": run_sqlite_bench("native", runs=2),
            "anception": run_sqlite_bench("anception", runs=2),
        }

    def test_native_per_row_near_paper(self, results):
        assert results["native"]["mean_us"] == pytest.approx(86.55, rel=0.02)

    def test_anception_per_row_near_paper(self, results):
        assert results["anception"]["mean_us"] == pytest.approx(
            86.67, rel=0.02
        )

    def test_virtually_indistinguishable(self, results):
        """Paper: +0.14%; accept anything under 1%."""
        overhead = (
            results["anception"]["mean_us"] - results["native"]["mean_us"]
        ) / results["native"]["mean_us"]
        assert 0 <= overhead < 0.01

    def test_deterministic_samples(self, results):
        assert results["native"]["sd_us"] == 0.0


class TestMemoryOverhead:
    @pytest.fixture(scope="class")
    def report(self):
        return run_memory_overhead()

    def test_active_mean_matches_paper(self, report):
        assert report["active_mean_kb"] == pytest.approx(25_460, rel=0.01)

    def test_sd_same_magnitude_as_paper(self, report):
        assert report["active_sd_kb"] == pytest.approx(524.54, rel=0.15)

    def test_about_half_available_for_proxies(self, report):
        assert report["free_fraction_at_mean"] == pytest.approx(48.3, abs=2)

    def test_proxies_counted(self):
        run = measure_run(10)
        assert run["proxies"] == 10
        assert run["active_kb"] < run["available_kb"]

    def test_headless_fits_full_does_not_matter(self):
        footprints = headless_vs_full_footprint()
        assert footprints["fits_in_guest_window"]
        assert footprints["headless_kb"] < footprints["full_stack_kb"]
        assert footprints["stock_android_floor_mb"] == 256


class TestProfileDroid:
    @pytest.fixture(scope="class")
    def report(self):
        return run_profiledroid()

    def test_ioctl_range_matches_paper(self, report):
        assert report["ioctl_fraction_min"] == pytest.approx(58.7, abs=1.0)
        assert report["ioctl_fraction_max"] == pytest.approx(80.1, abs=1.0)

    def test_ioctl_average_matches_paper(self, report):
        assert report["ioctl_fraction_avg"] == pytest.approx(73.7, abs=1.0)

    def test_ui_share_matches_paper(self, report):
        assert report["ui_share_overall"] == pytest.approx(81.35, abs=1.0)

    def test_six_popular_apps_profiled(self, report):
        assert len(report["apps"]) == 6

    def test_exact_call_mix_is_pinned(self, report):
        """The recorded call stream itself, not just its closeness to the
        paper: any drift in what the trace bus records fails here."""
        assert [(app["app"], app["total_syscalls"], app["ioctls"],
                 app["ui_ioctls"]) for app in report["apps"]] == [
            ("maps", 621, 364, 288),
            ("browser", 541, 433, 359),
            ("social", 481, 366, 300),
            ("video", 501, 374, 299),
            ("mail", 451, 328, 266),
            ("music", 411, 326, 271),
        ]
        assert (report["ioctl_fraction_min"], report["ioctl_fraction_max"],
                report["ioctl_fraction_avg"],
                report["ui_share_overall"]) == (58.6, 80.0, 73.6, 81.38)

    def test_fractions_measured_not_asserted(self, report):
        """Every per-app stat derives from a recorded call stream."""
        for app in report["apps"]:
            assert app["total_syscalls"] > 100
            assert 0 < app["ioctls"] < app["total_syscalls"]
