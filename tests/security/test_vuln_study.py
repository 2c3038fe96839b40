"""E6: the Section V-B vulnerability study reproduces the paper."""

import functools

import pytest

from repro.exploits.base import Exploit, ExploitOutcome
from repro.exploits.corpus import CORPUS
from repro.security import vuln_study
from repro.security.vuln_study import (
    format_study_table,
    run_one,
    run_vulnerability_study,
    summarize,
)
from repro.world import AnceptionWorld


@pytest.fixture(scope="module")
def study():
    return run_vulnerability_study()


class TestHeadlineNumbers:
    def test_native_all_25_root(self, study):
        outcomes = study["summary"]["native"]["outcomes"]
        assert outcomes.get("host-root", 0) == 23
        assert outcomes.get("host-root-detected", 0) == 2

    def test_anception_partition_15_8_2(self, study):
        outcomes = study["summary"]["anception"]["outcomes"]
        assert outcomes.get("failed", 0) == 15
        assert outcomes.get("cvm-root", 0) == 8
        assert outcomes.get("host-root-detected", 0) == 2

    def test_every_row_matches_paper(self, study):
        mismatches = [
            (r.cve, r.configuration, r.outcome.value)
            for r in study["rows"]
            if not r.matches_paper
        ]
        assert mismatches == []

    def test_native_probes_show_full_compromise(self, study):
        summary = study["summary"]["native"]
        assert summary["memory_reads"] == 25
        assert summary["input_sniffs"] == 25
        assert summary["code_tampers"] == 25

    def test_anception_probes_confined_to_detectable_pair(self, study):
        summary = study["summary"]["anception"]
        assert summary["memory_reads"] == 2
        assert summary["input_sniffs"] == 2
        assert summary["code_tampers"] == 2

    def test_cvm_root_exploits_touch_nothing(self, study):
        for row in study["rows"]:
            if (row.configuration == "anception"
                    and row.outcome is ExploitOutcome.CVM_ROOT):
                assert not row.probes["read_memory"]
                assert not row.probes["sniff_input"]
                assert not row.probes["tamper_code"]


class TestMechanics:
    def test_single_entry_run(self):
        entry = next(e for e in CORPUS if e.cve == "CVE-2013-2596")
        row = run_one(entry, "anception")
        assert row.outcome is ExploitOutcome.FAILED
        assert row.matches_paper

    def test_summary_counts_sum_to_total(self, study):
        for config in ("native", "anception"):
            outcomes = study["summary"][config]["outcomes"]
            assert sum(outcomes.values()) == 25

    def test_format_table_renders_all_cves(self, study):
        table = format_study_table(study)
        for entry in CORPUS:
            assert entry.cve in table

    def test_summarize_groups_by_configuration(self, study):
        summary = summarize(study["rows"])
        assert set(summary) == {"native", "anception"}


FOUR_LANES = dict(cvms=4)
ALL_ON = dict(read_cache=True, async_delegation=True, binder_ring=True)


class _RebootedBeforeExploit(AnceptionWorld):
    """Reboots every lane after ``prepare_world`` configured the kernel
    and before the exploit launches."""

    def install_and_launch(self, app):
        if isinstance(app, Exploit):
            for lane in self.anception.pool.lanes:
                self.anception.reboot_cvm(lane)
        return super().install_and_launch(app)


def _restored(**knobs):
    """A world booted with ``knobs``, snapshotted and restored."""
    fresh = AnceptionWorld(**knobs)
    return type(fresh).restore(fresh.snapshot())


E6_WORLDS = {
    "paper": AnceptionWorld,
    "all-on": functools.partial(AnceptionWorld, **ALL_ON),
    "4-lanes-by-uid": functools.partial(AnceptionWorld, **FOUR_LANES),
    "all-on-4-lanes": functools.partial(AnceptionWorld, **ALL_ON,
                                        **FOUR_LANES),
    "after-reboot": functools.partial(_RebootedBeforeExploit, **FOUR_LANES),
    "snapshot-resume": functools.partial(_restored, **FOUR_LANES),
}
"""Every world E6 must hold in: one kernel build means the pool size,
the mechanisms switched on, a lane reboot or a snapshot round trip
cannot change what an exploit achieves."""


@pytest.mark.parametrize("config", sorted(E6_WORLDS))
def test_e6_holds_in_every_world(config, monkeypatch):
    monkeypatch.setattr(vuln_study, "AnceptionWorld", E6_WORLDS[config])
    summary = run_vulnerability_study(
        configurations=("anception",))["summary"]["anception"]
    assert summary["matches_paper"] == 25
    assert summary["outcomes"] == {"failed": 15, "cvm-root": 8,
                                   "host-root-detected": 2}
    assert (summary["memory_reads"], summary["input_sniffs"],
            summary["code_tampers"]) == (2, 2, 2)
