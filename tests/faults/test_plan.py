"""The fault-plan grammar: parsing, validation, normalization, and the
site table's agreement with the code and the design doc."""

import ast
import errno
import pathlib

import pytest

from repro.faults.plan import SITES, FaultPlan, FaultRule


ROOT = pathlib.Path(__file__).resolve().parents[2]

RESOLVERS = ("check", "fires", "errno_at", "delay_at")
"""The engine calls whose first argument names a fault site."""


class TestRuleParsing:
    def test_bare_site(self):
        rule = FaultRule.parse("irq.drop")
        assert rule.site == "irq.drop"
        assert rule.probability is None and rule.nth is None

    def test_full_rule(self):
        rule = FaultRule.parse(
            "syscall.error:nth=3:call=open:errno=ENOSPC"
        )
        assert rule.site == "syscall.error"
        assert rule.nth == 3
        assert rule.call == "open"
        assert rule.errno_value == errno.ENOSPC

    def test_probability(self):
        rule = FaultRule.parse("channel.corrupt:p=0.25")
        assert rule.probability == 0.25

    def test_whitespace_tolerated(self):
        rule = FaultRule.parse("  cvm.crash : nth=2 ")
        assert rule.site == "cvm.crash"
        assert rule.nth == 2

    def test_every_after_times(self):
        rule = FaultRule.parse("irq.drop:every=3:after=2:times=4")
        assert (rule.every, rule.after, rule.times) == (3, 2, 4)

    def test_delay(self):
        rule = FaultRule.parse("channel.stall:delay_us=500")
        assert rule.delay_ns == 500_000

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule.parse("warp.core.breach")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            FaultRule.parse("irq.drop:when=later")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultRule.parse("irq.drop:nth")

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultRule.parse("irq.drop:nth=1:nth=2")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule.parse("channel.corrupt:p=1.5")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            FaultRule.parse("irq.drop:nth=soon")

    def test_zero_nth_rejected(self):
        with pytest.raises(ValueError, match="nth"):
            FaultRule.parse("irq.drop:nth=0")

    def test_unknown_errno_rejected(self):
        with pytest.raises(ValueError, match="errno"):
            FaultRule.parse("syscall.error:errno=EWAT")

    def test_default_errno_is_eio(self):
        assert FaultRule.parse("syscall.error").errno_value == errno.EIO

    def test_spec_round_trips(self):
        spec = "syscall.error:nth=3:call=open:errno=ENOSPC"
        assert FaultRule.parse(spec).spec() == spec
        assert FaultRule.parse(FaultRule.parse(spec).spec()).spec() == spec


class TestRuleMatching:
    def test_call_filter(self):
        rule = FaultRule.parse("proxy.kill:call=open")
        assert rule.matches(call="open")
        assert not rule.matches(call="read")
        assert not rule.matches(call=None)

    def test_kernel_filter(self):
        rule = FaultRule.parse("syscall.error:kernel=cvm")
        assert rule.matches(call="open", kernel="cvm")
        assert not rule.matches(call="open", kernel="host")

    def test_unfiltered_matches_everything(self):
        rule = FaultRule.parse("irq.drop")
        assert rule.matches()
        assert rule.matches(call="anything", kernel="anywhere")


class TestPlan:
    def test_parse_multi_rule(self):
        plan = FaultPlan.parse("irq.drop:nth=2;cvm.crash:nth=1")
        assert len(plan) == 2
        assert plan.describe() == ["irq.drop:nth=2", "cvm.crash:nth=1"]

    def test_empty_plan(self):
        assert len(FaultPlan.parse("")) == 0
        assert len(FaultPlan.parse(None)) == 0

    def test_parse_is_idempotent_on_plans(self):
        plan = FaultPlan.parse("irq.drop")
        assert FaultPlan.parse(plan) is plan

    def test_rules_for_site(self):
        plan = FaultPlan.parse("irq.drop:nth=1;cvm.crash;irq.drop:nth=5")
        indexed = plan.rules_for("irq.drop")
        assert [index for index, _ in indexed] == [0, 2]

    def test_every_site_documented(self):
        for site, description in SITES.items():
            assert description
            assert FaultRule.parse(site).site == site


def _named_sites():
    """``{site literal: [file:line, ...]}`` over every resolver call in
    ``src/`` whose first argument is a string literal."""
    named = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in RESOLVERS and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                named.setdefault(node.args[0].value, []).append(where)
    return named


class TestSiteNames:
    def test_every_named_site_is_in_sites(self):
        unknown = {site: where for site, where in _named_sites().items()
                   if site not in SITES}
        assert unknown == {}

    def test_every_site_is_named_at_a_call_site(self):
        named = _named_sites()
        assert [site for site in SITES if site not in named] == []

    def test_design_fault_table_lists_every_site(self):
        text = (ROOT / "DESIGN.md").read_text()
        section = text[text.index("## 6. "):text.index("## 7. ")]
        lines = section.splitlines()
        start = next(index for index, line in enumerate(lines)
                     if line.startswith("| Site | Layer |"))
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            rows.append(line.split("|")[1].strip().strip("`"))
        assert rows == list(SITES)
