"""Chaos-report parity: does this checkout replay faults as a base commit does?

    python3 benchmarks/chaos_parity.py <base-ref>

(``make chaos-parity BASE=<ref>`` runs the same.)  The base ref is
checked out into a temporary ``git worktree`` (no network needed) and
removed afterwards, as ``benchmarks/ab.py`` does.  Both checkouts then
run ``anception chaos <workload> --seed 7``, each with its own ``src``
on ``PYTHONPATH``:

* CI's runs: every ``TRACE_WORKLOADS`` entry of this checkout under the
  default plan, and again at ``--cvms 4`` for the workloads CI's
  four-lane chaos loop covers;
* the per-site sweep: every ``SITES`` entry of this checkout, alone in
  the plan under each trigger of :data:`TRIGGERS`, on every workload
  (``fleet`` at ``--cvms 4``, so a pool site has lanes to flap between)
  and on ``batchio --ring-depth 2``;
* one plan that reboots the CVM, so ``cvm.slow-boot`` has a boot to
  stretch.

The JSON report and standard error of each run are compared byte for
byte.  The 589 runs take about five minutes for both checkouts on a
2-vCPU Xeon.

The command prints one line per run and exits 1 naming every run whose
report or standard error differs, or that exits non-zero on either
side, and every site of this checkout that fired in none of its runs (a
site no world reaches tests nothing).  It is a refactor check, not a CI
gate: a bug fix may rightly change a report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
"""The seed CI's chaos replay step uses."""

FOUR_LANE = ("fileops", "writeburst", "batchio", "fleet")
"""Workloads CI's chaos step also replays on four lanes."""

TRIGGERS = ("every=3", "p=0.3:times=6")
"""The per-site sweep's triggers: a steady cadence, and a capped
seeded draw."""

REBOOT_PLAN = "cvm.crash:nth=2;cvm.slow-boot"
"""Crashes the CVM once, so the reboot gives ``cvm.slow-boot`` a boot."""


def _this_checkout():
    """This checkout's ``(SITES, TRACE_WORKLOADS)``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.faults.plan import SITES
    from repro.obs.runner import TRACE_WORKLOADS

    return SITES, TRACE_WORKLOADS


def chaos_runs():
    """``(label, cli arguments)`` for every run: CI's, then the sweep."""
    sites, workloads = _this_checkout()
    shapes = [[name, "--cvms", "4"] if name == "fleet" else [name]
              for name in workloads]
    shapes.append(["batchio", "--ring-depth", "2"])
    runs = [(name, [name]) for name in workloads]
    runs += [(f"{name} --cvms 4", [name, "--cvms", "4"])
             for name in FOUR_LANE]
    for site in sites:
        for trigger in TRIGGERS:
            runs += [(" ".join(shape + [site, trigger]),
                      shape + ["--faults", f"{site}:{trigger}"])
                     for shape in shapes]
    runs.append((f"fileops {REBOOT_PLAN}",
                 ["fileops", "--faults", REBOOT_PLAN]))
    return runs


def silent_sites(fired):
    """This checkout's sites missing from ``fired``, in ``SITES`` order."""
    return [site for site in _this_checkout()[0] if site not in fired]


def _chaos(checkout, args, out_path):
    """One chaos run with ``checkout`` as the program.

    Returns ``(exit code, report bytes, stderr bytes)``; the report is
    empty when the run wrote none.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "chaos", *args,
         "--seed", str(SEED), "--out", out_path],
        cwd=checkout, env=env, capture_output=True)
    report = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            report = handle.read()
    return proc.returncode, report, proc.stderr


def compare(base_checkout, out_dir):
    """Run every chaos run on both sides.

    Returns the differing labels and the set of sites that fired in
    some run of this checkout.
    """
    differing, fired = [], set()
    for index, (label, args) in enumerate(chaos_runs()):
        sides = [
            _chaos(checkout, args,
                   os.path.join(out_dir, f"{index}-{side}.json"))
            for side, checkout in (("base", base_checkout), ("change", ROOT))
        ]
        (base_code, base_json, base_err), (code, report, err) = sides
        if report:
            fired.update(json.loads(report)["faults"]["fired_by_site"])
        problems = []
        if base_code or code:
            problems.append(f"exit {base_code} vs {code}")
        if base_json != report:
            problems.append("report")
        if base_err != err:
            problems.append("stderr")
        verdict = "differs: " + ", ".join(problems) if problems else "same"
        print(f"{label:<22} {verdict}")
        if problems:
            differing.append(label)
    return differing, fired


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode:
        sys.exit(f"chaos-parity: git {' '.join(args)} failed: "
                 f"{(proc.stderr or proc.stdout).strip()[-500:]}")
    return proc.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref to compare against")
    args = parser.parse_args(argv)
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="chaos-parity-") as tmp:
        base_checkout = os.path.join(tmp, "base")
        _git("worktree", "add", "--detach", base_checkout, base_sha)
        try:
            differing, fired = compare(base_checkout, tmp)
        finally:
            _git("worktree", "remove", "--force", base_checkout)
    silent = silent_sites(fired)
    if differing:
        print(f"chaos-parity: differs from {args.base}: "
              f"{'; '.join(differing)}")
    else:
        print(f"chaos-parity: every chaos run matches {args.base}")
    if silent:
        print(f"chaos-parity: fired in no run: {', '.join(silent)}")
    return 1 if differing or silent else 0


if __name__ == "__main__":
    sys.exit(main())
