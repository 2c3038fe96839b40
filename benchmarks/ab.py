"""A/B wall-clock comparison of two commits over perfbench.

Run from the repository root::

    python3 benchmarks/ab.py <base-ref> [--pairs N]

The base ref is checked out into a temporary ``git worktree`` (no
network needed) and removed afterwards.  For every workload in
``BENCHMARK.json``, this checkout's ``perfbench/run.py --trace 0`` runs
``--pairs`` times against each side at the held-out seed, alternating
which side runs first in each pair.  Each run's working directory is
the checkout under test, and ``run.py`` imports ``./src`` from there,
so one harness measures both programs and only the program differs.

For every workload and end-to-end metric the report gives both medians,
the base runs' interquartile range and the change's wins out of the
pairs (ties count for neither side); the last line of standard output
is the whole report as one JSON object, with both sides' commits, the
CPU model and the Python version, and the same line is appended to
``benchmarks/TRAJECTORY.jsonl``, the committed history of A/B runs.
The command exits 1 when a
change median is worse than the base median by more than the metric's
``bound`` in its ``better`` direction, when ``sim_ms_per_iter`` differs
at all, when the change fails more operations than the base, or when
any run exits non-zero.  Workloads, run length, metric names, ``better``
and ``bound`` are all read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "perfbench", "run.py")
SEED = 7919
"""perfbench's held-out seed: no pin or tuning used it."""

SIM_METRIC = "sim_ms_per_iter"
"""Simulated time is exact, so any difference is a behaviour change."""

TRAJECTORY = os.path.join(ROOT, "benchmarks", "TRAJECTORY.jsonl")
"""One report line per A/B run, oldest first."""


def load_contract():
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _iqr(values):
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def _worse_by(base, change, better):
    """How much worse ``change`` is than ``base``, relative to ``base``."""
    delta = (base - change) if better == "higher" else (change - base)
    if base:
        return delta / abs(base)
    return float("inf") if delta > 0 else 0.0


def compare(base_runs, change_runs, contract):
    """Rows and failures for two sides' runs under a benchmark contract.

    ``base_runs`` and ``change_runs`` map each workload name to its list
    of parsed ``run.py`` results, in pair order; ``contract`` is the
    parsed ``BENCHMARK.json``.  Returns ``(rows, failures)``: one row per
    workload and end-to-end metric, and one message per failed gate.
    """
    rows, failures = [], []
    for workload in (w["name"] for w in contract["workloads"]):
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        base_failed = sum(run["failed"] for run in base)
        change_failed = sum(run["failed"] for run in change)
        if change_failed > base_failed:
            failures.append(f"{workload}: change failed {change_failed} ops, "
                            f"base {base_failed}")
        for metric in contract["end_to_end"]:
            name, better = metric["name"], metric["better"]
            sides = {}
            for side, runs in (("base", base), ("change", change)):
                values = [run["metrics"].get(name, {}).get("value")
                          for run in runs]
                if not values or None in values:
                    failures.append(f"{workload} {name}: missing from {side}")
                    break
                sides[side] = values
            if len(sides) < 2:
                continue
            base_values, change_values = sides["base"], sides["change"]
            base_median = statistics.median(base_values)
            change_median = statistics.median(change_values)
            wins = sum(
                _worse_by(b, c, better) < 0
                for b, c in zip(base_values, change_values)
            )
            rows.append({
                "workload": workload,
                "metric": name,
                "better": better,
                "bound": metric["bound"],
                "base_median": base_median,
                "change_median": change_median,
                "base_iqr": _iqr(base_values),
                "wins": wins,
                "pairs": min(len(base_values), len(change_values)),
            })
            worse = _worse_by(base_median, change_median, better)
            if worse > metric["bound"]:
                failures.append(
                    f"{workload} {name}: change median {change_median:g} "
                    f"is {worse:.1%} worse than base {base_median:g} "
                    f"(bound {metric['bound']:.0%})")
            if name == SIM_METRIC and set(base_values) != set(change_values):
                failures.append(
                    f"{workload} {name}: simulated time differs "
                    f"(base {sorted(set(base_values))}, "
                    f"change {sorted(set(change_values))})")
    return rows, failures


def _run(checkout, workload, seconds):
    """One ``run.py --trace 0`` with ``checkout`` as the program.

    Returns the parsed last stdout line and the exit code.
    """
    proc = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        sys.exit(f"ab: {workload} in {checkout} printed no result "
                 f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")


def _check(args, cwd=ROOT):
    """Run a command that must succeed; returns its stdout."""
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if proc.returncode:
        output = (proc.stderr or proc.stdout).strip()[-500:]
        sys.exit(f"ab: {' '.join(args)} failed: {output}")
    return proc.stdout.strip()


def measure(base_checkout, contract, pairs):
    """Alternating runs of both sides; returns (base, change, exit failures).

    Both ``src/`` trees are byte-compiled first: an app_macro run that
    has to compile its imports peaks about 3 MB (10%) higher, so a
    fresh worktree measured against a checkout with a warm
    ``__pycache__`` would skew ``peak_rss_mb`` toward the warm side.
    """
    seconds = contract["run_seconds"]
    runs = {"base": {}, "change": {}}
    checkouts = {"base": base_checkout, "change": ROOT}
    for checkout in checkouts.values():
        _check([sys.executable, "-m", "compileall", "-q", "src"], checkout)
    exit_failures = []
    for workload in (w["name"] for w in contract["workloads"]):
        for pair in range(pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result, code = _run(checkouts[side], workload, seconds)
                runs[side].setdefault(workload, []).append(result)
                if code:
                    exit_failures.append(
                        f"{workload}: {side} run {pair + 1} exited {code}")
                print(f"# {workload} pair {pair + 1}/{pairs} {side} done",
                      file=sys.stderr, flush=True)
    return runs["base"], runs["change"], exit_failures


def cpu_model():
    """The CPU's model name, as the kernel reports it where it can."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def append_trajectory(line, path=TRAJECTORY):
    """Append one report ``line`` (a JSON string) to ``path``."""
    with open(path, "a") as handle:
        handle.write(line + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git ref of the base commit")
    parser.add_argument("--pairs", type=int, default=10,
                        help="base/change run pairs per workload "
                             "(default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    contract = load_contract()
    base_sha = _check(["git", "rev-parse", "--verify",
                       f"{args.base}^{{commit}}"])
    # The change is this checkout's working tree: its commit, marked
    # "-dirty" when the tree differs from it.
    change_sha = _check(["git", "describe", "--always", "--dirty",
                         "--abbrev=40"])
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        base_checkout = os.path.join(tmp, "base")
        _check(["git", "worktree", "add", "--detach", base_checkout,
                base_sha])
        try:
            base_runs, change_runs, exit_failures = measure(
                base_checkout, contract, args.pairs)
        finally:
            _check(["git", "worktree", "remove", "--force", base_checkout])
    rows, failures = compare(base_runs, change_runs, contract)
    failures = exit_failures + failures
    print(f"{'workload':<14} {'metric':<16} {'base':>12} {'change':>12} "
          f"{'base IQR':>10} {'wins':>6}")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<16} "
              f"{row['base_median']:>12.4f} {row['change_median']:>12.4f} "
              f"{row['base_iqr']:>10.4f} {row['wins']:>3}/{row['pairs']}")
    for failure in failures:
        print(f"# FAILED: {failure}")
    line = json.dumps({"base": base_sha, "change": change_sha,
                       "cpu": cpu_model(),
                       "python": platform.python_version(), "seed": SEED,
                       "pairs": args.pairs, "rows": rows,
                       "failures": failures})
    print(line)
    append_trajectory(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
