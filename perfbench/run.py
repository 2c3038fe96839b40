"""The simulator's benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload sync_redirect --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped: a
census pass counts host-kernel syscalls, then timed passes replay the
same seeded stream on a fresh world each until ``--seconds`` have gone
by.  ``--trace 1`` measures the per-layer metrics: rounds of one plain
pass, one pass with every layer's entry points wrapped (see
``tracer.py``), and one pass with a ``TraceBus`` capture and a
``MetricsRegistry`` subscribed.  Wall times are scaled to one reference
speed by a calibration kernel timed around every block of iterations
(see ``calibrate.py``); simulated times are exact.

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it print every
metric by name with its unit, and the run's provenance.  The full result
-- provenance, every pass, failures and the pin record -- is written to
``.perfbench_out/`` in the current directory, next to the spans of the
last traced pass.  Any failed op, output check, determinism check or pin
makes the command exit 1.  ``pins.json`` holds the default seed's
simulated numbers; after a deliberate change to simulated behaviour,
copy the ``pin_record`` of a default-seed ``--trace 1`` result into it.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibrate import REFERENCE_NS, kernel_ns

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_PASSES = 5
BLOCK_NS = 10_000_000
"""Iterations are scaled in blocks of at least this much wall time."""


def _load(name):
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def _import_program():
    """Put ``./src`` on the path; exit 2 when the checkout has none."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no src/repro in the current directory; run from "
              "the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


# -- passes -------------------------------------------------------------------

class Pass:
    """What one pass over the stream measured."""

    def __init__(self, setup_ns, iter_ns, raw_ns, sim_ns, state):
        self.setup_ns = setup_ns
        self.iter_ns = iter_ns
        self.raw_ns = raw_ns
        self.sim_ns = sim_ns
        self.attempted = state.attempted
        self.failed = state.failed
        self.failures = state.failures
        self.stats = None
        self.host_syscalls = None
        self.spans = None

    @property
    def wall_ns(self):
        return sum(self.iter_ns)


class HostSyscallCounter:
    """Counts host-kernel syscall entries for the census pass."""

    def __init__(self, world):
        self.host = world.machine.kernel
        self.count = 0
        self._original = None

    def __enter__(self):
        from repro.kernel.kernel import Kernel

        original = self._original = Kernel.__dict__["syscall"]
        host = self.host

        def counted(kernel, *args, **kwargs):
            if kernel is host:
                self.count += 1
            return original(kernel, *args, **kwargs)

        Kernel.syscall = counted
        return self

    def __exit__(self, exc_type, exc, tb):
        from repro.kernel.kernel import Kernel

        Kernel.syscall = self._original
        return False


def run_pass(workload, stream, mode="plain"):
    """Set up a fresh world and run every iteration of ``stream``.

    ``mode``: ``plain`` (nothing wrapped; also reads component stats
    before and after the iterations), ``census`` (counts host syscalls),
    ``traced`` (layer wrappers on) or ``bus`` (one TraceBus capture per
    iteration, a MetricsRegistry subscribed).
    """
    from tracer import Tracer

    gc.collect()
    speed = Speed()
    start = time.perf_counter_ns()
    state = workload.setup(stream)
    setup_ns = speed.scale([time.perf_counter_ns() - start])[0]
    clock = state.clock
    before = state.world.anception.stats() if mode == "plain" else None
    iter_ns = []
    capture = None
    if mode == "census":
        scope = HostSyscallCounter(state.world)
    elif mode == "traced":
        scope = Tracer(state.world)
    else:
        scope = _Nothing()
    if mode == "bus":
        from repro.obs.bus import TraceBus
        from repro.obs.metrics import MetricsRegistry

        bus = TraceBus.install(clock)
        registry = MetricsRegistry()
        bus.subscribe(registry.observe_record)
        capture = bus.capture
    block = []
    raw_ns = 0
    sim_start = clock.now_ns
    with scope:
        for ops in stream.iterations:
            began = time.perf_counter_ns()
            if capture is None:
                workload.run(state, ops)
            else:
                with capture():
                    workload.run(state, ops)
            block.append(time.perf_counter_ns() - began)
            if sum(block) >= BLOCK_NS:
                raw_ns += sum(block)
                iter_ns.extend(speed.scale(block))
                block = []
        if block:
            raw_ns += sum(block)
            iter_ns.extend(speed.scale(block))
    sim_ns = clock.now_ns - sim_start
    if mode == "bus":
        bus.unsubscribe(registry.observe_record)
    result = Pass(setup_ns, iter_ns, raw_ns, sim_ns, state)
    if before is not None:
        result.stats = (before, state.world.anception.stats())
    if mode == "census":
        result.host_syscalls = scope.count
    elif mode == "traced":
        result.spans = scope.spans
    workload.finish(state)
    result.attempted, result.failed = state.attempted, state.failed
    return result


class Speed:
    """Scales wall times to the reference speed of ``calibrate``.

    :meth:`mark` times the calibration kernel; :meth:`scale` times it
    again and scales the wall times measured since the previous mark by
    ``REFERENCE_NS`` over the mean of the two kernel times.
    """

    def __init__(self):
        self.mark()

    def mark(self):
        self._last = kernel_ns()
        return self._last

    def scale(self, walls):
        before, after = self._last, self.mark()
        factor = REFERENCE_NS * 2 / (before + after)
        return [wall * factor for wall in walls]


class _Nothing:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


def _percentile(values, q):
    """Linear-interpolated percentile of ``values`` (0 < q < 100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Checks:
    """Run-level checks: each miss is one failed attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- trace 0: end to end ------------------------------------------------------

def measure_end_to_end(workload, stream, seconds, pin, checks):
    census = run_pass(workload, stream, "census")
    passes = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
        passes.append(run_pass(workload, stream))
    for index, one in enumerate(passes):
        checks.check(one.sim_ns == census.sim_ns,
                     f"pass {index} reached {one.sim_ns} ns simulated, the "
                     f"census pass {census.sim_ns}: not deterministic")
    if pin is not None:
        checks.check(census.sim_ns == pin["sim_ns"],
                     f"sim_ns {census.sim_ns} != pinned {pin['sim_ns']}")
    iterations = len(stream.iterations)
    # Every pass does identical work, so iteration i has one (scaled)
    # sample per pass; its time is the median of those samples, and the
    # percentiles are taken over the iterations of one pass.
    per_iter = [statistics.median(samples)
                for samples in zip(*(p.iter_ns for p in passes))]
    wall_s = sum(per_iter) / 1e9
    metrics = {
        "syscalls_per_s": (census.host_syscalls / wall_s, "1/s"),
        "iter_ms_p50": (statistics.median(per_iter) / 1e6, "ms"),
        "iter_ms_p90": (_percentile(per_iter, 90) / 1e6, "ms"),
        "sim_ms_per_iter": (census.sim_ns / iterations / 1e6, "ms"),
        "setup_s": (statistics.median(p.setup_ns for p in passes) / 1e9,
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "iteration_samples": len(per_iter),
        "host_syscalls_per_pass": census.host_syscalls,
        "sim_ns_per_pass": census.sim_ns,
        "setup_ms": [round(p.setup_ns / 1e6, 3) for p in passes],
        "pass_wall_ms": [round(p.wall_ns / 1e6, 3) for p in passes],
        "iter_ms": [round(ns / 1e6, 4) for ns in per_iter],
    }
    return metrics, [census] + passes, detail


# -- trace 1: per layer -------------------------------------------------------

def ratios(stats, host_syscalls):
    """The five component ratios from ``stats()`` around the iterations."""
    before, after = stats

    def moved(section, key):
        if before.get(section) is None:
            return 0
        return after[section][key] - before[section][key]

    doorbells = moved("channel", "hypercalls") + moved("channel",
                                                        "interrupts")
    looked = moved("read_cache", "hits") + moved("read_cache", "misses")
    drains = moved("write_behind", "drains") + moved("binder_ring", "drains")
    entries = moved("write_behind", "enqueued") + moved("binder_ring",
                                                        "enqueued")
    moved_bytes = (moved("channel", "bytes_to_guest")
                   + moved("channel", "bytes_to_host"))
    return {
        "core.page_cache.hit_ratio": (
            moved("read_cache", "hits") / looked if looked else 0.0,
            "ratio"),
        "hypervisor.lguest.doorbells_per_ksyscall": (
            doorbells * 1000 / host_syscalls, "1/ksyscall"),
        "core.ring.descriptors_per_doorbell": (
            moved("channel", "descriptors_retired") / doorbells
            if doorbells else 0.0, "descs/doorbell"),
        "core.channel.bytes_per_syscall": (moved_bytes / host_syscalls,
                                           "bytes/syscall"),
        "core.anception.windows.entries_per_drain": (
            entries / drains if drains else 0.0, "entries/drain"),
    }


def measure_layers(workload, stream, seconds, pin, checks):
    from tracer import LAYER_NAMES, Tracer, self_times

    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        plain = run_pass(workload, stream, "plain")
        traced = run_pass(workload, stream, "traced")
        checks.check(not Tracer.leftovers(),
                     f"wrapped attributes left behind: {Tracer.leftovers()}")
        bus = run_pass(workload, stream, "bus")
        split = self_times(traced.spans, traced.raw_ns, traced.sim_ns)
        spans, traced.spans = traced.spans, None
        rounds.append((plain, traced, bus, split))
    iterations = len(stream.iterations)
    first = rounds[0][3]
    for plain, traced, bus, split in rounds:
        checks.check(traced.sim_ns == plain.sim_ns,
                     f"traced pass sim {traced.sim_ns} ns != untraced "
                     f"{plain.sim_ns} ns: the wrappers moved the clock")
        checks.check(bus.sim_ns == plain.sim_ns,
                     f"bus pass sim {bus.sim_ns} ns != untraced "
                     f"{plain.sim_ns} ns")
        checks.check(sum(split["self_sim_ns"]) + split["unattributed_sim_ns"]
                     == traced.sim_ns and min(split["self_sim_ns"]) >= 0
                     and split["unattributed_sim_ns"] >= 0,
                     "layer sim self times do not sum to the pass's sim time")
        checks.check((split["calls"], split["self_sim_ns"])
                     == (first["calls"], first["self_sim_ns"]),
                     "layer calls or sim times differ between traced passes")
    pin_record = {
        "iterations": iterations,
        "sim_ns": rounds[0][0].sim_ns,
        "layers": {name: [first["calls"][i], first["self_sim_ns"][i]]
                   for i, name in enumerate(LAYER_NAMES)},
    }
    if pin is not None:
        checks.check(pin_record == pin,
                     "layer calls / sim times differ from pins.json: "
                     + _pin_diff(pin, pin_record))
    host_syscalls = first["calls"][LAYER_NAMES.index("kernel.host")]
    traced_wall = statistics.fmean(r[1].wall_ns for r in rounds)
    self_wall = [statistics.fmean(r[3]["self_wall_ns"][i] * r[1].wall_ns
                                  / r[1].raw_ns for r in rounds)
                 for i in range(len(LAYER_NAMES))]
    metrics = {}
    for i, name in enumerate(LAYER_NAMES):
        metrics[f"{name}.calls"] = (first["calls"][i] / iterations,
                                    "calls/iter")
        metrics[f"{name}.self_ms"] = (self_wall[i] / iterations / 1e6,
                                      "ms/iter")
        metrics[f"{name}.share"] = (self_wall[i] / traced_wall, "ratio")
        metrics[f"{name}.sim_ms"] = (first["self_sim_ns"][i] / iterations
                                     / 1e6, "sim_ms/iter")
    metrics["trace.unattributed_sim_ms"] = (
        first["unattributed_sim_ns"] / iterations / 1e6, "sim_ms/iter")
    metrics.update(ratios(rounds[0][0].stats, host_syscalls))
    metrics["trace.overhead_ratio"] = (statistics.median(
        r[1].wall_ns / r[0].wall_ns for r in rounds), "ratio")
    metrics["trace.unattributed_share"] = (statistics.fmean(
        r[3]["unattributed_wall_ns"] / r[1].raw_ns for r in rounds), "ratio")
    metrics["obs.bus.overhead_ratio"] = (statistics.median(
        r[2].wall_ns / r[0].wall_ns for r in rounds), "ratio")
    detail = {
        "rounds": len(rounds),
        "sim_ns_per_pass": rounds[0][0].sim_ns,
        "spans_per_traced_pass": len(spans),
        "pin_record": pin_record,
    }
    passes = [p for r in rounds for p in r[:3]]
    return metrics, passes, detail, spans


def _pin_diff(pin, got):
    if pin.get("sim_ns") != got["sim_ns"] or \
            pin.get("iterations") != got["iterations"]:
        return f"sim_ns {got['sim_ns']} vs {pin.get('sim_ns')}"
    moved = [name for name, value in got["layers"].items()
             if pin.get("layers", {}).get(name) != value]
    return ", ".join(moved)


# -- provenance and output ----------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout's git directory, or ``unknown`` without one."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, iterations):
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "iterations_per_pass": iterations,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    design = _load("design.json")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]()
    pin = None
    if args.seed == design["seeds"]["default"]:
        pin = _load("pins.json")[args.workload]
    stream = workload.generate(args.seed)
    checks = Checks()
    spans = None
    if args.trace:
        metrics, passes, detail, spans = measure_layers(
            workload, stream, args.seconds, pin, checks)
    else:
        metrics, passes, detail = measure_end_to_end(
            workload, stream, args.seconds, pin, checks)
    attempted = sum(p.attempted for p in passes) + checks.attempted
    failed = sum(p.failed for p in passes) + len(checks.failures)
    failures = checks.failures + [f for p in passes for f in p.failures]
    info = provenance(args, len(stream.iterations))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({"provenance": info, "result": result, "detail": detail,
                   "error_rate": failed / attempted,
                   "failures": failures[:50]}, handle, indent=2)
    if spans is not None:
        spans.write(stem + ".spans")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# " + " ".join(f"{k}={v}" for k, v in detail.items()
                          if not isinstance(v, (dict, list))))
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("iter_ms"):
            note = (f"  (n={detail['iteration_samples']} iterations, each "
                    f"the median of {detail['passes']} passes)")
        print(f"{name:<44} {value:>16.6f} {unit}{note}")
    print(f"{'error_rate':<44} {failed / attempted:>16.6f} "
          f"failed/attempted  ({failed}/{attempted})")
    for failure in failures[:10]:
        print(f"# FAILED: {failure}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
