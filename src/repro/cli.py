"""Command-line entry point: run any experiment from the shell.

Usage (installed as the ``anception`` script)::

    anception table1              # Table I microbenchmarks
    anception antutu              # Figure 6
    anception sunspider           # Figure 7
    anception sqlite              # Section VI-B sqlite benchmark
    anception memory              # Section VI-C memory overhead
    anception vuln-study          # Section V-B, all 25 CVEs
    anception attack-surface      # Section V-D syscall partition
    anception loc                 # Section V-D lines-of-code accounting
    anception tcb                 # Section V-D Anception TCB
    anception profiledroid        # Section VI-A app profiling
    anception trace table1        # whole-stack trace (Chrome/Perfetto JSON)
    anception metrics table1      # bus metrics + component stats as JSON
    anception chaos fileops --seed 7 --faults PLAN   # fault injection
    anception report t.json       # analyze an exported Chrome trace
    anception snapshot write4k --out world.snap      # warmed world blob
    anception resume world.snap --verify             # restore≡boot check
    anception all                 # everything, in order

Wall-clock speed is measured by the benchmark, ``perfbench/run.py``;
``benchmarks/ab.py <base-ref>`` compares two commits with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _print_json(data):
    print(json.dumps(data, indent=2, default=str))


def cmd_table1(_args):
    from repro.perf.micro import format_table1, run_full_table1

    print(format_table1(run_full_table1()))


def cmd_antutu(_args):
    from repro.perf.macro import format_antutu, run_antutu

    print(format_antutu(run_antutu()))


def cmd_sunspider(_args):
    from repro.perf.macro import format_sunspider, run_sunspider

    print(format_sunspider(run_sunspider()))


def cmd_sqlite(_args):
    from repro.perf.sqlite_bench import run_full_sqlite_bench

    _print_json(run_full_sqlite_bench())


def cmd_memory(_args):
    from repro.perf.memory import headless_vs_full_footprint, run_memory_overhead

    report = run_memory_overhead()
    report["footprints"] = headless_vs_full_footprint()
    _print_json(report)


def cmd_vuln_study(_args):
    from repro.security.vuln_study import (
        format_study_table,
        run_vulnerability_study,
    )

    result = run_vulnerability_study()
    print(format_study_table(result))
    _print_json(result["summary"])


def cmd_attack_surface(_args):
    from repro.security.attack_surface import attack_surface_report

    _print_json(attack_surface_report())


def cmd_loc(_args):
    from repro.security.loc_accounting import loc_report

    _print_json(loc_report())


def cmd_tcb(_args):
    from repro.security.tcb import tcb_report

    _print_json(tcb_report())


def cmd_profiledroid(_args):
    from repro.perf.profiledroid import run_profiledroid

    _print_json(run_profiledroid())


def cmd_interactive(_args):
    from repro.perf.interactive import run_interactive_comparison

    _print_json(run_interactive_comparison())


def cmd_alternatives(_args):
    from repro.core.alternatives import (
        interception_comparison,
        transport_comparison,
    )

    _print_json({
        "interception": interception_comparison(),
        "transport_4kb": transport_comparison(),
    })


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            sys.exit(f"anception: error: cannot write {out_path}: {exc}")
        print(f"wrote {out_path}")
    else:
        print(text)


def _ring_summary(anception):
    """One human line of ring/doorbell state for stderr.

    Counters come from the layer's aggregated ``stats()``, so with a
    multi-CVM pool they are fleet-wide sums (identical to the lone
    channel's numbers at ``cvms=1``).
    """
    stats = anception.stats()["channel"]
    submit = stats.get("submit_ring", {})
    return (
        f"ring: depth={submit.get('depth', 0)}"
        f" max_queued={submit.get('max_depth_seen', 0)}"
        f" submitted={submit.get('pushed', 0)}"
        f" coalesced_doorbells={stats.get('coalesced_doorbells', 0)}"
        f" descriptors_retired={stats.get('descriptors_retired', 0)}"
    )


def _cache_summary(anception):
    """One human line of read-cache state for stderr (or None if off).

    Aggregated across lanes (hit_rate recomputed from the summed
    hit/miss counts) when the pool has more than one CVM.
    """
    stats = anception.stats()["read_cache"]
    if stats is None:
        return None
    return (
        f"read-cache: pages={stats['pages']}/{stats['max_pages']}"
        f" hits={stats['hits']} misses={stats['misses']}"
        f" hit_rate={stats['hit_rate']}"
        f" readahead={stats['readahead_pages']}"
        f" invalidated={stats['invalidated_pages']}"
    )


def _wb_summary(anception):
    """One human line of write-behind state for stderr (or None if off).

    Aggregated across lanes when the pool has more than one CVM.
    """
    stats = anception.stats()["write_behind"]
    if stats is None:
        return None
    return (
        f"write-behind: depth={stats['depth']}"
        f" enqueued={stats['enqueued']} drains={stats['drains']}"
        f" fences={stats['fences']}"
        f" deferred_errors={stats['deferred_errors']}"
        f" max_depth_seen={stats['max_depth_seen']}"
    )


def _binder_summary(anception):
    """One human line of binder-ring state for stderr (or None if off).

    Aggregated across lanes when the pool has more than one CVM.
    """
    stats = anception.stats()["binder_ring"]
    if stats is None:
        return None
    return (
        f"binder-ring: depth={stats['depth']}"
        f" enqueued={stats['enqueued']} drains={stats['drains']}"
        f" fences={stats['fences']}"
        f" deferred_errors={stats['deferred_errors']}"
        f" bulk_parcels={stats['bulk_parcels']}"
        f" max_depth_seen={stats['max_depth_seen']}"
    )


def _knobs(args):
    """The layer knobs the tooling commands boot with.

    Keys are :class:`~repro.core.anception.AnceptionLayer`'s keyword
    arguments, passed through unchanged.  The read cache, write-behind
    and the binder ring are on by default here (each has a ``--no-…``
    flag) and off in the library default.  The window depths keep the
    layer's default (``None``): only library callers size them.
    """
    return {
        "ring_depth": getattr(args, "ring_depth", None),
        "read_cache": not getattr(args, "no_read_cache", False),
        "cache_pages": getattr(args, "cache_pages", None) or 1024,
        "async_delegation": not getattr(args, "no_write_behind", False),
        "write_behind_depth": None,
        "binder_ring": not getattr(args, "no_binder_ring", False),
        "binder_ring_depth": None,
        "cvms": getattr(args, "cvms", None) or 1,
    }


def _pool_summary(anception):
    """Per-CVM stderr lines for multi-lane pools (or None single-lane)."""
    pool = anception.pool
    if len(pool) <= 1:
        return None
    stats = anception.stats()
    pool_stats = stats["pool"]
    lines = [
        f"pool: cvms={pool_stats['cvms']}"
        f" assignments={pool_stats['assignments']}"
        f" flaps={pool_stats['flaps']}"
    ]
    for lane_name, entry in sorted(stats["per_cvm"].items()):
        lines.append(
            f"  {lane_name}: residents={entry['residents']}"
            f" proxies={entry['proxies']}"
            f" transfers={entry['channel']['transfers']}"
            f" reboots={entry['reboots']}"
            + (" CRASHED" if entry["crashed"] else "")
        )
    return "\n".join(lines)


def cmd_trace(args):
    from repro.obs.export import chrome_trace_json, to_ftrace
    from repro.obs.runner import run_traced

    workload = getattr(args, "workload", None) or "table1"
    seed = getattr(args, "seed", 0)
    host_t0 = time.perf_counter_ns()
    try:
        result = run_traced(workload, seed=seed, **_knobs(args))
    except ValueError as exc:
        sys.exit(f"anception: error: {exc}")
    host_ns = time.perf_counter_ns() - host_t0
    fmt = getattr(args, "format", "chrome") or "chrome"
    if fmt == "chrome":
        text = chrome_trace_json(
            result.records, trace_id=result.trace_id, workload=workload
        )
    else:
        text = to_ftrace(
            result.records, trace_id=result.trace_id, workload=workload
        )
    _emit(text, getattr(args, "out", None))
    # Every trace run doubles as a coarse perf probe: total host time
    # (boot + workload) next to the simulated time the workload claims.
    print(
        f"wall-clock: host_ms={host_ns / 1e6:.1f}"
        f" sim_ms={result.elapsed_ns / 1e6:.3f}"
        f" sim/host={result.elapsed_ns / host_ns:.3f}",
        file=sys.stderr,
    )
    for summary in (_ring_summary, _cache_summary, _wb_summary,
                    _binder_summary, _pool_summary):
        lines = summary(result.world.anception)
        if lines is not None:
            print(lines, file=sys.stderr)


def cmd_metrics(args):
    from repro.obs.runner import run_traced

    workload = getattr(args, "workload", None) or "table1"
    seed = getattr(args, "seed", 0)
    try:
        result = run_traced(workload, seed=seed, logcat=False,
                            **_knobs(args))
    except ValueError as exc:
        sys.exit(f"anception: error: {exc}")
    bus = getattr(result.world.clock, "bus", None)
    snapshot = {
        "workload": workload,
        "trace_id": result.trace_id,
        "elapsed_us": result.elapsed_ns / 1000,
        "metrics": result.metrics.snapshot(),
        "stats": result.world.anception.stats(),
        "obs_sink_errors": getattr(bus, "sink_errors", 0),
    }
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    _emit(text, getattr(args, "out", None))


def cmd_chaos(args):
    from repro.faults.chaos import chaos_report_json, run_chaos
    from repro.obs.export import chrome_trace_json, make_trace_id

    workload = getattr(args, "workload", None) or "fileops"
    seed = getattr(args, "seed", 0)
    try:
        result = run_chaos(workload, seed=seed,
                           faults=getattr(args, "faults", None),
                           **_knobs(args))
    except ValueError as exc:
        sys.exit(f"anception: error: {exc}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        text = chrome_trace_json(
            result.records,
            trace_id=make_trace_id(f"chaos-{workload}", seed),
            workload=workload,
        )
        with open(trace_out, "w") as handle:
            handle.write(text)
    _emit(chaos_report_json(result), getattr(args, "out", None))


def cmd_report(args):
    """Offline analysis of an exported Chrome trace (repro.obs.report)."""
    from repro.obs.report import report_json

    path = getattr(args, "workload", None)
    if not path:
        sys.exit(
            "anception: error: report needs a Chrome trace file "
            "(produce one with: anception trace <workload> --out t.json)"
        )
    try:
        with open(path) as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"anception: error: cannot read trace {path}: {exc}")
    _emit(report_json(trace, top=getattr(args, "top", None) or 10),
          getattr(args, "out", None))


def _warm_world(workload, knobs, warmup):
    """A world booted with ``knobs`` after ``warmup`` workload passes."""
    from repro.obs.runner import TRACE_WORKLOADS, boot_obs_world

    fn = TRACE_WORKLOADS[workload]
    world, ctx = boot_obs_world(**knobs)
    target = world if getattr(fn, "needs_world", False) else ctx
    for _ in range(warmup):
        fn(target)
    return world


def cmd_snapshot(args):
    """Boot, warm up, and write a deterministic world snapshot blob."""
    from repro.core.snapshot import describe_snapshot
    from repro.obs.runner import TRACE_WORKLOADS

    workload = getattr(args, "workload", None) or "write4k"
    if workload not in TRACE_WORKLOADS:
        known = ", ".join(sorted(TRACE_WORKLOADS))
        sys.exit(
            f"anception: error: unknown workload {workload!r} "
            f"(known: {known})"
        )
    knobs = _knobs(args)
    warmup = getattr(args, "warmup", None) or 0
    host_t0 = time.perf_counter_ns()
    world = _warm_world(workload, knobs, warmup)
    blob = world.snapshot(meta={"workload": workload, "warmup": warmup,
                                "knobs": knobs})
    out = getattr(args, "out", None) or "world.snap"
    try:
        with open(out, "wb") as handle:
            handle.write(blob)
    except OSError as exc:
        sys.exit(f"anception: error: cannot write {out}: {exc}")
    host_ms = (time.perf_counter_ns() - host_t0) / 1e6
    info = describe_snapshot(blob)
    print(
        f"wrote {out}: {len(blob)} bytes"
        f" digest={info['digest'][:16]}"
        f" workload={workload} warmup={warmup}"
        f" host_ms={host_ms:.1f}",
        file=sys.stderr,
    )


def cmd_resume(args):
    """Restore a snapshot, run its recorded workload warm, optionally
    verify restore≡boot digest equality against a straight run."""
    from repro.core.snapshot import snapshot_meta, world_digest
    from repro.errors import SnapshotError
    from repro.obs.runner import run_traced
    from repro.world import _World

    path = getattr(args, "workload", None)
    if not path:
        sys.exit(
            "anception: error: resume needs a snapshot file "
            "(produce one with: anception snapshot --out world.snap)"
        )
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        sys.exit(f"anception: error: cannot read snapshot {path}: {exc}")
    try:
        meta = snapshot_meta(blob)
        host_t0 = time.perf_counter_ns()
        world = _World.restore(blob)
        restore_ms = (time.perf_counter_ns() - host_t0) / 1e6
    except SnapshotError as exc:
        sys.exit(f"anception: error: {exc}")
    workload = meta.get("workload", "write4k")
    seed = getattr(args, "seed", 0)
    result = run_traced(workload, seed=seed, world=world)
    print(
        f"resumed {path}: workload={workload}"
        f" restore_ms={restore_ms:.1f}"
        f" sim_ms={result.elapsed_ns / 1e6:.3f}",
        file=sys.stderr,
    )
    if not getattr(args, "verify", False):
        return
    # Straight-through control: fresh boot + the recorded warmup + the
    # same traced run.  Restore≡boot means the digests match exactly.
    fresh = _warm_world(workload, meta.get("knobs", {}),
                        meta.get("warmup", 0))
    run_traced(workload, seed=seed, world=fresh)
    resumed_digest = world_digest(world)
    straight_digest = world_digest(fresh)
    if resumed_digest != straight_digest:
        sys.exit(
            "anception: error: resume=boot verification failed: "
            f"resumed {resumed_digest[:16]} != straight "
            f"{straight_digest[:16]}"
        )
    print(f"verify: resume=boot digest {resumed_digest[:16]} ok",
          file=sys.stderr)


COMMANDS = {
    "table1": cmd_table1,
    "antutu": cmd_antutu,
    "sunspider": cmd_sunspider,
    "sqlite": cmd_sqlite,
    "memory": cmd_memory,
    "vuln-study": cmd_vuln_study,
    "attack-surface": cmd_attack_surface,
    "loc": cmd_loc,
    "tcb": cmd_tcb,
    "profiledroid": cmd_profiledroid,
    "interactive": cmd_interactive,
    "alternatives": cmd_alternatives,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "chaos": cmd_chaos,
    "report": cmd_report,
    "snapshot": cmd_snapshot,
    "resume": cmd_resume,
}

WORKLOAD_COMMANDS = ("trace", "metrics", "chaos", "report", "snapshot",
                     "resume")
"""Workload/artifact commands skipped by ``all`` (trace/metrics/chaos
take a traced-workload positional, report takes a trace file,
snapshot takes a workload and resume a blob path)."""


def cmd_all(args):
    for name, command in COMMANDS.items():
        if name in WORKLOAD_COMMANDS:
            continue
        print(f"\n===== {name} =====")
        command(args)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anception",
        description="Anception (DSN 2015) reproduction experiments",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["all"],
        help="experiment to run",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="traced workload for trace/metrics (default: table1)",
    )
    parser.add_argument(
        "--format",
        choices=("chrome", "ftrace"),
        default="chrome",
        help="trace output format (trace command only)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write output to this file instead of stdout",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed mixed into the deterministic trace_id",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="fault plan for the chaos command, e.g. "
             "'cvm.crash:nth=3:call=open;channel.corrupt:p=0.05'",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="also write the chaos run's Chrome trace to this file",
    )
    parser.add_argument(
        "--no-read-cache",
        action="store_true",
        help="disable the host-side page cache for delegated reads "
             "(trace/metrics/chaos commands; the cache is on by default)",
    )
    parser.add_argument(
        "--cache-pages",
        type=int,
        default=1024,
        help="capacity of the host-side read cache in 4096B pages "
             "(default: 1024)",
    )
    parser.add_argument(
        "--no-write-behind",
        action="store_true",
        help="disable async write-behind delegation windows "
             "(trace/metrics/chaos commands; write-behind is on by "
             "default there, off in the library default)",
    )
    parser.add_argument(
        "--no-binder-ring",
        action="store_true",
        help="disable batched binder delegation windows "
             "(trace/metrics/chaos commands; the binder ring is on by "
             "default there, off in the library default)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many top-self-time spans the report command keeps "
             "(default: 10)",
    )
    parser.add_argument(
        "--ring-depth",
        type=int,
        default=None,
        help="override the delegation rings' depth (default: derived "
             "from the channel's shared-page budget)",
    )
    parser.add_argument(
        "--cvms",
        type=int,
        default=1,
        help="number of container VMs in the pool "
             "(trace/metrics/chaos/snapshot commands; default: 1)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="workload passes to run before writing the blob "
             "(snapshot command; default: 1)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="after resuming, re-run the whole sequence from a fresh "
             "boot and fail unless the world digests match exactly "
             "(resume command)",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "all":
            cmd_all(args)
        else:
            COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `anception trace | head`);
        # exit quietly like any well-behaved unix filter.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
