"""Fleet-scaling benchmark: aggregate throughput across the CVM pool.

:func:`run_fleet_bench` runs the deterministic fleet workload (see
:mod:`repro.workloads.fleet`) against pools of 1/2/4/8 container VMs
and reports the aggregate *simulated* syscalls per simulated second at
each pool size.  Every number is deterministic — pool scaling comes
from the overlap lanes of the simulated clock (each CVM drains its
write-behind and binder windows on its own cursor), so the curve
reproduces exactly on any machine and a test can gate on it without a
committed baseline (``benchmarks/test_e14_fleet_bench.py``).

Three gates, all from one report (:func:`check_fleet`):

* **monotone curve** — aggregate throughput must not drop as CVMs are
  added (1 -> 2 -> 4 -> 8);
* **scaling floor** — 4 CVMs must deliver at least
  :data:`DEFAULT_MIN_SPEEDUP` (1.5x) the single-CVM throughput;
* **crash isolation** — killing 1 of 4 CVMs mid-fleet must fail *only*
  the victim lane's apps; every sibling lane's apps keep issuing
  delegated calls that return correct bytes.

The workload digests double as a differential pin: every pool size must
produce the identical ``fleet_digest`` (routing changes *where* work
runs, never *what* it computes).
"""

from __future__ import annotations

from repro.errors import SyscallError
from repro.kernel import vfs as _vfs
from repro.workloads.fleet import FleetApp, run_fleet
from repro.world import AnceptionWorld


DEFAULT_CURVE = (1, 2, 4, 8)
"""Pool sizes swept for the scaling curve."""

DEFAULT_APPS = 48
"""Fleet population per sweep point."""

DEFAULT_ROUNDS = 8
"""Rounds of per-app traffic."""

DEFAULT_MIN_SPEEDUP = 1.5
"""Gate: 4-CVM aggregate throughput must reach this multiple of the
single-CVM number."""


def _boot(cvms, placement):
    # Window depths sized so the fleet's per-round bursts fill (and
    # therefore drain) mid-round: drains charged to each lane's overlap
    # cursor while the host keeps feeding the other lanes is where the
    # multi-CVM scaling comes from.  Fence-time drains would serialize.
    return AnceptionWorld(cvms=cvms, placement=placement, read_cache=True,
                          async_delegation=True, write_behind_depth=8,
                          binder_ring=True, binder_ring_depth=4)


def bench_pool_size(cvms, apps=DEFAULT_APPS, rounds=DEFAULT_ROUNDS,
                    placement="by-uid"):
    """One sweep point: the fleet against a ``cvms``-lane pool."""
    world = _boot(cvms, placement)
    sim0 = world.clock.now_ns
    summary = run_fleet(world, apps=apps, rounds=rounds)
    sim_ns = world.clock.now_ns - sim0
    rate = summary["syscalls"] / (sim_ns / 1e9) if sim_ns else 0.0
    pool = world.anception.pool
    return {
        "cvms": cvms,
        "apps": apps,
        "rounds": rounds,
        "syscalls": summary["syscalls"],
        "sim_ms": round(sim_ns / 1e6, 3),
        "syscalls_per_sim_sec": round(rate, 1),
        "fleet_digest": summary["fleet_digest"],
        "residents": pool.stats()["residents"],
    }


def crash_isolation_probe(apps=DEFAULT_APPS, placement="by-uid"):
    """Kill 1 of 4 CVMs mid-fleet; report the blast radius.

    Launches the fleet on a 4-lane pool, panics the busiest lane's
    kernel, then drives one more file round-trip through every app:
    victim-lane apps must fail with a well-defined errno, sibling-lane
    apps must read back exactly what they wrote.
    """
    world = _boot(4, placement)
    members = []
    for index in range(apps):
        running = world.install_and_launch(FleetApp(index))
        running.run()
        members.append(running)
    pool = world.anception.pool

    loads = pool.load_by_lane()
    victim = pool.lanes[max(range(len(loads)), key=lambda i: loads[i])]
    victim_pids = set(pool.pids_on(victim))
    try:
        victim.cvm.kernel.panic("fleet isolation probe")
    except Exception:
        pass

    failed, survived, wrong = [], [], []
    for running in members:
        ctx = running.ctx
        payload = f"post-crash {running.app.index}".encode()
        path = ctx.data_path("isolation.bin")
        try:
            fd = ctx.libc.open(path, _vfs.O_RDWR | _vfs.O_CREAT)
            ctx.libc.write(fd, payload)
            ctx.libc.fence(fd)
            back = ctx.libc.pread(fd, len(payload), 0)
            ctx.libc.close(fd)
            if back != payload:
                wrong.append(running.pid)
            else:
                survived.append(running.pid)
        except SyscallError:
            failed.append(running.pid)

    return {
        "cvms": 4,
        "apps": apps,
        "victim": victim.name,
        "victim_residents": len(victim_pids),
        "failed": len(failed),
        "survived": len(survived),
        "corrupt": len(wrong),
        "isolated": (
            not wrong
            and set(failed) == victim_pids
            and len(survived) == apps - len(victim_pids)
        ),
    }


def run_fleet_bench():
    """The default sweep plus the isolation probe, as one report."""
    points = [bench_pool_size(cvms) for cvms in DEFAULT_CURVE]
    base = points[0]["syscalls_per_sim_sec"] or 1.0
    for point in points:
        point["speedup"] = round(point["syscalls_per_sim_sec"] / base, 3)
    return {"scaling": points, "isolation": crash_isolation_probe()}


def check_fleet(report, floor=DEFAULT_MIN_SPEEDUP):
    """Failure strings for every gate the report misses."""
    failures = []
    points = report.get("scaling", [])

    digests = {point["fleet_digest"] for point in points}
    if len(digests) > 1:
        failures.append(
            "fleet digests diverge across pool sizes: "
            + ", ".join(f"{p['cvms']}cvm={p['fleet_digest']:08x}"
                        for p in points)
        )

    for earlier, later in zip(points, points[1:]):
        if later["syscalls_per_sim_sec"] < earlier["syscalls_per_sim_sec"]:
            failures.append(
                f"curve not monotone: {later['cvms']} CVMs "
                f"({later['syscalls_per_sim_sec']:.0f}/s) slower than "
                f"{earlier['cvms']} CVMs "
                f"({earlier['syscalls_per_sim_sec']:.0f}/s)"
            )

    by_cvms = {point["cvms"]: point for point in points}
    if 1 in by_cvms and 4 in by_cvms:
        speedup = by_cvms[4]["speedup"]
        if speedup < floor:
            failures.append(
                f"4-CVM speedup {speedup:.2f}x below the {floor:.2f}x floor"
            )

    isolation = report.get("isolation", {})
    if not isolation.get("isolated", False):
        failures.append(
            "crash isolation failed: victim "
            f"{isolation.get('victim')} took "
            f"{isolation.get('failed')} apps down with "
            f"{isolation.get('survived')} survivors and "
            f"{isolation.get('corrupt')} corrupt reads "
            f"(victim residents: {isolation.get('victim_residents')})"
        )
    return failures
