"""The fleet workload: many small apps sharded across the CVM pool.

A single enrolled app exercises one lane of the delegation transport;
the fleet exercises the *pool*: dozens of tiny apps (mixed file,
binder, and fence traffic) placed on lanes by their uid hash and
driven round-robin.  The traffic shape is deliberately async-heavy —
per-round write bursts stage into write-behind windows and binder
oneways into batched binder windows, with fences only at the end — so
each lane's drains accrue to its *own* overlap cursor on the simulated
clock and pool sizes larger than one genuinely overlap.  This is the
workload behind :mod:`repro.perf.fleet_bench` and its 1/2/4/8-CVM
scaling curve.

Everything is deterministic: app populations, per-app payloads, and the
order of operations are pure functions of ``(apps, rounds, seed)``, and
each app folds the bytes it reads back into a crc32 digest — the
differential harnesses compare those digests across pool sizes, where
they must be identical (routing changes *where* work
runs, never *what* it computes).
"""

from __future__ import annotations

from zlib import crc32

from repro.android.app import App, AppManifest
from repro.kernel import vfs as _vfs


class FleetApp(App):
    """One member of the fleet: a minimal enrolled app.

    The launch-phase ``main`` only stamps the app's identity file; all
    interesting traffic is driven by :func:`run_fleet` so rounds from
    different apps (and therefore different lanes) interleave.
    """

    def __init__(self, index):
        self._manifest = AppManifest(f"com.fleet.app{index:03d}")
        self.index = index

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        ctx.libc.write_file(ctx.data_path("identity.txt"),
                            f"fleet member {self.index}".encode())
        return {"index": self.index}


def _payload(index, rnd, burst, size):
    """Deterministic per-(app, round, burst-slot) payload bytes."""
    stamp = f"fleet:{index}:{rnd}:{burst};".encode()
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def run_fleet(world, apps=24, rounds=8, writes_per_round=8, payload=1024,
              binder_per_round=4, seed=0):
    """Install, launch, and drive a fleet of apps; returns a summary.

    Each round, every app appends a burst of deterministic payloads to
    its private stream file (staged into its lane's write-behind
    windows, no fence) and fires a burst of batched oneway binder
    transactions.  Burst sizes are meant to *fill* the bench world's
    window depths, so drains trigger mid-round and charge each lane's
    overlap cursor while the host keeps feeding the other lanes — the
    source of the multi-CVM scaling curve.  Only after the last round
    does each app fence and read its stream's head and tail back,
    folding the bytes into its digest.  The returned summary carries
    per-app digests (for differential pinning) and the issued syscall
    count (for the scaling curve's throughput numerator).
    """
    members = []
    for index in range(apps):
        running = world.install_and_launch(FleetApp(index))
        running.run()
        members.append(running)

    syscalls = 3 * apps  # each launch-phase write_file: open+write+close
    streams = {}
    for running in members:
        ctx = running.ctx
        fd = ctx.libc.open(ctx.data_path("stream.bin"),
                           _vfs.O_RDWR | _vfs.O_CREAT | _vfs.O_TRUNC)
        streams[running.app.index] = fd
        syscalls += 1

    for rnd in range(rounds):
        for running in members:
            index = running.app.index
            ctx = running.ctx
            fd = streams[index]
            for burst in range(writes_per_round):
                ctx.libc.write(fd, _payload(index + seed, rnd, burst,
                                            payload))
            syscalls += writes_per_round
            for burst in range(binder_per_round):
                ctx.call_service_oneway("location", "get_fix",
                                        {"member": index, "round": rnd,
                                         "burst": burst})
            syscalls += binder_per_round

    total = rounds * writes_per_round * payload
    digests = {}
    for running in members:
        index = running.app.index
        ctx = running.ctx
        fd = streams[index]
        ctx.libc.fence(fd)
        head = ctx.libc.pread(fd, payload, 0)
        tail = ctx.libc.pread(fd, payload, total - payload)
        ctx.libc.close(fd)
        syscalls += 4
        digests[index] = crc32(tail, crc32(head))
    for running in members:
        running.ctx.libc.fence()
        syscalls += 1
    return {
        "apps": apps,
        "rounds": rounds,
        "syscalls": syscalls,
        "digests": {index: digests[index] for index in sorted(digests)},
        "fleet_digest": crc32(
            ",".join(f"{index}:{digests[index]:08x}"
                     for index in sorted(digests)).encode()
        ),
    }


def workload_fleet(world):
    """The trace-runner entry point (takes the world, not one app ctx)."""
    return run_fleet(world)


workload_fleet.needs_world = True
