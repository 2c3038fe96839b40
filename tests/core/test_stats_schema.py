"""The ``stats()`` schema is a fixed point.

The benchmark's component ratios, the bench JSON and the CLI summaries
read ``stats()["write_behind"]``, ``stats()["binder_ring"]``, the
``pool`` block and the ``per_cvm`` entries by key.  One fixed async +
binder script, with a reorder, a drop and a write-behind error
injected, must reproduce the dicts below exactly — values, keys and key
order — at one CVM and at four; ``per_cvm`` is present at both.  The
window dicts were captured on the two-copy window code that predates
the shared deferred-window primitive.
"""

import pytest

from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.obs.runner import _iterate, boot_obs_world


WRITE_BEHIND = {
    "depth": 32, "enqueued": 49, "drains": 2, "fences": 1,
    "deferred_errors": 1, "pending": 1, "max_depth_seen": 32,
}
BINDER_RING = {
    "depth": 32, "enqueued": 12, "drains": 1, "fences": 1,
    "deferred_errors": 1, "bulk_parcels": 0, "dropped": 1, "reordered": 1,
    "pending": 0, "max_depth_seen": 12,
}


def _ring(pushed=0, max_depth=0, deferred=0, binder=0):
    return {
        "depth": 64, "queued": 0, "pushed": pushed, "popped": pushed,
        "max_depth_seen": max_depth, "out_of_order": 0,
        "deferred_pushed": deferred, "binder_pushed": binder,
    }


def _lane(busy):
    """One ``per_cvm`` entry: the app's lane, or an idle sibling."""
    return {
        "residents": int(busy),
        "proxies": int(busy),
        "crashed": False,
        "reboots": 0,
        "channel": {
            "transfers": 66 if busy else 0,
            "bytes_to_guest": 83840 if busy else 0,
            "bytes_to_host": 187 if busy else 0,
            "bulk_chunks": 51 if busy else 0,
            "hypercalls": 5 if busy else 0,
            "interrupts": 5 if busy else 0,
            "integrity_failures": 0,
            "submit_ring": (_ring(33, 16, 20, 11) if busy else _ring()),
            "complete_ring": (_ring(33, 16) if busy else _ring()),
            "coalesced_doorbells": 6 if busy else 0,
            "descriptors_retired": 66 if busy else 0,
        },
        "read_cache": {
            "pages": 0, "max_pages": 1024, "files": 0, "hits": 0,
            "misses": 0, "hit_rate": 0.0, "fill_pages": 0,
            "readahead_pages": 0, "write_through_pages": 0,
            "invalidated_pages": 0, "evicted_pages": 0,
        },
        "write_behind": (WRITE_BEHIND if busy else {
            "depth": 32, "enqueued": 0, "drains": 0, "fences": 0,
            "deferred_errors": 0, "pending": 0, "max_depth_seen": 0,
        }),
        "binder_ring": (BINDER_RING if busy else {
            "depth": 32, "enqueued": 0, "drains": 0, "fences": 0,
            "deferred_errors": 0, "bulk_parcels": 0, "dropped": 0,
            "reordered": 0, "pending": 0, "max_depth_seen": 0,
        }),
    }


PER_CVM = {name: _lane(name == "cvm2")
           for name in ("cvm", "cvm1", "cvm2", "cvm3")}

TOP_LEVEL = (
    "decisions", "proxies", "blocked_calls", "killed_apps", "channel",
    "read_cache", "write_behind", "binder_ring", "cvm_crashed",
    "cvm_reboots", "recoveries", "pool", "per_cvm",
)
SCALARS = {
    "decisions": {"redirect": 51, "host": 1, "split": 13},
    "proxies": 1, "blocked_calls": 0, "killed_apps": 0,
    "cvm_crashed": False, "cvm_reboots": 0, "recoveries": 0,
}


def _pool(residents):
    return {
        "cvms": len(residents), "assignments": 1, "flaps": 0,
        "residents": residents,
    }


POOL = {
    1: _pool({"cvm": 1}),
    4: _pool({"cvm": 0, "cvm1": 0, "cvm2": 1, "cvm3": 0}),
}


def _ordered(value):
    """Nested dicts as (key, value) lists, so key order is compared."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    return value


def _run_script(cvms):
    world, ctx = boot_obs_world(read_cache=True, async_delegation=True,
                                binder_ring=True, cvms=cvms)
    engine = FaultEngine("binder.reorder:nth=1;binder.drop:nth=3;"
                         "wb.error:nth=5", seed=0)
    engine.arm(world.clock)
    try:
        for workload in ("writeburst", "binderburst"):
            # Each workload ends in a fence, which surfaces its fault.
            with pytest.raises(SyscallError):
                _iterate(ctx, workload, 1)
    finally:
        engine.disarm()
    libc = ctx.libc
    fd = libc.open(ctx.data_path("schema.bin"), 0o102, 0o600)
    libc.write(fd, b"pending")
    return world.anception.stats()


@pytest.mark.parametrize("cvms", [1, 4])
def test_window_stats_schema_is_pinned(cvms):
    stats = _run_script(cvms)
    assert _ordered(stats["write_behind"]) == _ordered(WRITE_BEHIND)
    assert _ordered(stats["binder_ring"]) == _ordered(BINDER_RING)
    if cvms == 1:
        # One schema at every pool size: the single lane gets its own
        # per_cvm entry, and the general merge of one lane returns that
        # lane's values unchanged.
        assert _ordered(stats["per_cvm"]) == _ordered({"cvm": _lane(True)})
        for key in ("channel", "read_cache", "write_behind", "binder_ring"):
            assert _ordered(stats[key]) == _ordered(
                stats["per_cvm"]["cvm"][key])
    else:
        assert _ordered(stats["per_cvm"]) == _ordered(PER_CVM)


@pytest.mark.parametrize("cvms", [1, 4])
def test_top_level_and_pool_schema_is_pinned(cvms):
    stats = _run_script(cvms)
    assert tuple(stats) == TOP_LEVEL
    assert _ordered({key: stats[key] for key in SCALARS}) == \
        _ordered(SCALARS)
    assert _ordered(stats["pool"]) == _ordered(POOL[cvms])
