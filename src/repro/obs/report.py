"""Offline analyzer for Chrome-trace exports (``anception report``).

Consumes the trace-event JSON that :func:`repro.obs.export.to_chrome_trace`
produces (from a file, ``anception trace --out t.json``) and computes the
paper-shaped summaries the raw event soup hides:

* a **critical-path breakdown** of syscall spans into the self time of
  the spans nested under them (world switches, channel copies, ring
  descriptors, proxy execution, cache hits) — the Table I attribution,
  recovered from any trace instead of re-measured;
* **top-N spans by self time**, aggregated by (category, name);
* **doorbell counts** — world-switch spans, ring-descriptor spans and
  the coalesced-doorbell events the hypervisor emitted;
* **write-behind overlap ratio** — the fraction of lane (CVM) time the
  host did *not* stall on, from ``wb-drain`` spans' ``lane_ns`` against
  ``wb-fence`` events' ``waited_ns``.

Numbers a run's counters already hold — the read cache's hits,
misses and hit rate, the descriptors the channel retired — are not
re-derived here: ``anception metrics`` prints them from ``stats()``.
Only spans can give the breakdowns above.

All timestamps in a trace are simulated microseconds, so every number
here is deterministic; :func:`report_json` sorts keys and rounds floats,
making the output byte-identical for a fixed trace (the property CI
leans on).

Nesting is computed globally by time containment — the simulation is
single-threaded on one clock, so a channel-copy span on the ``channel``
lane genuinely sits inside the ``host`` lane's syscall span even though
Chrome draws them as separate processes.
"""

from __future__ import annotations

import json


_EPS = 1e-9
"""Containment slack for exported microsecond floats (ns precision)."""


def _span_sort_key(event):
    return (event["ts"], -event["dur"], event["pid"], event["tid"],
            event["cat"], event["name"])


def _nest(spans):
    """Annotate spans with self/child time and syscall ancestry.

    Returns a list of node dicts (one per span, same order as the sorted
    input): ``{"e", "self", "child", "under_syscall", "top_syscall"}``.
    A stack sweep over start-time order: a span starting before the top
    of stack ends is nested inside it.
    """
    nodes = []
    stack = []
    for event in sorted(spans, key=_span_sort_key):
        start = event["ts"]
        while stack and stack[-1]["end"] <= start + _EPS:
            stack.pop()
        parent = stack[-1] if stack else None
        node = {
            "e": event,
            "end": start + event["dur"],
            "child": 0.0,
            "under_syscall": parent is not None and (
                parent["under_syscall"] or parent["e"]["cat"] == "syscall"
            ),
        }
        node["top_syscall"] = (
            event["cat"] == "syscall" and not node["under_syscall"]
        )
        if parent is not None:
            parent["child"] += event["dur"]
        nodes.append(node)
        stack.append(node)
    for node in nodes:
        node["self"] = max(0.0, node["e"]["dur"] - node["child"])
    return nodes


def _round(value, digits=3):
    return round(value + 0.0, digits)


def analyze(trace, top=10):
    """Compute the full report dict from a Chrome-trace dict."""
    events = trace.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    nodes = _nest(spans)

    # -- span census and top-N by self time ---------------------------------
    by_category = {}
    by_name = {}
    for node in nodes:
        event = node["e"]
        cat_row = by_category.setdefault(
            event["cat"], {"count": 0, "total_us": 0.0, "self_us": 0.0}
        )
        cat_row["count"] += 1
        cat_row["total_us"] += event["dur"]
        cat_row["self_us"] += node["self"]
        name_row = by_name.setdefault(
            (event["cat"], event["name"]),
            {"count": 0, "total_us": 0.0, "self_us": 0.0},
        )
        name_row["count"] += 1
        name_row["total_us"] += event["dur"]
        name_row["self_us"] += node["self"]
    top_spans = [
        {
            "cat": cat,
            "name": name,
            "count": row["count"],
            "self_us": _round(row["self_us"]),
            "total_us": _round(row["total_us"]),
        }
        for (cat, name), row in by_name.items()
    ]
    top_spans.sort(key=lambda r: (-r["self_us"], r["cat"], r["name"]))
    top_spans = top_spans[:top]

    # -- critical path: what a syscall's time is made of --------------------
    components = {}
    syscall_total = 0.0
    syscall_count = 0
    for node in nodes:
        if node["top_syscall"]:
            syscall_total += node["e"]["dur"]
            syscall_count += 1
            components["syscall"] = (
                components.get("syscall", 0.0) + node["self"]
            )
        elif node["under_syscall"]:
            cat = node["e"]["cat"]
            components[cat] = components.get(cat, 0.0) + node["self"]
    critical_path = {
        "syscalls": syscall_count,
        "total_us": _round(syscall_total),
        "components_us": {
            cat: _round(value) for cat, value in sorted(components.items())
        },
    }

    # -- doorbell counts ----------------------------------------------------
    world_switches = by_category.get("world-switch", {}).get("count", 0)
    descriptors = (
        by_category.get("ring-submit", {}).get("count", 0)
        + by_category.get("ring-complete", {}).get("count", 0)
    )
    coalesce_events = [i for i in instants
                       if i.get("cat") == "doorbell-coalesced"]
    coalesced_counts = [
        int(i.get("args", {}).get("coalesced", 1)) for i in coalesce_events
    ]
    doorbells = {
        "world_switches": world_switches,
        "ring_descriptors": descriptors,
        "coalesced_doorbells": len(coalesce_events),
        "max_coalesced": max(coalesced_counts, default=0),
    }

    # -- write-behind overlap ratio -----------------------------------------
    drain_nodes = [n for n in nodes if n["e"]["cat"] == "wb-drain"]
    lane_us = sum(
        n["e"].get("args", {}).get("lane_ns", 0) for n in drain_nodes
    ) / 1000.0
    waited_us = sum(
        i.get("args", {}).get("waited_ns", 0)
        for i in instants if i.get("cat") == "wb-fence"
    ) / 1000.0
    write_behind = {
        "drains": len(drain_nodes),
        "lane_us": _round(lane_us),
        "waited_us": _round(waited_us),
        "overlap_ratio": _round(
            max(0.0, 1.0 - waited_us / lane_us) if lane_us else 0.0
        ),
    }

    # -- wall-clock of the *trace* (simulated) -------------------------------
    starts = [e["ts"] for e in spans] + [i["ts"] for i in instants]
    ends = [e["ts"] + e["dur"] for e in spans] + [i["ts"] for i in instants]
    window_us = (max(ends) - min(starts)) if starts else 0.0

    return {
        "trace_id": trace.get("otherData", {}).get("trace_id", ""),
        "workload": trace.get("otherData", {}).get("workload", ""),
        "window_us": _round(window_us),
        "spans": len(spans),
        "events": len(instants),
        "by_category": {
            cat: {
                "count": row["count"],
                "total_us": _round(row["total_us"]),
                "self_us": _round(row["self_us"]),
            }
            for cat, row in sorted(by_category.items())
        },
        "critical_path": critical_path,
        "top_spans": top_spans,
        "doorbells": doorbells,
        "write_behind": write_behind,
    }


def report_json(trace, top=10):
    """Serialized report; byte-identical for a fixed trace."""
    return json.dumps(analyze(trace, top=top), indent=2, sort_keys=True)
