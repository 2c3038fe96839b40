"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's entry points (:data:`LAYERS`) for the
length of one pass, records one span per call into a layer -- layer,
parent span, wall start/end and simulated host-timeline start/end -- in
flat in-memory arrays, and restores every wrapped attribute afterwards.
Nothing under ``src/`` is edited; the wrappers only read the simulated
clock, so simulated time is bit-identical with tracing on or off.

A call into a layer from code already inside that same layer (for
example ``AnceptionLayer.complete`` flushing its own window) is part of
the enclosing span, not a new one: ``<layer>.calls`` counts entries into
a layer from outside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array


LAYERS = (
    ("kernel.host", (("repro.kernel.kernel", "Kernel", "syscall"),)),
    ("kernel.guest", (("repro.kernel.kernel", "Kernel", "syscall"),)),
    ("core.anception", tuple(
        ("repro.core.anception", "AnceptionLayer", name)
        for name in ("dispatch", "submit", "flush", "complete")
    )),
    ("core.anception.windows", tuple(
        ("repro.core.anception", "AnceptionLayer", name)
        for name in ("_wb_enqueue", "_wb_fence", "_run_window",
                     "_binder_enqueue", "_run_binder_window", "wb_fence",
                     "async_fence")
    )),
    ("core.policy", (("repro.core.policy", "RedirectionPolicy", "decide"),)),
    ("core.marshal", (
        ("repro.core.marshal", "FdTranslationTable", "translate_args"),
        ("repro.core.marshal", None, "marshal_call_into"),
        ("repro.core.marshal", None, "marshal_call"),
        ("repro.core.marshal", None, "result_size"),
    )),
    ("core.ring", tuple(
        ("repro.core.ring", "DelegationRing", name) for name in ("push", "pop")
    )),
    ("core.channel", tuple(
        ("repro.core.channel", "AnceptionChannel", name)
        for name in ("send_to_guest", "send_to_host", "_transfer",
                     "bulk_copy")
    )),
    ("hypervisor.lguest", tuple(
        ("repro.hypervisor.lguest", "LguestHypervisor", name)
        for name in ("hypercall", "inject_interrupt")
    )),
    ("core.proxy", tuple(
        ("repro.core.proxy", "ProxyManager", name)
        for name in ("drain", "execute")
    )),
    ("core.page_cache", tuple(
        ("repro.core.page_cache", "HostPageCache", name)
        for name in ("lookup", "fill_window", "refresh_ino",
                     "invalidate_ino", "drop_range")
    )),
    ("android.binder", (("repro.android.binder", "BinderDriver",
                         "transact"),)),
    ("android.ui", tuple(
        ("repro.android.ui", "UIStack", name)
        for name in ("create_window", "submit_frame", "window_of")
    )),
    ("android.sqlite", tuple(
        ("repro.android.sqlite", "Database", name)
        for name in ("insert", "commit", "checkpoint")
    )),
)
"""Layer name -> wrapped entry points ``(module, class or None, attr)``.

``Kernel.syscall`` is listed under both kernel layers: one wrapper
picks ``kernel.host`` or ``kernel.guest`` from the kernel it runs on.
A module-level function (class ``None``) is wrapped in every loaded
``repro`` module that imported it by name."""

LAYER_NAMES = tuple(name for name, _entries in LAYERS)

_HOST, _GUEST = LAYER_NAMES.index("kernel.host"), LAYER_NAMES.index(
    "kernel.guest")


class SpanLog:
    """Flat span storage: one array per field, index = span id."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("q")
        self.wall0 = array("q")
        self.wall1 = array("q")
        self.sim0 = array("q")
        self.sim1 = array("q")

    def __len__(self):
        return len(self.layer)

    def add(self, layer, parent, wall0, wall1, sim0, sim1):
        """Append one finished span (used by tests and by tools)."""
        self.layer.append(layer)
        self.parent.append(parent)
        self.wall0.append(wall0)
        self.wall1.append(wall1)
        self.sim0.append(sim0)
        self.sim1.append(sim1)
        return len(self.layer) - 1

    def write(self, path_stem):
        """Write ``<stem>.json`` (layer names, count) + ``<stem>.bin``."""
        with open(path_stem + ".bin", "wb") as handle:
            for field in (self.layer, self.parent, self.wall0, self.wall1,
                          self.sim0, self.sim1):
                field.tofile(handle)
        with open(path_stem + ".json", "w") as handle:
            json.dump({
                "layers": list(LAYER_NAMES),
                "spans": len(self),
                "fields": ["layer:int8", "parent:int64", "wall0_ns:int64",
                           "wall1_ns:int64", "sim0_ns:int64",
                           "sim1_ns:int64"],
                "layout": "each field is one contiguous little/native "
                          "array of `spans` items, in the order above",
            }, handle, indent=2)


def self_times(spans, total_wall_ns, total_sim_ns):
    """Per-layer calls and self times, plus the unattributed remainder.

    A span's self time is its duration minus the durations of its
    direct children, so the self times of all spans sum to the summed
    durations of the top-level spans; what no top-level span covers is
    the unattributed remainder.  Returns a dict of per-layer lists
    (``calls``, ``self_wall_ns``, ``self_sim_ns``) and the
    ``unattributed_wall_ns``/``unattributed_sim_ns`` integers, which
    make ``sum(self_sim_ns) + unattributed_sim_ns == total_sim_ns``
    hold exactly.
    """
    count = len(LAYER_NAMES)
    calls = [0] * count
    self_wall = [0] * count
    self_sim = [0] * count
    top_wall = top_sim = 0
    layer, parent = spans.layer, spans.parent
    wall0, wall1, sim0, sim1 = spans.wall0, spans.wall1, spans.sim0, spans.sim1
    for i in range(len(layer)):
        own = layer[i]
        wall = wall1[i] - wall0[i]
        sim = sim1[i] - sim0[i]
        calls[own] += 1
        self_wall[own] += wall
        self_sim[own] += sim
        up = parent[i]
        if up < 0:
            top_wall += wall
            top_sim += sim
        else:
            above = layer[up]
            self_wall[above] -= wall
            self_sim[above] -= sim
    return {
        "calls": calls,
        "self_wall_ns": self_wall,
        "self_sim_ns": self_sim,
        "unattributed_wall_ns": total_wall_ns - top_wall,
        "unattributed_sim_ns": total_sim_ns - top_sim,
    }


def entry_points():
    """Yield ``(layer index, owner, attr, current value)`` per wrap site.

    A class attribute is one site.  A module-level function has a site in
    every loaded ``repro`` module that holds it (or a wrapper of it)
    under that name.  ``Kernel.syscall`` is yielded once, under
    ``kernel.host``.
    """
    seen = set()
    for index, (_name, entries) in enumerate(LAYERS):
        for entry in entries:
            if entry in seen:
                continue
            seen.add(entry)
            module_name, class_name, attr = entry
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                yield index, owner, attr, owner.__dict__[attr]
                continue
            function = getattr(module, attr)
            function = getattr(function, "__wrapped__", function)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                value = getattr(loaded, attr, None)
                if getattr(value, "__wrapped__", value) is function:
                    yield index, loaded, attr, value


class Tracer:
    """Installs the layer wrappers for one world and records spans.

    Use as a context manager around the iterations of one pass; on exit
    every wrapped attribute is put back (see :meth:`leftovers`).
    """

    def __init__(self, world):
        self.clock = world.clock
        self.host_kernel = world.machine.kernel
        self.spans = SpanLog()
        self._stack = [(-1, -1)]
        self._patched = []  # (owner, attr, original)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, layer, fn):
        spans = self.spans
        layers, parents = spans.layer, spans.parent
        wall0, wall1, sim0, sim1 = (spans.wall0, spans.wall1, spans.sim0,
                                    spans.sim1)
        stack = self._stack
        clock = self.clock
        host = self.host_kernel
        now = time.perf_counter_ns
        pick_kernel = layer is None

        def traced(*args, **kwargs):
            own = layer
            if pick_kernel:
                own = _HOST if args[0] is host else _GUEST
            top = stack[-1]
            if top[0] == own:
                return fn(*args, **kwargs)
            index = len(layers)
            layers.append(own)
            parents.append(top[1])
            sim0.append(clock.now_ns)
            sim1.append(0)
            wall1.append(0)
            stack.append((own, index))
            wall0.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                wall1[index] = now()
                sim1[index] = clock.now_ns
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        try:
            for layer, owner, attr, original in entry_points():
                if layer in (_HOST, _GUEST):
                    layer = None  # one wrapper picks the kernel's layer
                setattr(owner, attr, self._wrapper(layer, original))
                self._patched.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftovers():
        """Entry points still wrapped (empty after a clean exit)."""
        return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                      for _layer, owner, attr, value in entry_points()
                      if hasattr(value, "__wrapped__"))
