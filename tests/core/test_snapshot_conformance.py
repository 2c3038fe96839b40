"""Snapshot-coverage conformance: every stateful component is audited.

Mirror of the syscall-conformance suite, for serialization: the
universe is every repro-package class reachable from a booted world
(the object graph the snapshot must capture), and every member must
either declare a ``__snapshot__`` audit marker or carry a documented
exemption in :data:`SNAPSHOT_EXEMPT`.  Each check fails with the list
of missing names, so adding a stateful component without auditing its
serialization turns CI red with a to-do list.

The matrix spans the knob space: a bare native world, default
delegation, and the full configuration (read cache + write-behind +
binder ring + 4-lane pool) after actually running a workload — lazily
created state (windows, cache pages, proxies) must be in-universe too.
"""

import collections
import enum
import errno
import importlib
import pickle
import pkgutil
import types

import pytest

import repro
from repro.android.app import AppCrashed
from repro.core.snapshot import (
    SNAPSHOT_EXEMPT,
    audit_components,
    walk_components,
)
from repro.errors import (
    ChannelIntegrityError,
    ChannelStalled,
    ContainerCrashed,
    ProcessKilled,
    ProxyDied,
    ReproError,
    RingFull,
    SyscallError,
)
from repro.kernel.kernel import KernelCrashed
from repro.obs.runner import boot_obs_world, run_traced
from repro.world import AnceptionWorld, NativeWorld


def _qualified(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


_PICKLE_HOOKS = ("__getstate__", "__setstate__", "__reduce__",
                 "__reduce_ex__")


def _hollow_custom(classes):
    """Names of classes marked 'custom' with no pickle hook of their own.

    Hooks are looked up only in the class dictionaries of the class and
    its repro-package bases: ``object`` gives every class
    ``__reduce__``, ``__reduce_ex__`` and (3.11+) ``__getstate__``, so
    ``getattr`` finds a hook on any class at all.
    """
    return sorted(
        name for name, cls in classes.items()
        if getattr(cls, "__snapshot__", None) == "custom"
        and not any(
            hook in klass.__dict__
            for klass in cls.__mro__
            if klass.__module__.startswith("repro.")
            for hook in _PICKLE_HOOKS
        )
    )


def _error_classes():
    """Every :class:`ReproError` subclass the package defines."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, stack = [], [ReproError]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(set(found), key=_qualified)


_ERROR_ARGS = {
    # Constructor arguments for the subclasses that take more than a
    # message; every other subclass is built from ("message",).
    SyscallError: (errno.ENOSPC, "disk full", "write"),
    ChannelIntegrityError: ("to-guest", 0x1234, 0x4321, 4096),
    RingFull: ("submit", 8),
    ChannelStalled: ("to-host", "doorbell lost"),
    ProxyDied: (1000, 42, "reaped"),
    ContainerCrashed: ("guest panic",),
    ProcessKilled: (1000, "uid changed"),
    KernelCrashed: (types.SimpleNamespace(label="cvm0"), "oops"),
    AppCrashed: ("com.example.app", ValueError("boom")),
}


def _worlds():
    full, _ctx = boot_obs_world(read_cache=True, async_delegation=True,
                                binder_ring=True, cvms=4)
    run_traced("write4k", seed=0, world=full)
    return {
        "native": NativeWorld(),
        "anception": AnceptionWorld(),
        "full-knobs": full,
    }


@pytest.fixture(scope="module")
def universe():
    """{qualified class name: class} reachable from the world matrix."""
    classes = {}
    for world in _worlds().values():
        for obj in walk_components(world):
            cls = type(obj)
            classes[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return classes


class TestUniverse:
    def test_universe_is_nonempty_and_stable_floor(self, universe):
        assert len(universe) >= 60, sorted(universe)

    def test_core_components_are_in_universe(self, universe):
        expected = {
            "repro.kernel.kernel.Kernel",
            "repro.kernel.vfs.VFS",
            "repro.kernel.vfs.Inode",
            "repro.core.anception.AnceptionLayer",
            "repro.core.windows.DeferredWindows",
            "repro.core.pool.CVMPool",
            "repro.core.proxy.ProxyManager",
            "repro.core.page_cache.HostPageCache",
        }
        missing = sorted(expected - set(universe))
        assert not missing, (
            f"expected components not reachable from any matrix world "
            f"(walker or boot regression): {missing}"
        )

    def test_every_component_is_marked_or_exempt(self, universe):
        missing = sorted(
            name for name, cls in universe.items()
            if not issubclass(cls, enum.Enum)
            and getattr(cls, "__snapshot__", None) not in ("auto",
                                                           "custom")
            and name not in SNAPSHOT_EXEMPT
        )
        assert not missing, (
            f"components without a __snapshot__ audit marker (mark "
            f"'auto' if default pickling is complete and deterministic, "
            f"'custom' if the class manages its own state, or document "
            f"an exemption): {missing}"
        )

    def test_audit_accepts_every_matrix_world(self):
        for label, world in _worlds().items():
            counts = collections.Counter(
                _qualified(type(obj)) for obj in walk_components(world)
            )
            manifest = audit_components(world)
            assert manifest == dict(sorted(counts.items())), label


class TestMarkers:
    def test_marker_values_are_valid(self, universe):
        bad = sorted(
            f"{name}={cls.__dict__.get('__snapshot__')!r}"
            for name, cls in universe.items()
            if "__snapshot__" in cls.__dict__
            and cls.__dict__["__snapshot__"] not in ("auto", "custom")
        )
        assert not bad, f"unknown __snapshot__ marker values: {bad}"

    def test_custom_markers_back_their_claim(self, universe):
        # 'custom' asserts the class manages its own serialization;
        # hold it to that.  Errors are in scope whether or not a matrix
        # world happens to hold one.
        classes = {**universe,
                   **{_qualified(cls): cls for cls in _error_classes()}}
        hollow = _hollow_custom(classes)
        assert not hollow, (
            f"classes marked __snapshot__='custom' without any "
            f"serialization hook of their own: {hollow}"
        )

    def test_a_hook_inherited_from_object_backs_no_claim(self):
        class Hollow:
            __snapshot__ = "custom"

        class Backed(Hollow):
            def __reduce__(self):
                return Backed, ()

        for cls in (Hollow, Backed):
            cls.__module__ = "repro.test_hollow"
        assert _hollow_custom({"Hollow": Hollow, "Backed": Backed}) == [
            "Hollow"
        ]


class TestErrors:
    """Errors ride snapshots: a world holds them in deferred-errno
    ledgers and crashed apps."""

    def test_every_repro_error_round_trips(self):
        for cls in _error_classes():
            exc = cls(*_ERROR_ARGS.get(cls, ("message",)))
            clone = pickle.loads(pickle.dumps(exc, protocol=4))
            assert type(clone) is cls
            assert str(clone) == str(exc), cls
            assert clone.args == exc.args, cls
            assert getattr(clone, "errno", None) == getattr(exc, "errno",
                                                           None), cls
            assert getattr(clone, "call", None) == getattr(exc, "call",
                                                          None), cls
            assert clone.__dict__.keys() == exc.__dict__.keys(), cls


class TestExemptions:
    def test_exemptions_name_real_attributes(self):
        import importlib

        for qualified in SNAPSHOT_EXEMPT:
            module_name, _sep, attr = qualified.rpartition(".")
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), (
                f"SNAPSHOT_EXEMPT entry {qualified!r} names nothing "
                f"importable"
            )

    def test_exemptions_and_markers_are_disjoint(self, universe):
        overlap = sorted(
            name for name in SNAPSHOT_EXEMPT
            if name in universe
            and getattr(universe[name], "__snapshot__", None)
            in ("auto", "custom")
        )
        assert not overlap, (
            f"components both audited and exempt (drop one): {overlap}"
        )

    def test_every_exemption_has_a_rationale(self):
        for name, why in SNAPSHOT_EXEMPT.items():
            assert isinstance(why, str) and len(why.split()) >= 5, (
                f"exemption {name!r} needs a real rationale, "
                f"not {why!r}"
            )
