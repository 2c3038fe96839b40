"""The benchmark's own tests: streams, span arithmetic, wrapping hygiene."""

import json
import os

import pytest

import run
from tracer import LAYER_NAMES, SpanLog, Tracer, self_times
from workloads import WORKLOADS

DESIGN = json.load(open(os.path.join(run.HERE, "design.json")))


def small(name):
    """The workload with a short stream: same ops, fewer iterations."""
    workload = WORKLOADS[name]()
    if name == "app_macro":
        workload.ROUNDS = 1
        workload.iterations = len(workload.KINDS)
    else:
        workload.iterations = 3
    return workload


# -- seeded generation --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_stream(name):
    first = small(name).generate(5).canonical()
    assert first == small(name).generate(5).canonical()
    assert first != small(name).generate(6).canonical()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_simulated_time(name):
    workload = small(name)
    stream = workload.generate(5)
    one = run.run_pass(workload, stream)
    two = run.run_pass(workload, stream)
    assert one.sim_ns == two.sim_ns > 0
    assert one.failed == two.failed == 0


def test_design_names_both_seeds_and_every_workload():
    seeds = DESIGN["seeds"]
    assert seeds["default"] != seeds["held_out"]
    assert set(DESIGN["workloads"]) == set(WORKLOADS)
    assert list(DESIGN["layers"]) == list(LAYER_NAMES)


# -- span arithmetic ----------------------------------------------------------

def _layer(name):
    return LAYER_NAMES.index(name)


def test_self_times_subtract_children_and_leave_the_remainder():
    spans = SpanLog()
    host, anception, ring = (_layer("kernel.host"), _layer("core.anception"),
                             _layer("core.ring"))
    # host [0, 100) wall, [0, 50) sim
    #   anception [10, 90) wall, [5, 45) sim
    #     ring [20, 30) wall, [10, 12) sim
    #     ring [40, 60) wall, [20, 30) sim
    # host [120, 140) wall, [60, 70) sim
    top = spans.add(host, -1, 0, 100, 0, 50)
    mid = spans.add(anception, top, 10, 90, 5, 45)
    spans.add(ring, mid, 20, 30, 10, 12)
    spans.add(ring, mid, 40, 60, 20, 30)
    spans.add(host, -1, 120, 140, 60, 70)
    split = self_times(spans, total_wall_ns=200, total_sim_ns=80)
    assert split["calls"][host] == 2
    assert split["calls"][ring] == 2
    assert split["self_wall_ns"][host] == (100 - 80) + 20
    assert split["self_wall_ns"][anception] == 80 - 10 - 20
    assert split["self_wall_ns"][ring] == 30
    assert split["self_sim_ns"][host] == (50 - 40) + 10
    assert split["self_sim_ns"][anception] == 40 - 2 - 10
    assert split["self_sim_ns"][ring] == 12
    assert split["unattributed_wall_ns"] == 200 - 120
    assert split["unattributed_sim_ns"] == 80 - 60
    assert sum(split["self_sim_ns"]) + split["unattributed_sim_ns"] == 80


def test_empty_span_log_leaves_everything_unattributed():
    split = self_times(SpanLog(), total_wall_ns=7, total_sim_ns=3)
    assert sum(split["calls"]) == 0
    assert split["unattributed_wall_ns"] == 7
    assert split["unattributed_sim_ns"] == 3


def test_spans_round_trip_through_the_written_files(tmp_path):
    spans = SpanLog()
    spans.add(_layer("core.proxy"), -1, 5, 9, 1, 2)
    stem = str(tmp_path / "spans")
    spans.write(stem)
    header = json.load(open(stem + ".json"))
    assert header["spans"] == 1
    assert header["layers"] == list(LAYER_NAMES)
    assert os.path.getsize(stem + ".bin") == 1 + 5 * 8


# -- wrapping hygiene ---------------------------------------------------------

def _entry_points():
    from repro.core.anception import AnceptionLayer
    from repro.core.marshal import marshal_call_into
    from repro.core.proxy import result_size
    from repro.kernel.kernel import Kernel

    return (Kernel.__dict__["syscall"], AnceptionLayer.__dict__["dispatch"],
            marshal_call_into, result_size)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_restores_every_attribute_and_keeps_the_clock(name):
    before = _entry_points()
    workload = small(name)
    stream = workload.generate(3)
    plain = run.run_pass(workload, stream)
    traced = run.run_pass(workload, stream, "traced")
    assert Tracer.leftovers() == []
    assert _entry_points() == before
    assert traced.sim_ns == plain.sim_ns
    split = self_times(traced.spans, traced.raw_ns, traced.sim_ns)
    assert min(split["self_sim_ns"]) >= 0
    assert split["unattributed_sim_ns"] >= 0
    assert sum(split["self_sim_ns"]) + split["unattributed_sim_ns"] \
        == traced.sim_ns


def test_wrappers_are_removed_when_the_body_raises():
    before = _entry_points()
    workload = small("sync_redirect")
    state = workload.setup(workload.generate(3))
    with pytest.raises(RuntimeError):
        with Tracer(state.world):
            assert Tracer.leftovers()
            raise RuntimeError("boom")
    assert Tracer.leftovers() == []
    assert _entry_points() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_idle_layers_report_zero_calls_and_stressed_layers_work(name):
    workload = small(name)
    traced = run.run_pass(workload, workload.generate(1), "traced")
    calls = self_times(traced.spans, traced.raw_ns, traced.sim_ns)["calls"]
    design = DESIGN["workloads"][name]
    assert {layer: calls[_layer(layer)] for layer in design["idles"]} == {
        layer: 0 for layer in design["idles"]}
    assert all(calls[_layer(layer)] > 0 for layer in design["stresses"])


def test_census_counts_host_syscalls_like_the_tracer():
    workload = small("async_windows")
    stream = workload.generate(2)
    census = run.run_pass(workload, stream, "census")
    traced = run.run_pass(workload, stream, "traced")
    calls = self_times(traced.spans, traced.raw_ns, traced.sim_ns)["calls"]
    assert census.host_syscalls == calls[_layer("kernel.host")] > 0


def test_async_windows_rings_fewer_doorbells_per_syscall_than_sync():
    rates = {}
    for name in ("sync_redirect", "async_windows"):
        workload = small(name)
        stream = workload.generate(1)
        plain = run.run_pass(workload, stream)
        census = run.run_pass(workload, stream, "census")
        rates[name] = run.ratios(plain.stats, census.host_syscalls)[
            "hypervisor.lguest.doorbells_per_ksyscall"][0]
    assert rates["async_windows"] < rates["sync_redirect"]


# -- output checks ------------------------------------------------------------

def test_a_wrong_read_back_counts_as_a_failure():
    workload = small("sync_redirect")
    stream = workload.generate(4)
    state = workload.setup(stream)
    state.pages[0] = b"not what was written"
    workload.run(state, [("pread", 0)])
    assert state.failed == 1
    assert "differs" in state.failures[0]


def test_a_raising_op_counts_as_a_failure_not_a_crash():
    workload = small("sync_redirect")
    state = workload.setup(workload.generate(4))
    workload.run(state, [("unlink", "no-such-file.bin"), ("getpid",)])
    assert state.attempted == 2
    assert state.failed == 1
