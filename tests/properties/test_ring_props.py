"""Ring-transport properties: batching never lies, chaos never hangs.

Random batch shapes crossed with ring-site fault plans must uphold the
transport's contracts: (1) batched writes land byte-identically to
sequential writes regardless of vector shape or ring depth; (2) the
doorbell count for an N-entry vector never exceeds the backpressure
bound (one pair per ring-depth window), and is always at least 4x
better than one-pair-per-call for vectors of 8+; (3) ring faults
(corrupt/reorder/full) terminate with success or a typed errno and
replay byte-identically across runs; (4) with no fault engine armed
every catalogue script's descriptors pop with the bytes they were
pushed with, and neither the ring nor the channel takes a CRC.
"""

import json
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.channel as channel_mod
import repro.core.ring as ring_mod
from repro.core.ring import DelegationRing
from repro.faults.chaos import chaos_report_json, run_chaos
from repro.kernel import vfs
from repro.world import AnceptionWorld
from tests.conftest import ScratchApp
from tests.differential.catalogue import SCRIPTS
from tests.differential.harness import run_script
from tests.differential.test_catalogue import CatApp, EchoServer


_SLOW = dict(max_examples=20, deadline=None)

_ring_rules = st.sampled_from([
    "ring.corrupt:nth=1", "ring.corrupt:nth=3", "ring.corrupt:p=0.2",
    "ring.reorder:nth=1", "ring.reorder:every=2", "ring.reorder:p=0.5",
])
_ring_plans = st.lists(_ring_rules, min_size=1, max_size=3).map(";".join)

_vectors = st.lists(
    st.binary(min_size=1, max_size=128), min_size=1, max_size=20
)


def _fresh_ctx(ring_depth=None):
    world = AnceptionWorld(ring_depth=ring_depth)
    running = world.install_and_launch(ScratchApp())
    running.run()
    return world, running.ctx


def _batchio(ctx):
    fd = ctx.libc.open(
        ctx.data_path("prop.bin"), vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC
    )
    ctx.libc.writev(fd, [b"p" * 32 for _ in range(12)])
    ctx.libc.lseek(fd, 0)
    ctx.libc.readv(fd, [32] * 12)
    ctx.libc.syscall_batch(
        [("write", fd, b"t%d" % i) for i in range(4)]
    )
    ctx.libc.close(fd)


class TestBatchingCorrectness:
    @given(vec=_vectors,
           ring_depth=st.one_of(st.none(),
                                st.integers(min_value=2, max_value=64)))
    @settings(**_SLOW)
    def test_writev_lands_identically_to_sequential(self, vec, ring_depth):
        world, ctx = _fresh_ctx(ring_depth=ring_depth)
        total = sum(len(b) for b in vec)
        fd_v = ctx.libc.open(ctx.data_path("v.bin"),
                             vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        assert ctx.libc.writev(fd_v, vec) == total
        fd_s = ctx.libc.open(ctx.data_path("s.bin"),
                             vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        for buf in vec:
            ctx.libc.write(fd_s, buf)
        ctx.libc.lseek(fd_v, 0)
        ctx.libc.lseek(fd_s, 0)
        assert ctx.libc.read(fd_v, total) == ctx.libc.read(fd_s, total)

    @given(vec=_vectors)
    @settings(**_SLOW)
    def test_readv_reassembles_what_writev_wrote(self, vec):
        world, ctx = _fresh_ctx()
        fd = ctx.libc.open(ctx.data_path("rr.bin"),
                           vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        ctx.libc.writev(fd, vec)
        ctx.libc.lseek(fd, 0)
        chunks = ctx.libc.readv(fd, [len(b) for b in vec])
        assert chunks == [bytes(b) for b in vec]

    @given(vec=st.lists(st.binary(min_size=1, max_size=64),
                        min_size=8, max_size=24),
           depth=st.integers(min_value=4, max_value=64))
    @settings(**_SLOW)
    def test_doorbells_bounded_by_backpressure_windows(self, vec, depth):
        world, ctx = _fresh_ctx(ring_depth=depth)
        fd = ctx.libc.open(ctx.data_path("db.bin"),
                           vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC)
        hypervisor = world.cvm.hypervisor
        irq_before = hypervisor.interrupt_count
        hyp_before = hypervisor.hypercall_count
        ctx.libc.writev(fd, vec)
        pairs = max(hypervisor.interrupt_count - irq_before,
                    hypervisor.hypercall_count - hyp_before)
        windows = -(-len(vec) // depth)  # ceil: ring-full flush bound
        assert pairs <= windows
        # acceptance floor: >= 4x fewer doorbells than per-call pairs.
        # Only guaranteed for depth >= 8: with len >= 8 that gives
        # 4 * ceil(len/depth) <= 4 * (len/8 + 1) <= len; shallower
        # rings (depth 4, len 9 -> 3 windows) legitimately miss it.
        if depth >= 8:
            assert pairs * 4 <= len(vec)


class TestRingChaos:
    @given(plan=_ring_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_ring_faults_terminate_with_defined_outcome(self, plan, seed):
        result = run_chaos(_batchio, seed=seed, faults=plan)
        assert result.status in ("ok", "syscall-error")
        if result.status == "syscall-error":
            assert any(code in result.error for code in
                       ("EIO", "EBADF", "ENOSPC", "EPERM", "ENOENT"))

    @given(plan=_ring_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=12, deadline=None)
    def test_ring_faults_replay_byte_identically(self, plan, seed):
        first = chaos_report_json(run_chaos(_batchio, seed=seed,
                                            faults=plan))
        second = chaos_report_json(run_chaos(_batchio, seed=seed,
                                             faults=plan))
        assert first == second

    @given(plan=_ring_plans, seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SLOW)
    def test_rings_drain_clean_after_chaos(self, plan, seed):
        result = run_chaos(_batchio, seed=seed, faults=plan)
        channel = result.world.anception.channel
        assert len(channel.submit_ring) == 0
        assert len(channel.complete_ring) == 0
        report = json.loads(chaos_report_json(result))
        assert report["stats"]["channel"]["submit_ring"]["queued"] == 0


class TestDormantFraming:
    @given(label=st.sampled_from(sorted(SCRIPTS)),
           knobs=st.sampled_from([
               {},
               {"async_delegation": True, "binder_ring": True},
               {"async_delegation": True, "read_cache": True},
           ]))
    @settings(max_examples=75, deadline=None)
    def test_unarmed_descriptors_pop_as_pushed_with_no_crc(self, label,
                                                           knobs):
        """Every descriptor a catalogue script puts on a ring, completion
        views included, pops with its pushed bytes (by this test's own
        ``crc32``), and the ring and channel take no CRC of their own."""
        pushed = {}
        popped = []
        taken = []
        real_push, real_pop = DelegationRing.push, DelegationRing.pop

        def recording_push(ring, call, payload, seq=None, flags=0,
                           pending=None):
            seq = real_push(ring, call, payload, seq=seq, flags=flags,
                            pending=pending)
            pushed[(id(ring), seq)] = crc32(payload)
            return seq

        def checking_pop(ring):
            descriptor = real_pop(ring)
            if descriptor is not None:
                popped.append(((id(ring), descriptor.seq),
                               crc32(descriptor.payload)))
            return descriptor

        def counting_crc32(data, *args):
            taken.append(len(data))
            return crc32(data, *args)

        world = AnceptionWorld(**knobs)
        entry = SCRIPTS[label]
        if entry["needs_server"]:
            world.internet.register_server(("echo.example", 7),
                                           EchoServer())
        running = world.install_and_launch(CatApp())
        running.run()
        assert world.machine.clock.faults is None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DelegationRing, "push", recording_push)
            patch.setattr(DelegationRing, "pop", checking_pop)
            patch.setattr(ring_mod, "crc32", counting_crc32)
            patch.setattr(channel_mod, "crc32", counting_crc32)
            run_script(running.ctx, entry["script"])
            world.anception.async_fence(running.ctx.libc.task)
        assert popped, f"{label} put nothing on a ring"
        for key, popped_crc in popped:
            assert pushed.pop(key) == popped_crc
        assert not pushed, "a pushed descriptor never popped"
        assert taken == []
