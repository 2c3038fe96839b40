"""The fault engine: triggers, determinism, per-layer effects."""

import errno
import json
from zlib import crc32

import pytest

from repro.clock import SimClock
from repro.core.channel import AnceptionChannel
from repro.errors import ChannelIntegrityError, SimulationError, SyscallError
from repro.faults.engine import FaultEngine
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine


def engine_on_clock(plan, seed=0):
    engine = FaultEngine(plan, seed=seed)
    engine.arm(SimClock())
    return engine


class TestAttachment:
    def test_clock_has_no_engine_by_default(self):
        assert SimClock().faults is None

    def test_arm_and_disarm(self):
        clock = SimClock()
        engine = FaultEngine("irq.drop").arm(clock)
        assert clock.faults is engine
        engine.disarm()
        assert clock.faults is None

    def test_disarm_leaves_other_engine_alone(self):
        clock = SimClock()
        first = FaultEngine("irq.drop").arm(clock)
        second = FaultEngine("irq.dup").arm(clock)
        first.disarm()
        assert clock.faults is second


class TestSiteNames:
    @pytest.mark.parametrize("resolve", [
        lambda engine: engine.check("irq.drops"),
        lambda engine: engine.fires("irq.drops"),
        lambda engine: engine.errno_at("wb.err", "write"),
        lambda engine: engine.delay_at("channel.stal", default_ns=1),
    ])
    def test_a_site_missing_from_sites_is_refused(self, resolve):
        engine = engine_on_clock("irq.drop")
        with pytest.raises(SimulationError, match="unknown fault site"):
            resolve(engine)
        assert engine.fired == []

    def test_an_unarmed_site_resolves_to_nothing(self):
        engine = engine_on_clock("irq.drop")
        assert not engine.fires("irq.dup")
        assert engine.errno_at("wb.error", "write") is None
        assert engine.delay_at("channel.stall", default_ns=7) == 0


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        engine = engine_on_clock("irq.drop:nth=3")
        assert [engine.fires("irq.drop") for _ in range(6)] == \
            [False, False, True, False, False, False]

    def test_every(self):
        engine = engine_on_clock("irq.drop:every=2")
        assert [engine.fires("irq.drop") for _ in range(6)] == \
            [False, True, False, True, False, True]

    def test_after_shifts_warmup(self):
        engine = engine_on_clock("irq.drop:after=3")
        assert [engine.fires("irq.drop") for _ in range(5)] == \
            [False, False, False, True, True]

    def test_times_caps_fires(self):
        engine = engine_on_clock("irq.drop:times=2")
        assert [engine.fires("irq.drop") for _ in range(5)] == \
            [True, True, False, False, False]

    def test_always_fires(self):
        engine = engine_on_clock("irq.drop")
        assert all(engine.fires("irq.drop") for _ in range(4))

    def test_probability_extremes(self):
        assert not any(
            engine_on_clock("irq.drop:p=0").fires("irq.drop") for _ in range(20)
        )
        assert all(
            engine_on_clock("irq.drop:p=1").fires("irq.drop") for _ in range(20)
        )

    def test_call_filter_gates_occurrences(self):
        engine = engine_on_clock("proxy.kill:nth=2:call=open")
        assert not engine.fires("proxy.kill", "read")
        assert not engine.fires("proxy.kill", "open")   # occurrence 1
        assert not engine.fires("proxy.kill", "read")
        assert engine.fires("proxy.kill", "open")       # occurrence 2
        assert not engine.fires("proxy.kill", "open")

    def test_first_matching_rule_wins(self):
        engine = engine_on_clock("irq.drop:nth=1;irq.drop:every=1")
        assert engine.fires("irq.drop")
        assert len(engine.fired) == 1
        assert engine.fired[0]["rule"] == "irq.drop:nth=1"

    def test_shadowed_rule_counter_still_advances(self):
        # rule 2 counts occurrence 1 even though rule 1 fired on it
        engine = engine_on_clock("irq.drop:nth=1;irq.drop:nth=2")
        assert engine.fires("irq.drop")
        assert engine.fires("irq.drop")
        assert [record["rule"] for record in engine.fired] == \
            ["irq.drop:nth=1", "irq.drop:nth=2"]


class TestDeterminism:
    PLAN = "channel.corrupt:p=0.3;irq.drop:p=0.2"

    def drive(self, seed):
        engine = engine_on_clock(self.PLAN, seed=seed)
        outcomes = []
        for i in range(40):
            payload = b"payload-%d" % i
            if engine.fires("channel.corrupt", "to-guest"):
                payload = engine.flip_byte(payload)
            outcomes.append(payload)
            outcomes.append(engine.fires("irq.drop"))
        return outcomes, engine.report()

    def test_same_seed_identical(self):
        assert self.drive(7) == self.drive(7)

    def test_different_seed_diverges(self):
        assert self.drive(1)[0] != self.drive(2)[0]

    def test_report_is_json_stable(self):
        a = json.dumps(self.drive(7)[1], sort_keys=True)
        b = json.dumps(self.drive(7)[1], sort_keys=True)
        assert a == b


@pytest.fixture
def machine():
    return Machine(total_mb=256)


@pytest.fixture
def channel(machine):
    hypervisor = LguestHypervisor(machine, guest_mb=32)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages=4)


@pytest.fixture
def crossings(channel, monkeypatch):
    """The bytes of every chunk that crosses the channel's pages."""
    seen = []
    physical = channel.shared.physical
    real_cross = physical.cross_frame

    def recording_cross(frame, chunk, writer=None, reader=None):
        seen.append(bytes(chunk))
        return real_cross(frame, chunk, writer, reader)

    monkeypatch.setattr(physical, "cross_frame", recording_cross)
    return seen


def armed(machine, plan):
    return FaultEngine(plan).arm(machine.clock)


class TestEffects:
    def test_flip_byte_flips_one_byte(self):
        engine = engine_on_clock("channel.corrupt")
        data = b"A" * 64
        mangled = engine.flip_byte(data)
        assert type(mangled) is bytes and len(mangled) == len(data)
        assert sum(a != b for a, b in zip(mangled, data)) == 1
        assert data == b"A" * 64

    def test_corrupt_delivers_one_flipped_byte(self, machine, channel,
                                               crossings):
        armed(machine, "channel.corrupt:nth=1")
        data = b"A" * 64
        with pytest.raises(ChannelIntegrityError) as info:
            channel.send_to_guest(data)
        (delivered,) = crossings
        assert len(delivered) == len(data)
        assert sum(a != b for a, b in zip(delivered, data)) == 1
        assert info.value.actual_crc == crc32(delivered)

    def test_truncate_halves(self, machine, channel, crossings):
        armed(machine, "channel.truncate:nth=1")
        with pytest.raises(ChannelIntegrityError) as info:
            channel.send_to_host(b"B" * 64)
        assert crossings == [b"B" * 32]
        assert info.value.actual_crc == crc32(b"B" * 32)
        assert info.value.nbytes == 64

    def test_empty_payload_untouched_and_uncounted(self, machine, channel,
                                                   crossings):
        engine = armed(machine, "channel.corrupt:nth=1")
        assert channel.send_to_guest(b"") == 0
        assert engine.fired == []
        # nth=1 still pending: the next real payload gets it
        with pytest.raises(ChannelIntegrityError):
            channel.send_to_guest(b"xx")
        assert crossings != [b"xx"]
        assert [record["occurrence"] for record in engine.fired] == [1]

    def test_stall_duration(self):
        engine = engine_on_clock("channel.stall:nth=1:delay_us=500")
        assert engine.delay_at("channel.stall", "to-guest",
                               default_ns=100_000) == 500_000
        assert engine.delay_at("channel.stall", "to-guest",
                               default_ns=100_000) == 0

    def test_stall_default(self):
        engine = engine_on_clock("cvm.slow-boot:nth=1")
        assert engine.delay_at("cvm.slow-boot",
                               default_ns=250_000_000) == 250_000_000

    def test_channel_stall_charges_the_clock(self, machine, channel):
        def elapsed(plan):
            engine = armed(machine, plan)
            start = machine.clock.now_ns
            channel.send_to_guest(b"s" * 16)
            engine.disarm()
            return machine.clock.now_ns - start

        base = elapsed("irq.drop:nth=1")
        assert elapsed("channel.stall:nth=1") - base == 100_000
        assert elapsed("channel.stall:nth=1:delay_us=500") - base == 500_000

    def test_errno_defaults_to_eio(self):
        engine = engine_on_clock("wb.error:nth=1;binder.drop:errno=EPIPE")
        assert engine.errno_at("wb.error", "write") == errno.EIO
        assert engine.errno_at("wb.error", "write") is None
        assert engine.errno_at("binder.drop", "ioctl") == errno.EPIPE

    def test_fired_log_records_context(self):
        engine = engine_on_clock("proxy.kill:nth=1:call=open")
        assert engine.fires("proxy.kill", "open")
        record = engine.fired[0]
        assert record["site"] == "proxy.kill"
        assert record["call"] == "open"
        assert record["occurrence"] == 1

    def test_fired_log_records_kernel(self):
        engine = engine_on_clock("syscall.error:kernel=cvm")
        assert engine.errno_at("syscall.error", "open", "host") is None
        assert engine.errno_at("syscall.error", "open", "cvm") == errno.EIO
        assert engine.fired[0]["kernel"] == "cvm"


class TestSyscallPerturbation:
    def test_injected_errno(self, anception_world, enrolled_ctx):
        engine = FaultEngine("syscall.error:nth=1:call=open:errno=ENOSPC")
        engine.arm(anception_world.clock)
        try:
            with pytest.raises(SyscallError) as exc:
                enrolled_ctx.libc.open(
                    enrolled_ctx.data_path("doomed"), 0o102
                )
            assert exc.value.errno == errno.ENOSPC
            # only the first open is perturbed
            fd = enrolled_ctx.libc.open(
                enrolled_ctx.data_path("doomed"), 0o102
            )
            enrolled_ctx.libc.close(fd)
        finally:
            engine.disarm()

    def test_injected_delay_advances_clock(self, anception_world,
                                           enrolled_ctx):
        engine = FaultEngine("syscall.delay:nth=1:delay_us=1000")
        engine.arm(anception_world.clock)
        try:
            with anception_world.clock.measure() as slow:
                enrolled_ctx.libc.getpid()
            with anception_world.clock.measure() as fast:
                enrolled_ctx.libc.getpid()
            assert slow.elapsed_ns - fast.elapsed_ns == 1_000_000
        finally:
            engine.disarm()
