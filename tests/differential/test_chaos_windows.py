"""Multi-call windows under channel corruption: native-equal file bytes.

A multi-call window (``writev``/``readv``, a write-behind drain) submits
every call before its one flush.  When corruption fails a later submit,
the recovery supervisor retries the whole attempt, so the failed
attempt's earlier calls must not stay queued: a retry that shipped them
again would write the first segment twice.  Each case arms one
``channel.corrupt`` fault at a different host->guest transfer of the
script and compares outcomes and the final data tree with native.
"""

import pytest

from repro.android.app import App, AppManifest
from repro.core.recovery import RecoveryPolicy
from repro.faults.engine import FaultEngine
from repro.kernel import vfs
from repro.world import AnceptionWorld, NativeWorld

from tests.differential.harness import (
    H,
    P,
    data_kernel,
    run_script,
    vfs_tree,
)


class WindowApp(App):
    manifest = AppManifest("com.diff.windows")

    def main(self, ctx):
        return {"ok": True}


SCRIPT = [
    ("open", P("w.bin"), vfs.O_RDWR | vfs.O_CREAT, 0o600),
    ("writev", H(0), (b"A" * 10, b"B" * 10, b"C" * 10)),
    ("writev", H(0), (b"D" * 512, b"E" * 1024, b"F" * 2048)),
    ("pwrite", H(0), b"G" * 4096, 4096),
    ("pwrite", H(0), b"H" * 100, 8192),
    ("lseek", H(0), 0, 0),
    ("readv", H(0), (10, 20, 30)),
    ("fsync", H(0)),
    ("close", H(0)),
]

CONFIGS = {
    "sync": {},
    "async": {"async_delegation": True},
}


def _run(world, plan=None):
    """(outcomes, final data tree) of SCRIPT; ``plan`` is armed after
    launch, so its ``nth`` counts the script's own transfers."""
    running = world.install_and_launch(WindowApp())
    running.run()
    ctx = running.ctx
    if plan is not None:
        world.anception.recovery = RecoveryPolicy.chaos_default()
        FaultEngine(plan).arm(world.clock)
    outcomes = run_script(ctx, SCRIPT)
    anception = getattr(world, "anception", None)
    if anception is not None:
        anception.async_fence(ctx.libc.task)
    return outcomes, vfs_tree(data_kernel(world), ctx.data_dir)


@pytest.mark.parametrize("nth", range(1, 9))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_corrupted_window_applies_each_call_once(config, nth):
    native = _run(NativeWorld())
    chaos = _run(AnceptionWorld(**CONFIGS[config]),
                 f"channel.corrupt:nth={nth}:call=to-guest")
    assert chaos[0] == native[0], "outcome streams diverge"
    assert chaos[1] == native[1], "final file bytes diverge"
