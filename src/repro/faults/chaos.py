"""The chaos harness: run a workload with faults armed, report exactly.

``run_chaos`` boots a fresh Anception world, arms a :class:`FaultEngine`
on its clock, switches the Anception layer's recovery on, and runs one
of the traced workloads (or any callable) under trace-bus capture.
Because the whole stack is deterministic in simulated time, the
resulting report — faults fired, recoveries taken, metrics, elapsed
nanoseconds — serializes byte-identically for the same (workload, plan,
seed) triple; CI diffs two runs to prove it.
"""

from __future__ import annotations

import json

from repro.android.app import App, AppManifest
from repro.errors import SyscallError
from repro.faults.engine import FaultEngine
from repro.faults.plan import FaultPlan
from repro.obs.runner import TRACE_WORKLOADS, capture_run, warm_or_boot


class ChaosApp(App):
    """The enrolled app the chaos harness torments."""

    manifest = AppManifest("com.chaos.prey", permissions=("INTERNET",))

    def main(self, ctx):
        return {"status": "ready"}


DEFAULT_PLAN = (
    "channel.corrupt:nth=2;"
    "irq.drop:nth=5;"
    "proxy.kill:nth=2:call=open;"
    "cvm.crash:nth=4:call=open"
)
"""One rule per delegation layer — a tour of everything the
recovery path can survive, each firing exactly once."""


class ChaosResult:
    """Everything one chaos run produced."""

    def __init__(self, workload, seed, plan, status, error, elapsed_ns,
                 faults, recovery_log, stats, records, metrics, world):
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.status = status
        self.error = error
        self.elapsed_ns = elapsed_ns
        self.faults = faults
        self.recovery_log = recovery_log
        self.stats = stats
        self.records = records
        self.metrics = metrics
        self.world = world

    def report(self):
        """Deterministic JSON-able summary of the run."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "plan": self.plan,
            "status": self.status,
            "error": self.error,
            "elapsed_ns": self.elapsed_ns,
            "faults": self.faults,
            "recoveries": [list(entry) for entry in self.recovery_log],
            "stats": self.stats,
            "metrics": self.metrics.snapshot(),
        }


def chaos_report_json(result):
    """Serialize a chaos report with fully deterministic ordering."""
    return json.dumps(result.report(), indent=2, sort_keys=True)


def run_chaos(workload, seed=0, faults=None, recovery=True, observe=True,
              world=None, **knobs):
    """Run ``workload`` with ``faults`` armed; never hangs, always reports.

    ``workload`` is a name from the traced-workload registry or any
    callable taking an app context.  ``faults`` is a plan string, a
    :class:`FaultPlan`, or ``None`` for :data:`DEFAULT_PLAN`.
    ``recovery=False`` runs with recovery off (the default), which is
    how the degradation guarantee — a well-defined errno, not a hang —
    is exercised.  ``knobs`` configure the fresh world (see
    :func:`~repro.obs.runner.boot_obs_world`); a fault site needs the
    mechanism it targets switched on (``cache.*`` the read cache,
    ``wb.*`` write-behind, ``binder.*`` the binder ring, ``pool.*``
    more than one lane).

    Workloads with ``needs_world = True`` (the fleet driver) receive
    the booted world instead of the prey app's context.

    ``world`` warm-starts the campaign on an already-booted (typically
    snapshot-restored) world.  A restored mid-campaign world resumes
    with its armed fault engine's trigger cursor and PRNG intact unless
    a fresh plan is armed here.
    """
    if callable(workload):
        fn, name = workload, getattr(workload, "__name__", "custom")
    else:
        fn = TRACE_WORKLOADS.get(workload)
        name = workload
        if fn is None:
            known = ", ".join(sorted(TRACE_WORKLOADS))
            raise ValueError(f"unknown workload {workload!r} (known: {known})")
    plan = FaultPlan.parse(DEFAULT_PLAN if faults is None else faults)

    world, ctx = warm_or_boot(world, ChaosApp(), **knobs)
    target = world if getattr(fn, "needs_world", False) else ctx
    if recovery:
        world.anception.recovery = True
    engine = FaultEngine(plan, seed=seed)
    engine.arm(world.clock)
    status, error = "ok", None

    def _run():
        nonlocal status, error
        try:
            fn(target)
        except SyscallError as exc:
            status, error = "syscall-error", str(exc)

    try:
        elapsed_ns, records, metrics = capture_run(world, _run, observe)
    finally:
        engine.disarm()

    return ChaosResult(
        workload=name,
        seed=seed,
        plan=plan.describe(),
        status=status,
        error=error,
        elapsed_ns=elapsed_ns,
        faults=engine.report(),
        recovery_log=list(world.anception.recovery_log),
        stats=world.anception.stats(),
        records=records,
        metrics=metrics,
        world=world,
    )
