"""Run every catalogue script in all three modes; everything must agree.

The modes are native, synchronous delegation, and write-behind
delegation; each script's normalized outcome stream and final VFS tree
must be identical across all of them — the transparency property of
Section III extended to the async windows.
"""

import pytest

from repro.android.app import App, AppManifest

from tests.differential.catalogue import SCRIPTS
from tests.differential.harness import run_modes


class CatApp(App):
    manifest = AppManifest(
        "com.catalogue.probe",
        permissions=("INTERNET",),
        initial_data={"seed.txt": b"catalogue-seed"},
    )

    def main(self, ctx):
        return {"ok": True}


class EchoServer:
    def handle_data(self, conn, data):
        return b"echo:" + data


@pytest.mark.parametrize("label", sorted(SCRIPTS))
def test_catalogue_script_equivalent_in_all_modes(tri_worlds, label):
    entry = SCRIPTS[label]
    if entry["needs_server"]:
        for world in tri_worlds.values():
            world.internet.register_server(("echo.example", 7), EchoServer())
    halves = run_modes(tri_worlds, entry["script"], CatApp)
    reference_label = "native"
    reference = halves[reference_label]
    for mode, half in halves.items():
        assert half[0] == reference[0], (
            f"{label}: outcome stream diverges "
            f"({mode} vs {reference_label})"
        )
        assert half[1] == reference[1], (
            f"{label}: final VFS state diverges "
            f"({mode} vs {reference_label})"
        )


def test_full_fd_table_refuses_before_anything_runs(tri_worlds):
    """In the fd-limits script's full table, open(O_CREAT), pipe and
    socket are EMFILE with no file made, and no proxy keeps a
    descriptor the host refused."""
    script = SCRIPTS["fd-limits"]["script"]
    halves = run_modes(tri_worlds, script, CatApp)
    full = next(step for step, op in enumerate(script)
                if op[0] == "open" and getattr(op[1], "rel", "")
                == "cat-emfile.bin")
    for label, (outcomes, _tree) in halves.items():
        refused = [outcome[2:] for outcome in outcomes[full:]
                   if outcome[1] in ("open", "pipe", "socket", "access")]
        assert refused == [
            ("errno", "EMFILE"), ("errno", "EMFILE"), ("errno", "EMFILE"),
            ("errno", "EMFILE"), ("errno", "ENOENT"),
        ], label
    for label, world in tri_worlds.items():
        if label == "native":
            continue
        task = world.zygote.launched[-1].ctx.libc.task
        proxy = world.anception.proxies.proxy_for(task)
        assert proxy.guest_task.fd_table == {}, label
