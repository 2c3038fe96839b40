"""Property-based tests on the redirection invariants themselves.

These are the paper's principles as properties: whatever mix of file
operations an enrolled app performs, (1) its data-directory contents live
in the CVM and never the host, (2) the same program in a native world
yields byte-identical file contents (transparency), and (3) every
decision the layer takes is one of the four defined outcomes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.app import App, AppManifest
from repro.kernel.process import Credentials
from repro.world import AnceptionWorld, NativeWorld

from tests.recorders import record_decisions


ROOT = Credentials(0)

_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "append", "read", "delete"]),
        st.integers(min_value=0, max_value=3),  # which of 4 files
        st.binary(min_size=0, max_size=64),
    ),
    min_size=1,
    max_size=15,
)


class _FileOpsApp(App):
    def __init__(self, package, operations):
        self._manifest = AppManifest(package)
        self.operations = operations

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        from repro.errors import SyscallError
        from repro.kernel import vfs

        results = []
        for op, index, data in self.operations:
            path = ctx.data_path(f"file{index}")
            try:
                if op == "write":
                    ctx.libc.write_file(path, data)
                elif op == "append":
                    fd = ctx.libc.open(
                        path, vfs.O_WRONLY | vfs.O_CREAT | vfs.O_APPEND
                    )
                    ctx.libc.write(fd, data)
                    ctx.libc.close(fd)
                elif op == "read":
                    results.append(ctx.libc.read_file(path))
                elif op == "delete":
                    ctx.libc.unlink(path)
            except SyscallError as exc:
                results.append(f"err:{exc.errno}")
        final = {}
        for index in range(4):
            try:
                final[index] = ctx.libc.read_file(ctx.data_path(f"file{index}"))
            except SyscallError:
                final[index] = None
        return results, final


_counter = [0]


def _fresh_package():
    _counter[0] += 1
    return f"com.prop.app{_counter[0]}"


class TestTransparency:
    @given(operations=_ops)
    @settings(max_examples=25, deadline=None)
    def test_native_and_anception_agree_byte_for_byte(self, operations):
        package = _fresh_package()
        native = NativeWorld()
        anception = AnceptionWorld()
        native_result = native.install_and_launch(
            _FileOpsApp(package, operations)
        ).run()
        anception_result = anception.install_and_launch(
            _FileOpsApp(package, operations)
        ).run()
        assert native_result == anception_result

    @given(operations=_ops)
    @settings(max_examples=25, deadline=None)
    def test_no_data_file_ever_touches_host(self, operations):
        package = _fresh_package()
        world = AnceptionWorld()
        running = world.install_and_launch(_FileOpsApp(package, operations))
        running.run()
        data_dir = f"/data/data/{package}"
        host_files = world.kernel.vfs.listdir(data_dir, ROOT)
        assert host_files == []  # enrollment copies, runtime never writes

    @given(operations=_ops)
    @settings(max_examples=15, deadline=None)
    def test_decisions_always_wellformed(self, operations):
        from repro.core.policy import Decision

        package = _fresh_package()
        world = AnceptionWorld()
        running = world.install_and_launch(_FileOpsApp(package, operations))
        with pytest.MonkeyPatch.context() as monkeypatch:
            decisions = record_decisions(monkeypatch)
            running.run()
        assert decisions
        for _pid, _name, decision in decisions:
            assert isinstance(decision, Decision)
