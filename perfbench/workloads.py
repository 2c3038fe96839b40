"""The benchmark's three workloads: seeded op streams, executors, checks.

Every workload is a closed loop with one client, the foreground app: it
issues the next call only after the previous one returned.  The stream
is generated from ``--seed`` before anything is timed (the same seed
gives a byte-identical stream), and the program only ever receives the
generated calls.  A pass replays the whole stream on a freshly booted
world, so every pass of one seed does identical work and reaches
identical simulated time.

Each op counts as one attempt.  An op fails when the program raises, or
when its output check misses: read-back bytes against the digest of what
was written, binder replies against the first reply, sqlite row counts,
exited apps against zygote's live set, and -- on ``sync_redirect`` --
each Table I call's simulated latency against the repository's pinned
Table I values.
"""

from __future__ import annotations

import hashlib
import random
import string

from repro.android.app import App, AppManifest
from repro.android.sqlite import Database
from repro.errors import ReproError
from repro.kernel import vfs
from repro.workloads.antutu import (
    DatabaseIOWorkload,
    Graphics2DWorkload,
    Graphics3DWorkload,
)
from repro.workloads.sunspider import SUITES, SunSpiderApp
from repro.world import AnceptionWorld


PAGE = 4096
RDWR_NEW = vfs.O_RDWR | vfs.O_CREAT | vfs.O_TRUNC

TABLE1_PINS = {
    "getpid": (1_000, 0.76),
    "write": (1_000, 384.39),
    "pread": (1_000, 305.26),
    "binder128": (1_000_000, 30.99),
    "binder256": (1_000_000, 31.29),
}
"""Table I rows as this repository reproduces them (EXPERIMENTS.md, E1):
op -> (ns per unit, pinned value rounded to 2 decimals, in microseconds
or milliseconds).  Every such call on ``sync_redirect`` must land on its
pinned value."""


def stream_rng(workload, seed):
    """The one random source of a workload's op stream."""
    return random.Random(f"perfbench:{workload}:{seed}")


def digest(data):
    return hashlib.blake2b(bytes(data), digest_size=16).digest()


def interleave(ordered, free, rng):
    """Merge two op lists at random, keeping each list's own order."""
    merged, i, j = [], 0, 0
    while i < len(ordered) or j < len(free):
        left = len(ordered) - i
        if j >= len(free) or (left and rng.random() < left / (
                left + len(free) - j)):
            merged.append(ordered[i])
            i += 1
        else:
            merged.append(free[j])
            j += 1
    return merged


def blob(rng, size):
    """A binder payload whose marshaled size is ``size`` bytes."""
    return {"blob": "".join(rng.choices(string.ascii_letters, k=size - 16))}


class Stream:
    """A generated op stream: set-up inputs plus one op list per iteration."""

    def __init__(self, setup, iterations):
        self.setup = setup
        self.iterations = iterations

    def canonical(self):
        """A byte rendering of the whole stream (for determinism checks)."""
        return repr((self.setup, self.iterations)).encode()


class PassState:
    """One pass's world, app context, models of expected state, tallies."""

    def __init__(self, world, ctx):
        self.world = world
        self.ctx = ctx
        self.libc = ctx.libc
        self.clock = world.clock
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok, what):
        if not ok:
            self.fail(what)


class _BenchApp(App):
    def __init__(self, package):
        self._manifest = AppManifest(package)

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        return {"status": "ready"}


class Workload:
    """Base: a fixed number of iterations per pass, an op table."""

    name = ""
    iterations = 0

    def generate(self, seed):
        raise NotImplementedError

    def setup(self, stream):
        raise NotImplementedError

    def finish(self, state):
        """End-of-pass output checks (outside the timed iterations)."""

    def run(self, state, ops):
        """Execute one iteration's ops in order."""
        for op in ops:
            state.attempted += 1
            try:
                getattr(self, "op_" + op[0])(state, *op[1:])
            except ReproError as exc:
                state.fail(f"{op[0]}: {exc!r}")

    def _launch(self, world, package):
        running = world.install_and_launch(_BenchApp(package))
        running.run()
        return running.ctx

    def _pinned(self, state, kind, call, *args):
        """Run ``call`` and check its simulated latency against Table I."""
        start = state.clock.now_ns
        result = call(*args)
        unit_ns, pinned = TABLE1_PINS[kind]
        took = round((state.clock.now_ns - start) / unit_ns, 2)
        state.check(took == pinned,
                    f"{kind}: {took} per call, Table I pin is {pinned}")
        return result


# -- sync_redirect ------------------------------------------------------------

class SyncRedirect(Workload):
    """E1: Table I plus file ops, on the paper configuration."""

    name = "sync_redirect"
    iterations = 150
    STAGED_PAGES = 32

    def generate(self, seed):
        rng = stream_rng(self.name, seed)
        staged = [rng.randbytes(PAGE) for _ in range(self.STAGED_PAGES)]
        iterations = []
        for index in range(self.iterations):
            tag = f"{index:04d}-{rng.getrandbits(4 * rng.randint(2, 12)):x}"
            name, moved = f"scratch-{tag}.bin", f"moved-{tag}.bin"
            writes = [rng.randbytes(PAGE) for _ in range(4)]
            segments = tuple(rng.randbytes(rng.randint(256, 2048))
                             for _ in range(rng.randint(2, 6)))
            size = 4 * PAGE + sum(len(s) for s in segments)
            ordered = ([("open", name)] + [("write", d) for d in writes]
                       + [("writev", segments), ("lseek", 4 * PAGE),
                          ("readv", segments), ("fstat", size), ("close",),
                          ("stat", name, size), ("rename", name, moved),
                          ("unlink", moved)])
            free = ([("getpid",)] * 8
                    + [("pwrite", rng.randrange(self.STAGED_PAGES),
                        rng.randbytes(PAGE)) for _ in range(4)]
                    + [("pread", rng.randrange(self.STAGED_PAGES))
                       for _ in range(6)]
                    + [("binder", 128, blob(rng, 128)),
                       ("binder", 256, blob(rng, 256))])
            rng.shuffle(free)
            iterations.append(interleave(ordered, free, rng))
        return Stream({"staged": staged}, iterations)

    def setup(self, stream):
        world = AnceptionWorld()
        ctx = self._launch(world, "com.perfbench.sync")
        state = PassState(world, ctx)
        libc = state.libc
        state.staged_fd = libc.open(ctx.data_path("staged.bin"), RDWR_NEW)
        for page in stream.setup["staged"]:
            libc.write(state.staged_fd, page)
        state.pages = [digest(page) for page in stream.setup["staged"]]
        state.pid = libc.getpid()
        state.reply = ctx.call_service("location", "get_fix",
                                       {"blob": "w" * 112})
        libc.pread(state.staged_fd, PAGE, 0)
        state.fd = None
        return state

    def finish(self, state):
        libc = state.libc
        for page, expected in enumerate(state.pages):
            state.check(digest(libc.pread(state.staged_fd, PAGE, page * PAGE))
                        == expected, f"staged page {page} differs at end")
        libc.close(state.staged_fd)

    def op_getpid(self, state):
        pid = self._pinned(state, "getpid", state.libc.getpid)
        state.check(pid == state.pid, "getpid returned another pid")

    def op_open(self, state, name):
        state.fd = state.libc.open(state.ctx.data_path(name), RDWR_NEW)

    def op_write(self, state, data):
        done = self._pinned(state, "write", state.libc.write, state.fd, data)
        state.check(done == len(data), "short write")

    def op_writev(self, state, segments):
        done = state.libc.writev(state.fd, segments)
        state.check(done == sum(len(s) for s in segments), "short writev")

    def op_lseek(self, state, offset):
        state.check(state.libc.lseek(state.fd, offset) == offset,
                    "lseek landed elsewhere")

    def op_readv(self, state, segments):
        got = state.libc.readv(state.fd, [len(s) for s in segments])
        state.check([digest(g) for g in got] == [digest(s) for s in segments],
                    "readv bytes differ from writev")

    def op_fstat(self, state, size):
        state.check(state.libc.fstat(state.fd).st_size == size,
                    "fstat size differs")

    def op_close(self, state):
        state.libc.close(state.fd)
        state.fd = None

    def op_stat(self, state, name, size):
        state.check(state.libc.stat(state.ctx.data_path(name)).st_size == size,
                    "stat size differs")

    def op_rename(self, state, old, new):
        path = state.ctx.data_path
        state.libc.rename(path(old), path(new))

    def op_unlink(self, state, name):
        state.libc.unlink(state.ctx.data_path(name))

    def op_pwrite(self, state, page, data):
        done = state.libc.pwrite(state.staged_fd, data, page * PAGE)
        state.check(done == len(data), "short pwrite")
        state.pages[page] = digest(data)

    def op_pread(self, state, page):
        data = self._pinned(state, "pread", state.libc.pread,
                            state.staged_fd, PAGE, page * PAGE)
        state.check(digest(data) == state.pages[page],
                    f"pread of page {page} differs from what was written")

    def op_binder(self, state, size, payload):
        reply = self._pinned(state, f"binder{size}", state.ctx.call_service,
                             "location", "get_fix", payload)
        state.check(reply == state.reply, "binder reply differs")


# -- async_windows ------------------------------------------------------------

class AsyncWindows(Workload):
    """E1 extensions: read cache, write-behind and binder ring all on."""

    name = "async_windows"
    iterations = 100
    CACHE_PAGES = 64
    HOT_PAGES = 16
    SCAN_PAGES = 96
    SCAN_LENGTH = 40
    BURST_PAGES = 32
    BURST_WRITES = 24

    def generate(self, seed):
        rng = stream_rng(self.name, seed)
        setup = {
            "hot": [rng.randbytes(PAGE) for _ in range(self.HOT_PAGES)],
            "scan": [rng.randbytes(PAGE) for _ in range(self.SCAN_PAGES)],
        }
        iterations = []
        for _ in range(self.iterations):
            first = rng.randint(8, self.BURST_WRITES - 8)
            groups = []
            for count in (first, self.BURST_WRITES - first):
                burst = [("pwrite", rng.randrange(self.BURST_PAGES),
                          rng.randbytes(PAGE)) for _ in range(count)]
                pages = [op[1] for op in burst]
                burst.append((rng.choice(("fence", "fsync")),))
                burst.append(("verify", rng.choice(pages)))
                groups.append(burst)
            groups.append([("hot", rng.randrange(self.HOT_PAGES))
                           for _ in range(12)])
            start = rng.randrange(self.SCAN_PAGES)
            groups.append([("scan", (start + i) % self.SCAN_PAGES)
                           for i in range(self.SCAN_LENGTH)])
            groups.append([("oneway", blob(rng, rng.randint(64, 192)))
                           for _ in range(rng.randint(6, 12))]
                          + [("binder", blob(rng, 128))])
            groups.append([("batch", tuple(
                rng.randbytes(rng.randint(64, 512)) for _ in range(8)))])
            rng.shuffle(groups)
            iterations.append([op for group in groups for op in group])
        return Stream(setup, iterations)

    def setup(self, stream):
        world = AnceptionWorld(read_cache=True, cache_pages=self.CACHE_PAGES,
                               async_delegation=True, binder_ring=True)
        ctx = self._launch(world, "com.perfbench.async")
        state = PassState(world, ctx)
        libc = state.libc
        state.files = {}
        state.models = {}
        for name, pages in (("hot", stream.setup["hot"]),
                            ("scan", stream.setup["scan"])):
            fd = libc.open(ctx.data_path(f"{name}.bin"), RDWR_NEW)
            for page in pages:
                libc.write(fd, page)
            state.files[name] = fd
            state.models[name] = [digest(page) for page in pages]
        state.files["burst"] = libc.open(ctx.data_path("burst.bin"), RDWR_NEW)
        state.models["burst"] = {}
        state.files["batch"] = libc.open(ctx.data_path("batch.bin"), RDWR_NEW)
        state.batch_bytes = 0
        libc.fence()
        for page in range(self.HOT_PAGES):
            libc.pread(state.files["hot"], PAGE, page * PAGE)
        state.reply = ctx.call_service("location", "get_fix",
                                       {"blob": "w" * 112})
        return state

    def finish(self, state):
        libc = state.libc
        libc.fence()
        burst = state.files["burst"]
        for page, expected in sorted(state.models["burst"].items()):
            state.check(digest(libc.pread(burst, PAGE, page * PAGE))
                        == expected, f"burst page {page} differs at end")
        state.check(libc.fstat(state.files["batch"]).st_size
                    == state.batch_bytes, "batched writes lost bytes")
        for fd in state.files.values():
            libc.close(fd)

    def op_pwrite(self, state, page, data):
        done = state.libc.pwrite(state.files["burst"], data, page * PAGE)
        state.check(done == len(data), "short staged pwrite")
        state.models["burst"][page] = digest(data)

    def op_fence(self, state):
        state.libc.fence(state.files["burst"])

    def op_fsync(self, state):
        state.libc.fsync(state.files["burst"])

    def op_verify(self, state, page):
        data = state.libc.pread(state.files["burst"], PAGE, page * PAGE)
        state.check(digest(data) == state.models["burst"][page],
                    f"burst page {page} reads back different bytes")

    def _read(self, state, name, page):
        data = state.libc.pread(state.files[name], PAGE, page * PAGE)
        state.check(digest(data) == state.models[name][page],
                    f"{name} page {page} differs")

    def op_hot(self, state, page):
        self._read(state, "hot", page)

    def op_scan(self, state, page):
        self._read(state, "scan", page)

    def op_oneway(self, state, payload):
        state.check(state.ctx.call_service_oneway("location", "get_fix",
                                                  payload) is None,
                    "oneway binder call returned a reply")

    def op_binder(self, state, payload):
        state.check(state.ctx.call_service("location", "get_fix", payload)
                    == state.reply, "binder reply differs")

    def op_batch(self, state, chunks):
        fd = state.files["batch"]
        done = state.libc.syscall_batch([("write", fd, c) for c in chunks])
        state.check(done == [len(c) for c in chunks], "batched write short")
        state.batch_bytes += sum(len(c) for c in chunks)


# -- app_macro ----------------------------------------------------------------

SQLITE_ROWS = 10_000


class SqliteApp(App):
    """Section VI-B's sqlite run: 10,000 rows in one transaction.

    Checkpoints, re-opens the file to count the persisted rows, and
    deletes the database so the next launch starts from an empty file.
    """

    manifest = AppManifest("com.perfbench.sqlite")

    def __init__(self):
        self.row = b""

    def main(self, ctx):
        path = ctx.data_path("bench.db")
        db = Database(ctx.libc, path)
        db.create_table("rows")
        db.begin()
        for _ in range(SQLITE_ROWS):
            db.insert("rows", self.row)
        db.commit()
        db.checkpoint()
        db.close()
        again = Database(ctx.libc, path)
        persisted = again.row_count("rows")
        again.close()
        ctx.libc.unlink(path)
        return {"rows": persisted}


class AntutuDatabaseApp(DatabaseIOWorkload):
    """AnTuTu's DatabaseIO test, deleting its file so it can relaunch."""

    def main(self, ctx):
        result = super().main(ctx)
        ctx.libc.unlink(ctx.data_path("antutu.db"))
        return result


class _ResidentApp(App):
    def __init__(self, index):
        self._manifest = AppManifest(f"com.perfbench.resident{index:02d}")

    @property
    def manifest(self):
        return self._manifest

    def main(self, ctx):
        return {"resident": True}


class AppMacro(Workload):
    """E2-E4: launch -> run() -> exit over the paper's app workloads."""

    name = "app_macro"
    RESIDENTS = 23
    ROUNDS = 24
    KINDS = ("sqlite", "antutu_db", "antutu_2d", "antutu_3d", "sunspider")
    iterations = ROUNDS * len(KINDS)
    EXPECTED = {"sqlite": ("rows", SQLITE_ROWS),
                "antutu_db": ("rows", DatabaseIOWorkload.TRANSACTIONS
                              * DatabaseIOWorkload.ROWS_PER_TRANSACTION),
                "antutu_2d": ("frames", Graphics2DWorkload.FRAMES),
                "antutu_3d": ("frames", Graphics3DWorkload.FRAMES)}

    def generate(self, seed):
        rng = stream_rng(self.name, seed)
        suites = sorted(SUITES)
        rng.shuffle(suites)
        iterations = []
        for index in range(self.ROUNDS):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            row = rng.randbytes(rng.randint(24, 28))
            suite = suites[index % len(suites)]
            for kind in kinds:
                if kind == "sqlite":
                    iterations.append([("app", kind, row)])
                elif kind == "sunspider":
                    iterations.append([("app", kind, suite)])
                else:
                    iterations.append([("app", kind, None)])
        return Stream({}, iterations)

    def setup(self, stream):
        world = AnceptionWorld()
        for index in range(self.RESIDENTS):
            world.install_and_launch(_ResidentApp(index)).run()
        apps = {"sqlite": SqliteApp(), "antutu_db": AntutuDatabaseApp(),
                "antutu_2d": Graphics2DWorkload(),
                "antutu_3d": Graphics3DWorkload()}
        apps.update({suite: SunSpiderApp(suite) for suite in SUITES})
        for app in apps.values():
            world.install(app)
        state = PassState(world, world.zygote.launched[0].ctx)
        state.apps = apps
        return state

    def op_app(self, state, kind, arg):
        app = state.apps[arg if kind == "sunspider" else kind]
        if kind == "sqlite":
            app.row = arg
        running = state.world.launch(app)
        try:
            result = running.run()
        finally:
            running.ctx.libc.exit(0)
        if kind == "sunspider":
            state.check(result.get("suite") == arg, "sunspider ran another "
                        "suite")
        else:
            key, expected = self.EXPECTED[kind]
            state.check(result.get(key) == expected,
                        f"{kind}: {key}={result.get(key)}, want {expected}")
        state.check(not running.task.is_alive(), f"{kind} still alive after "
                    "exit")
        live = sum(1 for r in state.world.zygote.launched
                   if r.task.is_alive())
        state.check(live == self.RESIDENTS,
                    f"zygote counts {live} live apps, want {self.RESIDENTS}")


WORKLOADS = {cls.name: cls for cls in (SyncRedirect, AsyncWindows, AppMacro)}
