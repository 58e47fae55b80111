"""Shared plumbing: checkout paths, statistics, the environment header and
the two ways of running a CLI command (cold process or in-process click)."""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

CLI_TIMEOUT_S = 60


def require_source():
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "skyvault" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'skyvault'}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SKYVAULT_STATE", None)
    return env


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def spread_directories(path: Path) -> bool:
    """Sets ext4's top-directory flag (``chattr +T``) on ``path``, so that
    each directory made in it starts in a block group of its own.

    Without it, every state directory lands next to its parent, among the
    files that earlier set-ups and runs deleted, and making files there is
    slow while those deletions are recent: 600 new files took 0.2-0.4 s
    there against about 0.01 s in a fresh group on ext4 without a journal
    (2-vCPU Xeon VM), which made set-up times depend on what ran before.
    Returns whether the flag is set; other filesystems go without it.
    """
    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, get_flags, struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, set_flags, struct.pack("i", flags | topdir))
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def work_dir(name: str) -> Path:
    """A new directory in the work directory, named ``name`` plus a random
    suffix: under the top-directory flag, a directory's block group follows
    from its name, and a fresh name keeps it away from the groups where
    the runs before this one deleted their files."""
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))


def restore_state(pristine: Path, live: Path):
    """Make ``live`` equal to ``pristine``, rewriting only files that differ.

    Cheaper than a fresh copy when most bytes are unchanged, and it adds
    no writeback of its own to the next command's timing.
    """
    live.mkdir(parents=True, exist_ok=True)
    for path in sorted(live.rglob("*"), reverse=True):  # children first
        twin = pristine / path.relative_to(live)
        if path.is_dir() and not path.is_symlink():
            if not twin.is_dir():
                path.rmdir()
        elif not twin.is_file():
            path.unlink()
    for twin in sorted(pristine.rglob("*")):
        path = live / twin.relative_to(pristine)
        if twin.is_dir():
            path.mkdir(exist_ok=True)
        elif (not path.is_file() or path.stat().st_size != twin.stat().st_size
              or path.read_bytes() != twin.read_bytes()):
            shutil.copy2(twin, path)


class SpeedProbe:
    """Gauges how fast the machine runs a CLI command while a workload runs.

    On a shared host whole minutes run tens of percent faster or slower
    for every process alike. The probe is a fixed reference program that
    does what a command does, without skyvault: a cold Python process
    that imports the libraries the CLI imports, reads 16 MiB of 256 KiB
    files and hashes them, round-trips JSON records and touches 32 MiB of
    fresh memory. No change to the program moves it. It runs once per
    ``every_s`` seconds of measuring time, off the clock.

    Its CPU time (user + system) is the gauge: on a 2-vCPU Xeon VM its wall
    also took stalls in steps of 50 ms, which made the median jump from
    one step to the next. ``scale`` turns a wall measured beside it
    into the wall at the reference speed, at which the probe's CPU time
    is ``REFERENCE_S``.
    """

    REFERENCE_S = 0.25
    FILES = 64
    FILE_BYTES = 256 << 10
    CODE = """\
import hashlib, json, os, sys
import click, http.server
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
chunks = []
for entry in sorted(os.scandir(sys.argv[1]), key=lambda entry: entry.name):
    with open(entry.path, "rb") as f:
        chunks.append(f.read())
hashlib.sha256(b"".join(chunks)).digest()
rows = [json.loads(json.dumps({"id": i, "owner": "c%02d" % (i % 50), "uses": i % 7}))
        for i in range(3000)]
heap = bytearray(32 << 20)
for i in range(0, len(heap), 4096):
    heap[i] = 1
"""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.cpu: list[float] = []
        self.files = work_dir("probe")
        for i in range(self.FILES):
            (self.files / f"{i:02d}").write_bytes(
                hashlib.sha256(i.to_bytes(2, "big")).digest() * (self.FILE_BYTES // 32))
        self.env = child_env()

    def due(self, measured: float) -> float:
        """Runs the probe if one is due by ``measured``; returns its wall."""
        if len(self.cpu) * self.every_s > measured:
            return 0.0
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.CODE, str(self.files)],
                                env=self.env, cwd=WORK)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"the speed probe exited with {proc.returncode}")
        self.cpu.append(usage.ru_utime + usage.ru_stime)
        return wall

    def scale(self, wall: float) -> float:
        return wall * self.REFERENCE_S / median(self.cpu)

    def summary(self) -> str:
        return (f"speed probe: {len(self.cpu)} runs, CPU time p50 {median(self.cpu) * 1000:.1f} ms;"
                f" times marked 'scaled' are scaled to a probe CPU time of"
                f" {self.REFERENCE_S * 1000:.0f} ms")


# -- environment header ----------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mount(path: Path) -> tuple[str, str, str]:
    """(device, mount point, filesystem type) of the mount holding ``path``."""
    best = ("unknown", "", "unknown")
    target = str(path.resolve())
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) < 3:
                continue
            mount = parts[1]
            if ((target == mount or target.startswith(mount.rstrip("/") + "/"))
                    and len(mount) > len(best[1])):
                best = (parts[0], mount, parts[2])
    except OSError:
        pass
    return best


def env_header(state_dir: Path) -> list[str]:
    import cryptography
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    device, mount, fstype = _mount(state_dir)
    if fstype == "ext4":
        journaled = any(Path("/proc/fs/jbd2").glob(f"{Path(device).name}-*"))
        fstype += "" if journaled else ", no journal"
    return [
        f"# python {platform.python_version()}  cryptography {cryptography.__version__}"
        f"  nproc {nproc}  cpu {_cpu_model()}",
        f"# state filesystem: {fstype} ({device} on {mount or '?'})",
        "# skyvault never calls fsync; its state reads are page-cache hits and its writes"
        " are buffered. On ext4",
        "# a file rewritten by truncation is queued for writeback when it is closed, so"
        " such rewrites reach",
        "# the disk: latencies are this machine's, not a storage device's.",
    ]


# -- running commands --------------------------------------------------------


@dataclass
class Op:
    """One user operation: a CLI argv plus the checks around it."""

    kind: str
    argv: list[str]
    check: Callable[[str], Optional[str]]
    prepare: Optional[Callable[[], None]] = None
    user_bytes: int = 0
    starts_round: bool = False


@dataclass
class Sample:
    kind: str
    wall_s: float
    ok: bool
    user_bytes: int
    round_no: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class ColdCli:
    """Runs each command as ``python -m skyvault`` in a fresh process.

    The commands are started by ``spawner.py``, so that their peak RSS is
    theirs and not the benchmark's; ``close`` stops it.
    """

    def __init__(self, state_dir: Path):
        self.state_dir = state_dir
        self.peak_rss_kib = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            env=child_env(), cwd=WORK, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __call__(self, argv: list[str], kind: str = "") -> tuple[bool, float, str, str]:
        cmd = [sys.executable, "-m", "skyvault", "--state", str(self.state_dir), *argv]
        self.spawner.stdin.write(json.dumps({"argv": cmd, "cwd": str(WORK),
                                             "timeout": CLI_TIMEOUT_S}) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the command spawner exited")
        reply = json.loads(line)
        self.peak_rss_kib = reply["peak_rss_kib"]
        return reply["returncode"] == 0, reply["wall_s"], reply["stdout"], reply["stderr"]

    def close(self):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()


class InProcessCli:
    """Calls the click command tree in this process, as the traced replay does."""

    def __init__(self, state_dir: Path, around=None):
        from skyvault import cli
        self.main = cli.main
        self.state_dir = state_dir
        self.around = around or (lambda kind, fn: fn())

    def __call__(self, argv: list[str], kind: str = "") -> tuple[bool, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        args = ["--state", str(self.state_dir), *argv]

        def invoke():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    self.main.main(args=args, prog_name="skyvault",
                                   standalone_mode=False)
                except SystemExit as exc:
                    return exc.code in (0, None)
                except Exception as exc:  # a crash is a failed op, not a dead run
                    err.write(f"{type(exc).__name__}: {exc}")
                    return False
            return True

        start = time.perf_counter()
        ok = self.around(kind, invoke)
        wall = time.perf_counter() - start
        return ok, wall, out.getvalue(), err.getvalue()


def run_op(op: Op, runner, tally: Tally) -> Sample:
    """Prepare, run and check one op; a failed check is a failed op."""
    if op.prepare is not None:
        op.prepare()
    ok, wall, out, err = runner(op.argv, op.kind)
    tally.attempted += 1
    problem = None if ok else f"exit: {err.strip()[:200]}"
    if problem is None:
        problem = op.check(out)
    if problem is not None:
        tally.fail(f"{op.kind}: {problem}")
    return Sample(op.kind, wall, problem is None, op.user_bytes)


def run_ops(ops, runner, tally: Tally, seconds: float, pause=None) -> list[Sample]:
    """Closed loop, one client: each op starts after the previous one ends.

    The loop runs whole rounds only: it starts a round while the round, at
    the mean length of those before it, would end no more than half a
    round past ``seconds``. A run then ends on a round boundary, so its
    mix of commands does not depend on where the deadline fell.

    ``pause(measured_s)`` runs before each op, off the clock: its time
    counts neither as measuring time nor toward any op.
    """
    samples = []
    rounds = 0
    first_round_start = None
    start = time.perf_counter()
    paused = 0.0
    for op in ops:
        measured = time.perf_counter() - start - paused
        if op.starts_round:
            if first_round_start is None:
                first_round_start = measured
            else:
                rounds += 1
                mean_round = (measured - first_round_start) / rounds
                if measured + 0.5 * mean_round > seconds:
                    break
        if pause is not None:
            paused += pause(measured)
        sample = run_op(op, runner, tally)
        sample.round_no = rounds
        samples.append(sample)
    return samples
