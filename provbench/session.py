"""Process lifetime for one benchmark run: scratch directory, Spark
session, driver JVM, and every process those start.

A PySpark driver launches its JVM as a child process (``spark-submit``
execs ``java``). ``SparkSession.stop()`` stops the SparkContext but not
that JVM: it exits only once it sees EOF on its stdin, which normally
happens when the Python process dies, so the JVM can outlive a runner
that exits right after ``stop()``. :class:`SparkRun` therefore closes
the JVM's stdin itself, waits for the process, escalates to SIGTERM and
SIGKILL if it hangs, and then waits for every other process that was a
descendant of the runner before the JVM went away.

:class:`StopGuard` turns SIGTERM, and a wall-clock deadline, into a
:class:`Stopped` exception in the main thread, so every exit path runs
the same cleanup.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds the JVM gets to exit after its stdin closes, then after SIGTERM.
_JVM_EXIT_WAIT_S = 20.0
_TERM_WAIT_S = 5.0


class Stopped(BaseException):
    """Raised in the main thread on SIGTERM or when the deadline expires.

    A ``BaseException`` so that ``except Exception`` blocks in py4j and in
    the program under test do not swallow it.
    """


def _stat(pid: int) -> tuple[int, int, str] | None:
    """(ppid, start time, state) of a process, or None if it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name is parenthesised and may contain spaces
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), int(fields[19]), fields[0]


def descendants(root_pid: int) -> dict[int, int]:
    """Live descendants of ``root_pid``: pid → start time (zombies excluded)."""
    children: dict[int, list[int]] = {}
    info: dict[int, tuple[int, int, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        st = _stat(int(entry))
        if st is not None:
            info[int(entry)] = st
            children.setdefault(st[0], []).append(int(entry))
    out: dict[int, int] = {}
    todo = list(children.get(root_pid, []))
    while todo:
        pid = todo.pop()
        if pid in out:
            continue
        if info[pid][2] != "Z":
            out[pid] = info[pid][1]
        todo.extend(children.get(pid, []))
    return out


def alive(pid: int, start: int) -> bool:
    st = _stat(pid)
    return st is not None and st[1] == start and st[2] != "Z"


def _wait_gone(procs: dict[int, int], timeout: float) -> dict[int, int]:
    deadline = time.monotonic() + timeout
    left = {p: s for p, s in procs.items() if alive(p, s)}
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = {p: s for p, s in left.items() if alive(p, s)}
    return left


def _signal_all(procs: dict[int, int], sig: int) -> None:
    for pid, start in procs.items():
        if alive(pid, start):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass


def reap(procs: dict[int, int]) -> None:
    """Wait for processes that are not our children; TERM, then KILL."""
    left = _wait_gone(procs, _TERM_WAIT_S)
    if left:
        _signal_all(left, signal.SIGTERM)
        left = _wait_gone(left, _TERM_WAIT_S)
    if left:
        _signal_all(left, signal.SIGKILL)
        left = _wait_gone(left, _TERM_WAIT_S)
    if left:
        raise RuntimeError(f"processes survived SIGKILL: {sorted(left)}")


class SparkRun:
    """Owns a scratch directory and a local-mode SparkSession.

    All files Spark, the JVM, Derby and Python's ``tempfile`` write go to
    ``scratch_root/run-<pid>``, which :meth:`close` removes. ``close``
    returns only after the JVM and every process started under this one
    has exited.
    """

    def __init__(self, scratch_root: Path, cores: int, app: str):
        self.dir = scratch_root / f"run-{os.getpid()}"
        self.cores = cores
        self.app = app
        self.spark = None
        self._proc = None
        self.jvm_pid: int | None = None

    def start(self):
        """Launch the driver JVM and return the SparkSession."""
        tmp = self.dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(self.dir / "local")
        os.environ.pop("PYSPARK_GATEWAY_PORT", None)
        os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
        import tempfile

        tempfile.tempdir = str(tmp)
        from pyspark import SparkContext
        from pyspark.sql import SparkSession

        java_opts = f"-Djava.io.tmpdir={tmp} -Dderby.system.home={self.dir}"
        self.spark = (
            SparkSession.builder.appName(self.app)
            .master(f"local[{self.cores}]")
            .config("spark.driver.memory", "1g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.extraJavaOptions", java_opts)
            .config("spark.local.dir", str(self.dir / "local"))
            .config("spark.sql.warehouse.dir", str(self.dir / "warehouse"))
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            # the settings of jobs/_session.py
            .config("spark.sql.shuffle.partitions", "16")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self._proc = SparkContext._gateway.proc
        self.jvm_pid = self._proc.pid
        self.spark.sparkContext.setLogLevel("ERROR")
        return self.spark

    def jvm_peak_rss_mb(self) -> float:
        """Peak resident set of the driver JVM so far (VmHWM)."""
        for line in Path(f"/proc/{self.jvm_pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def kill_jvm(self) -> None:
        """Hard stop, safe to call from another thread."""
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()

    def close(self, graceful: bool = True) -> None:
        """Stop Spark, wait for the JVM and all descendants, delete scratch.

        ``graceful=False`` skips ``spark.stop()``: after a signal landed in
        the middle of a py4j call the gateway connection cannot be trusted,
        and closing the JVM's stdin still runs Spark's shutdown hooks.
        """
        from pyspark import SparkContext

        if self._proc is None and SparkContext._gateway is not None:
            self._proc = SparkContext._gateway.proc  # start() failed midway
        try:
            others = descendants(os.getpid())
            if self._proc is not None:
                others.pop(self._proc.pid, None)
                if graceful and self.spark is not None:
                    try:
                        self.spark.stop()
                    except Exception as e:  # noqa: BLE001 - cleanup must go on
                        print(f"spark.stop() failed: {e!r}", file=sys.stderr)
                gateway = SparkContext._gateway
                try:
                    gateway.shutdown()  # close py4j's sockets while the JVM is up
                except Exception as e:  # noqa: BLE001 - cleanup must go on
                    print(f"py4j shutdown failed: {e!r}", file=sys.stderr)
                self._stop_jvm()
            reap(others)
            reap(descendants(os.getpid()))
        finally:
            self._reset_pyspark()
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                self.dir.parent.rmdir()
            except OSError:
                pass

    def _stop_jvm(self) -> None:
        proc = self._proc
        if proc.stdin is not None and not proc.stdin.closed:
            try:
                proc.stdin.close()  # the gateway exits on EOF
            except OSError:
                pass
        for action, wait in (
            (None, _JVM_EXIT_WAIT_S),
            (proc.terminate, _TERM_WAIT_S),
            (proc.kill, _TERM_WAIT_S),
        ):
            if action is not None and proc.poll() is None:
                action()
            try:
                proc.wait(timeout=wait)
                return
            except subprocess.TimeoutExpired:
                continue
        raise RuntimeError(f"driver JVM {proc.pid} survived SIGKILL")

    def _reset_pyspark(self) -> None:
        from pyspark import SparkContext

        SparkContext._gateway = None
        SparkContext._jvm = None
        self._proc = None
        self.spark = None


class StopGuard:
    """Raise :class:`Stopped` in the main thread on SIGTERM or at a deadline.

    At the deadline the guard signals the main thread; if the run has not
    finished ``grace_s`` later (say, the main thread is blocked in a py4j
    call), it calls ``hard_stop`` (kill the JVM), which unblocks it.
    After :meth:`quiet` (called before cleanup starts) signals no longer
    raise, so they cannot interrupt the cleanup.
    """

    def __init__(self, deadline_s: float, hard_stop, grace_s: float = 10.0):
        self.deadline_s = deadline_s
        self.grace_s = grace_s
        self.hard_stop = hard_stop
        self._stopping = False
        self._done = threading.Event()
        self._main = threading.main_thread().ident

    def _on_signal(self, signum, frame) -> None:
        if self._stopping:
            return
        self._stopping = True
        raise Stopped(f"stopped by {signal.Signals(signum).name}")

    def _watch(self) -> None:
        if self._done.wait(self.deadline_s):
            return
        print(f"deadline of {self.deadline_s:.0f} s reached", file=sys.stderr)
        signal.pthread_kill(self._main, signal.SIGTERM)
        if not self._done.wait(self.grace_s):
            self.hard_stop()

    def quiet(self) -> None:
        self._stopping = True

    def __enter__(self) -> "StopGuard":
        self._old = signal.signal(signal.SIGTERM, self._on_signal)
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stopping = True
        self._done.set()
        self._thread.join()
        signal.signal(signal.SIGTERM, self._old)
