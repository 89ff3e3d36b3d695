"""Tests of the benchmark runner: every exit path leaves no process behind
and no file in the checkout, and BENCHMARK.json matches the runner.

Most tests start a real run with its own JVM (about 30 s each)::

    python3 -m pytest provbench/test_bench.py -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from session import alive, descendants  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Runs run.main() in a child interpreter after applying ``patch``.
_LAUNCH = """
import sys
sys.path[:0] = ["provbench", "src"]
import checks, run
{patch}
sys.exit(run.main({argv!r}))
"""
_ARGV = ["--workload", "why_r1", "--seed", "0", "--seconds", "1", "--trace", "0"]


def _checkout_files() -> set[str]:
    out = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__")]
        rel = os.path.relpath(dirpath, ROOT)
        out.update(os.path.join(rel, f) for f in filenames + dirnames)
    return out


def _run(patch: str = "", argv=_ARGV, sigterm_after: float | None = None):
    """Run the runner, watching its process tree; returns (code, stdout, seen)."""
    before = _checkout_files()
    proc = subprocess.Popen(
        [sys.executable, "-c", _LAUNCH.format(patch=patch, argv=argv)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    seen: dict[int, int] = {}
    names: set[str] = set()
    done = threading.Event()

    def watch():
        while not done.is_set():
            for pid, start in descendants(proc.pid).items():
                seen[pid] = start
                try:  # read every time: spark-submit execs java in place
                    names.add(Path(f"/proc/{pid}/comm").read_text().strip())
                except OSError:
                    pass
            time.sleep(0.1)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        if sigterm_after is not None:
            deadline = time.monotonic() + 120
            while "java" not in names and time.monotonic() < deadline:
                time.sleep(0.2)
            time.sleep(sigterm_after)
            proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=200)
    finally:
        done.set()
        watcher.join(timeout=10)
        if proc.poll() is None:
            proc.kill()
    assert not watcher.is_alive()
    assert "java" in names, f"the driver JVM was never seen: {names}"
    left = {pid for pid, start in seen.items() if alive(pid, start)}
    assert not left, f"processes left running: {left}"
    assert _checkout_files() == before
    return proc.returncode, out, seen


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_normal_end():
    code, out, _ = _run()
    assert code == 0
    res = _result(out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)


def test_failed_check_counts_and_exits_nonzero():
    code, out, _ = _run("checks.check_summary = lambda s: ['injected']")
    assert code == 1
    res = _result(out)
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_exception_after_start():
    code, out, _ = _run(
        "def boom(*a):\n    raise RuntimeError('injected')\n"
        "checks.check_engine = boom"
    )
    assert code == 1 and out == ""


def test_sigterm():
    argv = ["--workload", "why_r1", "--seed", "0", "--seconds", "60"]
    code, out, _ = _run(argv=argv, sigterm_after=12)
    assert code == 3 and out == ""


def test_deadline():
    argv = ["--workload", "why_r1", "--seed", "0", "--seconds", "60"]
    code, out, _ = _run("run.DEADLINE_S = 25", argv=argv)
    assert code == 3 and out == ""


def test_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "provbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".tmp"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "provbench/run.py", *_ARGV], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
