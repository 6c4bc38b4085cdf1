"""Run one child process under an address-space cap and a wall-clock timeout.

The child gets its own session, so on timeout the whole process group is
killed; ``os.wait4`` reaps it and reports its peak resident set size.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

MEMORY_CAP_BYTES = 2 << 30
TIMEOUT_S = 120.0


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    def problem(self, allowed_codes=(0, 1)):
        """Why the run counts as failed, or None."""
        if self.timed_out:
            return f"timeout after {TIMEOUT_S:.0f} s"
        if "MemoryError" in self.stderr:
            return "memory cap hit"
        if "Traceback" in self.stderr:
            return "traceback: " + self.stderr.strip().splitlines()[-1]
        if self.returncode not in allowed_codes:
            return f"exit code {self.returncode}"
        return None


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, env, out_path, err_path) -> ChildResult:
    """Run ``argv`` to completion; stdout and stderr go through files."""
    timed_out = threading.Event()

    def on_timeout(pid):
        timed_out.set()
        _kill_group(pid)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
        except ProcessLookupError:
            pass  # already finished
        timer = threading.Timer(TIMEOUT_S, on_timeout, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left in its group
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       timed_out.is_set(), stdout, stderr)
