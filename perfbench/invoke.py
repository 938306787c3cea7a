"""Run one child process with a timeout and collect its exit status, output,
wall time and peak memory.

The child's stdout and stderr go to files in the run directory rather than
pipes, so a child that writes a lot can never block on a full pipe while
the client waits for it.  Exit is awaited on a pidfd with a timeout and the
child is then reaped with os.wait4, whose rusage gives the child's maxrss.
No thread or signal handler is involved: the client is one closed loop.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool
    timeout_s: float


def invoke(argv, *, timeout_s: float, env: dict, cwd: Path, run_dir: Path) -> Invocation:
    """Start argv, wait at most timeout_s, kill it if it is still running."""
    out_path = run_dir / "child.stdout"
    err_path = run_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
            timed_out = not ready
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall_s = time.perf_counter() - start
    # The child is reaped; tell Popen so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        argv=tuple(argv),
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=wall_s,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        timeout_s=timeout_s,
    )
