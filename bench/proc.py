"""Run one child process with a deadline and collect what it left behind.

Popen.communicate() reaps the child itself and so throws away its resource
usage; this runner reads the pipes with a selector and reaps the child with
os.wait4(), which returns the child's own peak RSS.
"""

import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass

READ_CHUNK = 1 << 16


@dataclass
class ProcResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float      # spawn to reap, measured on CLOCK_MONOTONIC
    maxrss_mb: float   # the child's own peak resident set size
    timed_out: bool
    extra: bytes       # what the child wrote to its extra pipe, if any


def run(argv, env, cwd, timeout_s, term_grace_s=0.0, extra_pipe=False):
    """Run argv to completion or until timeout_s has passed.

    At the deadline the child gets SIGKILL, or SIGTERM followed by SIGKILL
    after term_grace_s when a grace period is given, so that a traced child
    can write out its spans. With extra_pipe, the write end of a pipe is
    passed to the child, which finds its descriptor number in the
    environment variable BENCH_TRACE_FD.
    """
    extra_r = extra_w = None
    if extra_pipe:
        extra_r, extra_w = os.pipe()
        env = {**env, "BENCH_TRACE_FD": str(extra_w)}
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, cwd=cwd,
            pass_fds=(extra_w,) if extra_pipe else (),
        )
    finally:
        if extra_w is not None:
            os.close(extra_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    streams = {out_fd: [], err_fd: []}
    if extra_r is not None:
        streams[extra_r] = []
    selector = selectors.DefaultSelector()
    for fd in streams:
        selector.register(fd, selectors.EVENT_READ)
    deadline = start + timeout_s
    kill_at = None
    timed_out = False
    try:
        while selector.get_map():
            now = time.monotonic()
            if not timed_out and now >= deadline:
                timed_out = True
                if term_grace_s > 0:
                    proc.send_signal(signal.SIGTERM)
                    kill_at = now + term_grace_s
                else:
                    proc.kill()
            if kill_at is not None and now >= kill_at:
                proc.kill()
                kill_at = None
            wake = kill_at if kill_at is not None else deadline
            for key, _ in selector.select(timeout=max(wake - now, 0.01)):
                data = os.read(key.fd, READ_CHUNK)
                if data:
                    streams[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        selector.close()
        proc.stdout.close()
        proc.stderr.close()
        if extra_r is not None:
            os.close(extra_r)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        returncode=proc.returncode,
        stdout=b"".join(streams[out_fd]).decode("utf-8", "replace"),
        stderr=b"".join(streams[err_fd]).decode("utf-8", "replace"),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out,
        extra=b"".join(streams[extra_r]) if extra_r is not None else b"",
    )
