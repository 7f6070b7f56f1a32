"""Independent shares of a pass, split over forked processes.

Two passes split this way: the fixed-point pass of `residues` (one share
per set of grid times) and the Monte Carlo chunks of `trajectories` (one
share per set of chunks).  Worker w computes share w.  Worker 0 is the
calling process; workers 1..W-1 are `os.fork()` children that send their
share back through a pipe as raw bytes and leave by `os._exit`.  Every
share is computed by the same code whatever W is, so a caller that
combines the shares exactly gets the same bits from one process or many.
W is the usable cores, the affinity mask that `taskset` sets, so there is
no flag: `taskset -c 0` gives one process.
"""

from __future__ import annotations

import os
from typing import NoReturn

import numpy as np


class WorkerError(RuntimeError):
    """A forked worker died or returned short data."""


def usable_cores() -> int:
    """The cores this process may run on (its affinity mask, which
    `taskset` sets); 1 where the platform has no such call, so the passes
    fork on Linux only."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def worker_count(shares: int, work: int, min_work: int) -> int:
    """W for a pass of `work` units that splits into at most `shares`
    shares: the usable cores, capped at `shares`, once `work` reaches the
    caller's `min_work`; 1 below it, where a fork would cost more than it
    saves."""
    return min(usable_cores(), shares) if work >= min_work else 1


def _worker(share, w: int, pipe: int) -> NoReturn:
    """A forked worker's whole life: `share(w)` written to the `pipe` fd as
    raw bytes, then `os._exit`, so that no frame, atexit handler or stdio
    flush of the parent runs here."""
    code = 1
    try:
        view = memoryview(share(w)).cast("B")
        while view:
            view = view[os.write(pipe, view):]
        code = 0
    finally:
        os._exit(code)


def split(share, outputs: list[np.ndarray], what: str) -> None:
    """Fill outputs[w] with share w, for W = len(outputs) workers.

    `share(w)` returns a C-contiguous buffer holding outputs[w]'s values
    in its dtype, in row-major order.  Worker 0 is this process, the
    others `os.fork()` children that send their buffer through a pipe.
    Every child is reaped before this returns or raises, and killed first
    if this process's own share raises; a child that dies or sends short
    data raises `WorkerError`, naming the pass as `what`.  A fork that
    fails leaves its share to this process."""
    mine, children = [0], []   # children: (worker, pid, read end of its pipe)
    complete = False
    try:
        for w in range(1, len(outputs)):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                mine.append(w)
                continue
            if pid == 0:   # nothing but `_worker`, which never returns
                _worker(share, w, write)
            os.close(write)
            children.append((w, pid, open(read, "rb")))
        for w in mine:
            out = outputs[w]
            out[...] = np.frombuffer(share(w), dtype=out.dtype).reshape(out.shape)
        for w, _, pipe in children:
            out = outputs[w]
            data = pipe.read(out.nbytes)
            if len(data) != out.nbytes:
                raise WorkerError(f"{what} worker {w} sent {len(data)} of {out.nbytes} bytes")
            out[...] = np.frombuffer(data, dtype=out.dtype).reshape(out.shape)
        complete = True
    finally:
        failed = []
        for w, pid, pipe in children:
            pipe.close()
            if not complete:
                import signal   # here only: it costs 1.3 ms at import
                os.kill(pid, signal.SIGKILL)
        for w, pid, _ in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(f"worker {w} exited with {code}")
    if failed:
        raise WorkerError(f"{what} failed: " + ", ".join(failed))
