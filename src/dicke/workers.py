"""Independent shares of a pass, split over forked processes.

Three passes split this way: the row derivation of `residues` (one share
per set of target states), its fixed-point pass (one share per set of
grid times) and the Monte Carlo chunks of `trajectories` (one share per
set of chunks).  Worker w computes share w, any picklable value, and
`split` returns the W values.  Worker 0 is the calling process, which
keeps its value as it is; workers 1..W-1 are `os.fork()` children that
send theirs back through a pipe pickled, and leave by `os._exit`.  A
value loads with the same ints, floats and arrays it was sent with, and
every share is computed by the same code whatever W is, so a caller that
combines the shares exactly gets the same bits from one process or many.
W is the usable cores, the affinity mask that `taskset` sets, so there is
no flag: `taskset -c 0` gives one process.
"""

from __future__ import annotations

import os
import pickle
from typing import NoReturn


class WorkerError(RuntimeError):
    """A forked worker died or sent a broken share."""


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
    """A forked worker's whole life: `share(w)` pickled into the `pipe` fd
    a frame at a time, then `os._exit`, so that no frame, atexit handler or
    stdio flush of the parent runs here."""
    code = 1
    try:
        with open(pipe, "wb") as out:
            pickle.dump(share(w), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def split(share, workers: int, what: str) -> list:
    """The W = `workers` shares of a pass, share w being `share(w)`, any
    picklable value.

    Worker 0 is this process, which keeps its value as it is; the others
    are `os.fork()` children, each of which sends its value pickled.  This
    process unpickles it as it reads, a 64 KiB frame at a time, so the
    pickle is never held whole here; one that breaks off raises
    `WorkerError`.  Every child is reaped before this returns or raises,
    and killed first if this process's own share raises; a child that dies
    raises `WorkerError`, naming the pass as `what`.  A fork that fails
    leaves its share to this process."""
    values = [None] * workers
    mine, children = [0], []   # children: (worker, pid, read end of its pipe)
    complete = False
    try:
        for w in range(1, workers):
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
            values[w] = share(w)
        for w, _, pipe in children:
            try:
                values[w] = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise WorkerError(f"{what} worker {w} sent a broken share: {exc}") from None
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
    return values
