"""Independent shares of a pass, split over forked processes.

Three passes split this way: the row derivation of `residues` (one share
per set of target states), its fixed-point pass (one share per set of
grid times) and the Monte Carlo chunks of `trajectories` (one share per
set of chunks).  Worker w computes share w.  Worker 0 is the calling
process; workers 1..W-1 are `os.fork()` children that send their share
back through a pipe, as raw bytes or pickled, and leave by `os._exit`.
Every share is computed by the same code whatever W is, so a caller that
combines the shares exactly gets the same bits from one process or many.
W is the usable cores, the affinity mask that `taskset` sets, so there is
no flag: `taskset -c 0` gives one process.
"""

from __future__ import annotations

import os
import pickle
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


def _pickled(share):
    """`share` with its value pickled into bytes, as a child sends it."""
    return lambda w: pickle.dumps(share(w), pickle.HIGHEST_PROTOCOL)


def split(share, outputs: list, what: str) -> None:
    """Fill outputs[w] with share w, for W = len(outputs) workers.

    A share takes one of two forms, set by outputs[w]:
    - an array: `share(w)` returns a C-contiguous buffer holding its values
      in its dtype, in row-major order, copied into it.  A child sends the
      raw bytes, so their number is known, and one that sends fewer raises
      `WorkerError`.
    - None: `share(w)` returns any picklable value, which takes its place.
      A child sends it pickled, of a size not known in advance, and this
      process unpickles it as it reads, a 64 KiB frame at a time, so the
      pickle is never held whole here; one that breaks off raises
      `WorkerError`.

    Worker 0 is this process, the others `os.fork()` children.  Every child
    is reaped before this returns or raises, and killed first if this
    process's own share raises; a child that dies raises `WorkerError`,
    naming the pass as `what`.  A fork that fails leaves its share to this
    process."""
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
                _worker(_pickled(share) if outputs[w] is None else share, w, write)
            os.close(write)
            children.append((w, pid, open(read, "rb")))
        for w in mine:
            out = outputs[w]
            if out is None:
                outputs[w] = share(w)
            else:
                out[...] = np.frombuffer(share(w), dtype=out.dtype).reshape(out.shape)
        for w, _, pipe in children:
            out = outputs[w]
            if out is None:
                try:
                    outputs[w] = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError) as exc:
                    raise WorkerError(f"{what} worker {w} sent a broken share: {exc}") from None
                continue
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
