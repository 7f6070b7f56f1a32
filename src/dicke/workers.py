"""Independent shares of a pass, split over forked processes.

Three passes split this way: the residue rows (one share per set of
target states, each derived, rounded and evaluated where it is derived),
the fixed-point pass by grid time (one share per set of times, for
Laplace's and Jordan's rows and a residue table too small to split by
rows) and the Monte Carlo chunks of `trajectories` (one share per set of
chunks).  Worker w computes share w, any picklable value, and
`split` returns the W values.  Worker 0 is the calling process, which
keeps its value as it is; workers 1..W-1 are `os.fork()` children that
send theirs back through a pipe pickled, and leave by `os._exit`.  A
value loads with the same ints, floats and arrays it was sent with, and
every share is computed by the same code whatever W is, so a caller that
combines the shares exactly gets the same bits from one process or many.

A share that needs something only all the shares know (the residue rows'
common fixed-point scale) is a generator: it yields a first message, the
caller's `reply` turns the W first messages into one message, each share
gets it back from its `yield` and returns its value; a child reads the
reply through a second pipe.  Inside a share `worker_count` is 1, so a
worker never forks again.  W is the usable cores, the affinity mask that
`taskset` sets, so there is no flag: `taskset -c 0` gives one process.
"""

from __future__ import annotations

import os
import pickle
from typing import NoReturn


class WorkerError(RuntimeError):
    """A forked worker died or sent a broken share."""


_inside = False   # True while this process computes a share


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
    saves, and 1 inside a share, so that a worker never forks again."""
    if _inside:
        return 1
    return min(usable_cores(), shares) if work >= min_work else 1


def _worker(share, w: int, pipe: int) -> NoReturn:
    """A forked worker's whole life: `share(w)` pickled into the `pipe` fd
    a frame at a time, then `os._exit`, so that no frame, atexit handler or
    stdio flush of the parent runs here."""
    global _inside
    _inside = True
    code = 1
    try:
        with open(pipe, "wb") as out:
            pickle.dump(share(w), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _write(fd: int, data: bytes) -> None:
    """All of `data` into the pipe `fd`."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _resume(steps, message):
    """The value a two-message share returns once it gets `message`."""
    try:
        steps.send(message)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a two-message share yields once")


def _exchange(share, w: int, pipe: int, replies: int):
    """A forked worker's side of a two-message share: the first message
    pickled into the `pipe` fd, the reply read from the `replies` fd, then
    the share's value."""
    steps = share(w)
    _write(pipe, pickle.dumps(next(steps), pickle.HIGHEST_PROTOCOL))
    with open(replies, "rb") as inp:
        message = pickle.load(inp)
    return _resume(steps, message)


def _load(pipe, w: int, what: str):
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise WorkerError(f"{what} worker {w} sent a broken share: {exc}") from None


def split(share, workers: int, what: str, reply=None) -> list:
    """The W = `workers` shares of a pass, share w being `share(w)`, any
    picklable value.

    Worker 0 is this process, which keeps its value as it is; the others
    are `os.fork()` children, each of which sends its value pickled.  This
    process unpickles it as it reads, a 64 KiB frame at a time, so the
    pickle is never held whole here; one that breaks off raises
    `WorkerError`.  Every child is reaped before this returns or raises,
    and killed first if this process's own share or `reply` raises; a
    child that dies raises `WorkerError`, naming the pass as `what`.  A
    fork that fails leaves its share to this process.

    With `reply`, `share(w)` is a generator that yields one picklable
    message and then returns the share's value: `reply` gets the W
    messages in worker order and returns the one message that every
    share's `yield` then gives back."""
    global _inside
    values = [None] * workers
    mine, children = [0], []   # children: (worker, pid, read end of its pipe)
    replies = {}   # worker -> write end of the pipe its reply goes down
    complete = False
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            back = os.pipe() if reply else None
            try:
                pid = os.fork()
            except OSError:
                for fd in (read, write, *(back or ())):
                    os.close(fd)
                mine.append(w)
                continue
            if pid == 0:   # nothing but `_worker`, which never returns
                _worker(share if back is None else
                        lambda w: _exchange(share, w, write, back[0]), w, write)
            os.close(write)
            if back:
                os.close(back[0])
                replies[w] = back[1]
            children.append((w, pid, open(read, "rb")))
        outer, _inside = _inside, True
        try:
            if reply is None:
                for w in mine:
                    values[w] = share(w)
            else:
                steps = {w: share(w) for w in mine}
                firsts = [None] * workers
                for w in mine:
                    firsts[w] = next(steps[w])
                for w, _, pipe in children:
                    firsts[w] = _load(pipe, w, what)
                message = reply(firsts)
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                while replies:
                    w, fd = replies.popitem()
                    try:
                        _write(fd, data)
                    except OSError as exc:   # the child is gone
                        raise WorkerError(f"{what} worker {w} took no reply: {exc}") from None
                    finally:
                        os.close(fd)
                for w in mine:
                    values[w] = _resume(steps[w], message)
        finally:
            _inside = outer
        for w, _, pipe in children:
            values[w] = _load(pipe, w, what)
        complete = True
    finally:
        failed = []
        for fd in replies.values():
            os.close(fd)
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
