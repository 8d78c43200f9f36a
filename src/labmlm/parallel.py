"""Work on the usable CPUs: a pool for independent items and one step worker.

`usable_cpus` is the one count that sizes both and that a run's `"runtime"`
block records. `map_on_cpus` maps a function over independent items on a
pool of forked workers (the fine-tune grid's units). `Worker` is one forked
process that serves requests for the length of a call (the second row block
of each pre-training step); it shares state with its parent through arrays
from `shared_array`, mapped before the fork. Both live inside the call that
makes them: every process is joined before that call returns or raises, and
an exception in a worker reaches the caller with its type and message. With
one usable CPU, or no `fork` start method, both run their work inline.

Forked workers inherit the BLAS thread variables, so each result holds the
bits a serial call gives at that thread count. On Python >= 3.12, forking
while BLAS threads are running raises a DeprecationWarning.
"""

from __future__ import annotations

import mmap
import os
import pickle
import time
import traceback

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context(workers: int):
    """The `fork` multiprocessing context if `workers` >= 2 processes can run, else None.

    multiprocessing is imported only here: its machinery adds about 1 MB of
    resident memory to every process that never forks.
    """
    if workers < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def map_on_cpus(fn, items) -> list:
    """[fn(item) for item in items], on one forked worker per usable CPU.

    With one usable CPU, one item or no `fork` start method, the items map
    inline.
    """
    workers = min(usable_cpus(), len(items))
    ctx = _fork_context(workers)
    if ctx is None:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=ctx)
    try:
        return list(pool.map(fn, items, chunksize=1))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory.

    Processes forked after the call read and write the same bytes.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class WorkerError(Exception):
    """A worker that exited unasked, or the traceback chained to a worker's exception."""


# How long a waiting process spins before it sleeps on the semaphore. Waking
# a sleeping process took 0.2-0.5 ms on a 2-vCPU VM, where a spinning one
# answered within tens of microseconds. A pre-training step's serial work
# (1-3 ms) fits well inside; longer waits sleep, so an idle worker does not
# hold a CPU.
SPIN_S = 0.01
# Messages up to this size travel in shared memory, larger ones by pipe.
MAILBOX_BYTES = 1 << 16


class _Channel:
    """Messages one way: a pickle in a shared mailbox, then a semaphore post.

    Pickling small messages into shared memory, and spinning on the
    semaphore before sleeping on it, keeps a handoff to tens of
    microseconds; a pipe round trip cost 0.3-0.6 ms on a 2-vCPU VM. A message
    larger than the mailbox follows its post through the pipe.
    """

    def __init__(self, ctx):
        self.box = shared_array(MAILBOX_BYTES, np.uint8)
        self.size = shared_array(1, np.int64)
        self.posted = ctx.Semaphore(0)

    def put(self, message, conn) -> None:
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        small = len(data) <= self.box.size
        if small:
            self.box[: len(data)] = np.frombuffer(data, np.uint8)
        self.size[0] = len(data) if small else -1
        self.posted.release()
        if not small:
            conn.send_bytes(data)

    def get(self, conn, alive):
        """The next message; None once `alive()` turns false while waiting."""
        deadline = time.perf_counter() + SPIN_S
        while not self.posted.acquire(False):
            if time.perf_counter() > deadline:
                while not self.posted.acquire(timeout=0.1):
                    if not alive():
                        return None
                break
            os.sched_yield()
        n = int(self.size[0])
        return pickle.loads(conn.recv_bytes() if n < 0 else memoryview(self.box[:n]))


class Worker:
    """Serves `fn(request)` from one forked process, or inline.

    `submit(request)` hands the worker a request and returns at once;
    `result()` waits for the answer and re-raises the worker's exception with
    its type and message. One request is outstanding at a time. `fn` is fixed
    at the fork, so it may be any closure; requests and answers travel
    pickled, through `_Channel`s. With fewer than two usable CPUs or no
    `fork` start method, `result()` runs `fn` inline, so the caller's own
    work between the two calls comes first either way. Use it as a context
    manager: leaving the block stops and joins the process, on return and on
    raise.
    """

    def __init__(self, fn):
        self._fn = fn
        self._request = None
        self._proc = None
        ctx = _fork_context(usable_cpus())
        if ctx is not None:
            self._asks, self._answers = _Channel(ctx), _Channel(ctx)
            self._conn, child = ctx.Pipe()
            self._proc = ctx.Process(target=_serve, daemon=True,
                                     args=(fn, self._asks, self._answers, child, self._conn))
            self._proc.start()
            child.close()

    @property
    def forked(self) -> bool:
        return self._proc is not None

    def submit(self, request) -> None:
        if self._proc is None:
            self._request = request
        else:
            self._asks.put((True, request), self._conn)

    def result(self):
        if self._proc is None:
            request, self._request = self._request, None
            return self._fn(request)
        answer = self._answers.get(self._conn, self._proc.is_alive)
        if answer is None:
            self._proc.join()
            raise WorkerError(f"the worker exited with code {self._proc.exitcode} "
                              "before it answered")
        ok, value, trace = answer
        if not ok:
            raise value from WorkerError(trace)
        return value

    def close(self) -> None:
        """Stop and join the process, and drop `fn`; a no-op when already closed.

        Dropping `fn` frees what it holds (often its owner, which holds this
        worker) when the owner goes, not at the next cyclic collection.
        """
        if self._proc is not None:
            self._asks.put((False, None), self._conn)   # read once the current request is done
            self._proc.join()
            self._conn.close()
            self._proc = None
        self._fn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _serve(fn, asks, answers, conn, parent_end) -> None:
    """The worker's loop: answer each request until told to stop or orphaned."""
    parent_end.close()
    parent = os.getppid()
    while True:
        message = asks.get(conn, lambda: os.getppid() == parent)
        if message is None or not message[0]:
            return
        try:
            answer = (True, fn(message[1]), None)
        except Exception as exc:       # the parent re-raises it
            answer = (False, exc, traceback.format_exc())
        try:
            answers.put(answer, conn)
        except Exception:              # an unpicklable answer or exception
            answers.put((False, RuntimeError(f"worker answer could not be sent: "
                                             f"{answer[1]!r}"), traceback.format_exc()), conn)
