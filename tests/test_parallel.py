"""The usable-CPU count, shared arrays and the one-process step worker."""

import gc
import multiprocessing
import os
import time
import weakref

import numpy as np
import pytest

from labmlm import parallel
from labmlm.errors import NumericError
from labmlm.parallel import Worker, WorkerError, shared_array


@pytest.fixture(params=[1, 2], ids=["inline", "forked"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    return request.param


def test_usable_cpus_is_positive():
    assert parallel.usable_cpus() >= 1


def test_shared_array_is_zeroed_and_shaped():
    a = shared_array((3, 4), np.float32)
    assert a.shape == (3, 4) and a.dtype == np.float32 and not a.any()
    assert shared_array(0, np.float64).shape == (0,)


def test_worker_answers_in_order_and_sees_shared_writes(cpus):
    shared = shared_array(4, np.int64)

    def fn(request):
        shared[1] = shared[0] * 10          # reads the parent's write
        return request, os.getpid()

    with Worker(fn) as worker:
        assert worker.forked == (cpus == 2)
        for i in range(5):
            shared[0] = i
            worker.submit(("req", i))
            answer, pid = worker.result()
            assert answer == ("req", i) and shared[1] == 10 * i
            assert (pid != os.getpid()) == worker.forked
    assert multiprocessing.active_children() == []


def test_messages_larger_than_the_mailbox_go_by_pipe(cpus):
    big = np.arange(3 * parallel.MAILBOX_BYTES // 8, dtype=np.int64)
    with Worker(lambda request: request * 2) as worker:
        for request in (big, np.arange(4), big):
            worker.submit(request)
            assert np.array_equal(worker.result(), request * 2)
    assert multiprocessing.active_children() == []


def test_worker_error_keeps_its_type_and_message(cpus):
    def fn(request):
        if request == "bad":
            raise NumericError(f"bad request in process {os.getpid()}")
        return request

    with Worker(fn) as worker:
        worker.submit("bad")
        with pytest.raises(NumericError, match="bad request in process") as info:
            worker.result()
        if worker.forked:
            assert isinstance(info.value.__cause__, WorkerError)
            assert "Traceback" in str(info.value.__cause__)
        worker.submit("fine")                # the worker keeps serving
        assert worker.result() == "fine"
    assert multiprocessing.active_children() == []


def test_worker_joined_when_the_block_raises(cpus):
    with pytest.raises(RuntimeError, match="caller failed"):
        with Worker(lambda r: r) as worker:
            worker.submit(1)                 # left unread
            raise RuntimeError("caller failed")
    assert multiprocessing.active_children() == []


def test_worker_that_exits_is_a_named_error(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with Worker(lambda r: os._exit(3)) as worker:
        worker.submit(1)
        with pytest.raises(WorkerError, match="exited with code 3"):
            worker.result()
    assert multiprocessing.active_children() == []


def test_alternating_updates_lose_nothing(monkeypatch):
    """Parent and worker take turns incrementing one shared counter, as the
    training step does with the parameters; a lost handoff shows as a count."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    counter = shared_array(1, np.int64)

    def bump(n):
        counter[0] += n
        return int(counter[0])

    deadline = time.perf_counter() + 20.0
    with Worker(bump) as worker:
        for i in range(1, 2001):
            worker.submit(1)
            assert worker.result() == 2 * i - 1
            counter[0] += 1
            assert time.perf_counter() < deadline
    assert counter[0] == 4000
    assert multiprocessing.active_children() == []


def test_closed_worker_frees_its_owner_without_the_cyclic_collector(cpus):
    """An owner that keeps its worker (a reference cycle through `fn`) goes
    with its last reference once the worker is closed."""
    class Owner:
        def serve(self, request):
            return request

    owner = Owner()
    gc.disable()
    try:
        with Worker(owner.serve) as owner.worker:
            owner.worker.submit(1)
            assert owner.worker.result() == 1
        gone = weakref.ref(owner)
        del owner
        assert gone() is None
    finally:
        gc.enable()
