"""Tests for the persistent fork map (Workers) and worker_count."""

import multiprocessing
import os
import threading
from functools import partial

import pytest

from macforge.workers import Workers, worker_count


class WorkerFailed(Exception):
    pass


def tagged(payload, item):
    """(payload, item, pid of the process that ran it)."""
    return payload, item, os.getpid()


def fail_on(bad, payload, item):
    if item == bad:
        raise WorkerFailed(f"item {item}")
    return item


class TestWorkers:

    def test_children_serve_every_map_in_item_order(self):
        with Workers(tagged, 3) as pool:
            children = sorted(p.pid for p in
                              multiprocessing.active_children())
            assert len(children) == 2
            for payload, n in (("a", 7), ({"b": [1, 2]}, 5), ("c", 3)):
                got = pool.map(payload, range(n))
                assert [(p, i) for p, i, _ in got] == \
                    [(payload, i) for i in range(n)]
                # the caller runs the first, longest chunk itself
                pids = [pid for _, _, pid in got]
                first = -(-n // 3)
                assert pids[:first] == [os.getpid()] * first
                assert set(pids[first:]) <= set(children)
            assert sorted(p.pid for p in
                          multiprocessing.active_children()) == children
        assert multiprocessing.active_children() == []

    def test_fn_is_inherited_not_pickled(self):
        lock = threading.Lock()  # a closure over it cannot be pickled

        def fn(payload, item):
            with lock:
                return payload + item

        with Workers(fn, 2) as pool:
            assert pool.map(10, range(4)) == [10, 11, 12, 13]

    def test_fewer_items_than_workers(self):
        with Workers(tagged, 4) as pool:
            assert pool.map(None, []) == []
            (_, item, pid), = pool.map(None, ["x"])
            assert (item, pid) == ("x", os.getpid())
            got = pool.map(None, ["x", "y"])
            assert [i for _, i, _ in got] == ["x", "y"]
            assert got[1][2] != os.getpid()
        assert multiprocessing.active_children() == []

    def test_one_worker_starts_no_process(self):
        with Workers(tagged, 1) as pool:
            assert multiprocessing.active_children() == []
            assert [pid for _, _, pid in pool.map(None, range(3))] == \
                [os.getpid()] * 3

    def test_another_thread_running_starts_no_process(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with Workers(tagged, 3) as pool:
                assert multiprocessing.active_children() == []
                assert {pid for _, _, pid in pool.map(None, range(6))} == \
                    {os.getpid()}
        finally:
            release.set()
            thread.join()

    @pytest.mark.parametrize("bad", [0, 5, 8])
    def test_failure_re_raises_with_its_type_and_stops_every_child(self,
                                                                    bad):
        # item 0 fails in the caller, 5 and 8 in the second and third
        # chunk's children
        with Workers(partial(fail_on, bad), 3) as pool:
            assert pool.map(None, [1, 2, 3]) == [1, 2, 3]
            with pytest.raises(WorkerFailed, match=f"item {bad}"):
                pool.map(None, range(9))
            assert multiprocessing.active_children() == []
            # later maps run in the caller
            assert pool.map(None, [1, 2, 3]) == [1, 2, 3]
            assert multiprocessing.active_children() == []

    def test_child_that_dies_is_a_runtime_error(self):
        def die(payload, item):
            if item == 3:
                os._exit(7)
            return item

        with Workers(die, 2) as pool:
            with pytest.raises(RuntimeError, match="code 7"):
                pool.map(None, range(4))
        assert multiprocessing.active_children() == []

    def test_exception_outside_a_map_leaves_no_child(self):
        with pytest.raises(WorkerFailed):
            with Workers(tagged, 3) as pool:
                pool.map(None, range(6))
                raise WorkerFailed("after a map")
        assert multiprocessing.active_children() == []


class TestWorkerCount:

    def test_positive_is_kept(self):
        assert worker_count(3) == 3

    def test_zero_is_one_per_cpu(self):
        assert worker_count(0) == len(os.sched_getaffinity(0))
