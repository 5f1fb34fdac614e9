"""Tests for the persistent fork map (Workers), the one-call map over it
(map_images) and worker_count."""

import multiprocessing
import os
import threading
from functools import partial

import numpy as np
import pytest

from macforge.images import write_ppm
from macforge.ioutil import FormatError
from macforge.workers import Workers, map_images, worker_count


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


class TestMapImages:

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_item_order(self, workers):
        items = [f"c{k // 3}/i{k % 3}" for k in range(7)]
        assert map_images(str.upper, items, workers) == \
            [i.upper() for i in items]
        assert multiprocessing.active_children() == []

    def test_parent_runs_the_first_chunk(self):
        # 5 items over 2 workers: the caller takes the first 3
        pids = map_images(lambda _: os.getpid(), range(5), 2)
        assert pids[:3] == [os.getpid()] * 3
        assert len(set(pids[3:])) == 1 and pids[3] != os.getpid()

    def test_one_item_or_one_worker_starts_no_process(self):
        assert map_images(lambda _: os.getpid(), ["a"], 4) == [os.getpid()]
        assert map_images(lambda _: os.getpid(), range(3), 1) == \
            [os.getpid()] * 3

    @pytest.mark.parametrize("bad", [0, 5, 8])
    def test_failure_re_raises_with_its_type_and_leaves_no_child(self, bad):
        # item 0 fails in the caller, 5 and 8 in the second and third
        # chunk's children
        with pytest.raises(WorkerFailed, match=f"item {bad}"):
            map_images(partial(fail_on, bad, None), range(9), 3)
        assert multiprocessing.active_children() == []

    def test_non_finite_ppm_in_a_child_is_a_format_error(self, tmp_path):
        image = np.zeros((3, 2, 2))

        def write(k):
            write_ppm(tmp_path / f"{k}.ppm", image + (np.nan if k == 3 else 0))

        with pytest.raises(FormatError, match="non-finite"):
            map_images(write, range(4), 2)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "3.ppm").exists()


class TestWorkerCount:

    def test_positive_is_kept(self):
        assert worker_count(3) == 3

    def test_zero_is_one_per_cpu(self):
        assert worker_count(0) == len(os.sched_getaffinity(0))

    def test_negative_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            worker_count(-1)
