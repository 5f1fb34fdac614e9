"""Tests for the persistent fork map (Workers), the one-call map over it
(map_images), worker_count and the one meaning of threads in every
entry that takes a process count."""

import multiprocessing
import os
import threading
from functools import partial
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from macforge.backbone import init_params, tiny_spec
from macforge.images import write_ppm
from macforge.ioutil import FormatError
from macforge.numeric import SeededStream
from macforge.pipeline import Extractor, embed_images
from macforge.training import embedded, image_workers
from macforge.workers import Workers, map_images, worker_count


class WorkerFailed(Exception):
    pass


class LambdaError(Exception):
    """Holds a lambda, so it cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class TwoArgumentError(Exception):
    """Pickles, but its args alone cannot rebuild it."""

    def __init__(self, item, reason):
        super().__init__(f"item {item}: {reason}")


def tagged(payload, item):
    """(payload, item, pid of the process that ran it)."""
    return payload, item, os.getpid()


def fail_on(bad, payload, item):
    if item == bad:
        raise WorkerFailed(f"item {item}")
    return item


def raise_lambda_error(payload, item):
    if item == 3:
        raise LambdaError(f"item {item}")
    return item


def raise_two_argument_error(payload, item):
    if item == 3:
        raise TwoArgumentError(item, "bad")
    return item


def return_lambda(payload, item):
    return (lambda: item) if item == 3 else item


@pytest.fixture
def starts(monkeypatch):
    """The fork processes started during a test."""
    started = []
    original = ForkProcess.start

    def counting_start(process):
        started.append(process)
        return original(process)

    monkeypatch.setattr(ForkProcess, "start", counting_start)
    return started


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

    @pytest.mark.parametrize("fn, message", [
        (raise_lambda_error, "worker raised LambdaError: item 3$"),
        (raise_two_argument_error,
         "worker raised TwoArgumentError: item 3: bad$"),
        (return_lambda, "worker result function cannot be sent: "),
    ], ids=["exception-not-pickled", "exception-not-rebuilt",
            "result-not-pickled"])
    def test_reply_that_cannot_cross_the_pipe_names_itself(self, fn,
                                                          message):
        # item 3 is in the child's chunk of range(4) at two processes
        with Workers(fn, 2) as pool:
            with pytest.raises(RuntimeError, match=message):
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


class TestThreads:
    """Every entry that takes a process count reads threads one way,
    resolved inside workers: 0 is one process per usable CPU (here
    three), a one-call map starts no more than it has items, and a
    negative count is a ValueError before anything forks."""

    CPUS = 3
    KINDS = ("Workers", "image_workers", "map_images", "embed_images")

    @pytest.fixture
    def starts(self, starts, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(self.CPUS)))
        return starts

    @staticmethod
    def run(kind, threads, n):
        """n items mapped over threads processes by one entry."""
        ids = [f"i{k}" for k in range(n)]
        if kind == "Workers":
            with Workers(lambda _, item: item.upper(), threads) as pool:
                return pool.map(None, ids)
        if kind == "map_images":
            return map_images(str.upper, ids, threads)
        spec = tiny_spec()
        stream = SeededStream(60)
        params = init_params(spec, stream.derive("net"))
        images = {i: stream.derive("image", k).random((3, 32, 32))
                  .astype(np.float32) for k, i in enumerate(ids)}
        if kind == "embed_images":
            return [d.tobytes() for d in embed_images(
                Extractor(spec, params), images, threads).values()]
        with image_workers(spec, images.__getitem__, threads) as pool:
            return [d.tobytes() for d in embedded(pool, params, {}, ids)]

    @pytest.mark.parametrize("kind, n", [(kind, 5) for kind in KINDS] + [
        ("map_images", 2), ("embed_images", 2)])
    def test_zero_is_one_process_per_cpu(self, starts, kind, n):
        want = self.run(kind, 1, n)
        assert starts == []
        assert self.run(kind, 0, n) == want
        assert len(starts) == min(self.CPUS, n) - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["map_images", "embed_images"])
    def test_empty_map_at_zero_starts_none(self, starts, kind):
        assert self.run(kind, 0, 0) == []
        assert starts == []

    @pytest.mark.parametrize("n", [5, 0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_is_an_error_before_any_fork(self, starts, kind, n):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            self.run(kind, -1, n)
        assert starts == []
