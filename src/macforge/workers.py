"""Pure per-item work mapped over forked worker processes.

Workers(fn, threads) forks its children once; each inherits fn through
the fork and serves the chunks of items later maps send it, so one set
of processes serves a whole run; map_images is one map over a Workers
of its own. threads counts processes, the caller's included, and
worker_count alone resolves it: 0 is one per CPU this process may run
on, n > 0 is n, and a negative count is a ValueError before any fork.

Each process also runs BLAS threads of its own, one per CPU by default
in the bundled OpenBLAS, so n processes would run n times as many
threads as there are CPUs. The macforge executable therefore calls
one_blas_thread before numpy loads; a library caller calls it (or sets
the variables itself) before its first numpy import.
"""

import multiprocessing
import os
import threading
from multiprocessing.reduction import ForkingPickler


def one_blas_thread():
    """Set each BLAS thread-count variable the environment lacks to 1.
    A value already set is kept, and numpy reads them only on import."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def worker_count(threads):
    """threads > 0 as is; 0 is one worker per CPU this process may run on."""
    if threads < 0:
        raise ValueError(f"worker count must be non-negative, got {threads}")
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(items, n):
    """items in n contiguous chunks, the first len(items) % n one longer."""
    size, extra = divmod(len(items), n)
    bounds = [k * size + min(k, extra) for k in range(n + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _sendable(exc):
    """exc if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        ForkingPickler.loads(ForkingPickler.dumps(exc))
    except Exception:
        return RuntimeError(f"worker raised {type(exc).__name__}: {exc}")
    return exc


def _serve(fn, conn, inherited):
    """A child's loop: for each (payload, chunk) received, run fn over
    the chunk, then send (True, result) per item in order, or
    (False, exception) and exit; exit on None or once the caller's end
    closes. The results are sent only once all are computed, because
    the caller reads them only after its own chunk: a child that sent
    as it went would stall on a full pipe. An exception or result that
    cannot cross the pipe arrives as a RuntimeError naming it."""
    # the caller's ends of every pipe forked so far: holding none, the
    # child sees end-of-file as soon as the caller closes its end
    for other in inherited:
        other.close()
    with conn:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return
            if task is None:
                return
            payload, chunk = task
            try:
                results = [fn(payload, item) for item in chunk]
            except Exception as exc:  # re-raised in the caller
                conn.send((False, _sendable(exc)))
                return
            for result in results:
                try:  # what send does, with the pickling apart
                    reply = ForkingPickler.dumps((True, result))
                except Exception as exc:
                    conn.send((False, RuntimeError(
                        f"worker result {type(result).__name__} cannot be "
                        f"sent: {type(exc).__name__}: {exc}")))
                    return
                conn.send_bytes(reply)


class Workers:
    """fn(payload, item) mapped over lists of items, in the calling
    process and worker_count(threads) - 1 children forked once, on entry.

    A child inherits fn through the fork, so fn is never pickled. A map
    sends each child only the payload and its contiguous chunk of items,
    and the child sends back one message per result, so the caller holds
    at most one pickled result at a time. The caller runs the first chunk
    itself; results come back in item order. An exception fn raises in a
    child re-raises in the caller with its type. A failure, an exception
    in the caller's chunk, and close() (or leaving a with block)
    terminate and join every child; maps after that run in the caller.
    With one process, where fork is unavailable, or while other threads run
    (a fork could copy a lock one of them holds), no process starts and
    a map is a plain loop. fn must be pure per item for a map to match
    that loop.
    """

    def __init__(self, fn, threads):
        self.fn = fn
        self._children = []  # (process, the caller's end of its pipe)
        n = worker_count(threads)
        if (n == 1 or threading.active_count() > 1
                or "fork" not in multiprocessing.get_all_start_methods()):
            return
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(n - 1):
                ours, theirs = context.Pipe()
                inherited = [conn for _, conn in self._children] + [ours]
                child = context.Process(target=_serve,
                                        args=(fn, theirs, inherited),
                                        daemon=True)
                self._children.append((child, ours))
                with theirs:  # the child's copy stays open
                    child.start()
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def map(self, payload, items):
        """[fn(payload, item) for item in items], over the caller and up
        to len(items) - 1 children."""
        items = list(items)
        n = min(len(self._children) + 1, len(items))
        if n <= 1:
            return [self.fn(payload, item) for item in items]
        chunks = _chunks(items, n)
        busy = list(zip(self._children, chunks[1:]))
        try:
            for (_, conn), chunk in busy:
                conn.send((payload, chunk))
            results = [self.fn(payload, item) for item in chunks[0]]
            for (child, conn), chunk in busy:
                for _ in chunk:
                    try:
                        ok, value = conn.recv()
                    except EOFError:
                        child.join()
                        raise RuntimeError(
                            f"worker exited with code {child.exitcode} "
                            f"before replying") from None
                    if not ok:
                        raise value
                    results.append(value)
        except BaseException:
            self.close()
            raise
        return results

    def close(self):
        """Terminate and join every child; later maps run in the caller."""
        children, self._children = self._children, []
        for child, conn in children:
            conn.close()
            if child.pid is not None:
                child.terminate()
                child.join()


def map_images(fn, items, threads):
    """[fn(item) for item in items], over a Workers of threads processes,
    at most one per item, started for this call alone."""
    items = list(items)
    n = max(1, min(worker_count(threads), len(items)))
    with Workers(lambda _, item: fn(item), n) as pool:
        return pool.map(None, items)
