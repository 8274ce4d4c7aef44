"""The one worker-thread pool, which streamed tracking, the whole-clip
spectrogram, concert synthesis and the CNN share: numpy and OpenBLAS
release the interpreter lock inside their array operations, so work items
that are mostly numpy overlap on the machine's cores. No other module
starts a thread.
"""

import contextvars
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


WORKERS = min(2, usable_cpus())     # worker threads, items in flight


@contextmanager
def workers():
    """Keep WORKERS threads for a `with` block; it gets run(fn, items),
    which is [fn(item) for item in items] computed on them.

    At most WORKERS items are in flight: once that many are pending, the
    next is drawn from `items` only after the oldest result is collected,
    so an iterator that builds its items lazily holds no more than that
    many at once. Results come back in item order, and an item's
    exception is raised from run as it is. Each item runs in a copy of
    the context run was called in, so that context variables such as
    numpy's errstate hold on the threads too. The threads are gone when
    the block ends, normally or by an exception.
    """
    n, executor = WORKERS, ThreadPoolExecutor(max_workers=WORKERS)

    def run(fn, items):
        results, pending = [], deque()
        for item in items:
            pending.append(executor.submit(contextvars.copy_context().run,
                                           fn, item))
            if len(pending) == n:
                results.append(pending.popleft().result())
        return results + [future.result() for future in pending]

    try:
        yield run
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def ordered_map(fn, items):
    """run(fn, items) of `workers`, on threads of this call's own."""
    with workers() as run:
        return run(fn, items)
