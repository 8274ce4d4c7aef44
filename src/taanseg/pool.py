"""The one worker-thread pool that streamed tracking and concert synthesis
share: numpy releases the interpreter lock inside its array operations,
so work items that are mostly numpy overlap on the machine's cores.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items, workers):
    """[fn(item) for item in items], computed on `workers` threads.

    At most `workers` items are in flight: once that many are pending,
    the next is drawn from `items` only after the oldest result is
    collected, so an iterator that builds its items lazily holds no more
    than that many at once.
    Results come back in item order. The pool is gone when this returns
    or raises, and an item's exception is raised here as it is.
    """
    results, pending = [], deque()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == workers:
                results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results
