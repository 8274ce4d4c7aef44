"""The one worker pool (`taanseg.pool`): item order, the bound on items in
flight, errors raised as they are, no thread left behind, and one set of
threads for every map of a `workers()` block."""

import threading
import time

import numpy as np
import pytest

from taanseg import pool
from taanseg.errors import DataError


class Boom(Exception):
    """An exception no library code raises."""


def slow_square(k):
    # later items finish first, so the order comes from the map alone
    time.sleep(0.001 * (5 - k % 5))
    return k * k


@pytest.fixture(params=[1, 2, 3])
def n_workers(request, monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", request.param)
    return request.param


def test_workers_are_bounded():
    assert 1 <= pool.WORKERS <= 2
    assert pool.WORKERS <= pool.usable_cpus()


def test_results_in_item_order(n_workers):
    assert pool.ordered_map(slow_square, range(23)) == [
        k * k for k in range(23)]
    assert pool.ordered_map(slow_square, []) == []


def test_lazy_items_drawn_at_most_workers_ahead(n_workers):
    drawn, done, ahead = [], [], []
    lock = threading.Lock()

    def items():
        for k in range(20):
            with lock:
                drawn.append(k)
                ahead.append(len(drawn) - len(done))
            yield k

    def fn(k):
        time.sleep(0.001)
        with lock:
            done.append(k)
        return k

    # an item is collected only once it is done, so the items drawn and
    # not yet done bound those drawn ahead of the collected results
    assert pool.ordered_map(fn, items()) == list(range(20))
    assert max(ahead) <= n_workers


@pytest.mark.parametrize("exc", [Boom("item 3"), DataError("bad item")],
                         ids=["foreign", "taanseg"])
def test_item_exception_raised_unchanged(n_workers, exc):
    def fn(k):
        if k == 3:
            raise exc
        return k

    with pytest.raises(type(exc)) as info:
        pool.ordered_map(fn, range(10))
    assert info.value is exc


def test_no_thread_left(n_workers):
    before = threading.active_count()
    pool.ordered_map(slow_square, range(10))
    assert threading.active_count() == before

    def fn(k):
        if k == 4:
            raise Boom("item 4")
        return slow_square(k)

    with pytest.raises(Boom):
        pool.ordered_map(fn, range(10))
    assert threading.active_count() == before
    with pytest.raises(Boom):
        with pool.workers() as run:
            run(slow_square, range(5))
            run(fn, range(10))
    assert threading.active_count() == before


def test_one_set_of_threads_per_block(n_workers):
    # every item of a round waits until WORKERS items are in flight at once,
    # so each round runs on every one of the block's threads
    barrier = threading.Barrier(n_workers, timeout=10)

    def fn(_):
        barrier.wait()
        return threading.get_ident()

    before = threading.active_count()
    with pool.workers() as run:
        rounds = [set(run(fn, range(2 * n_workers))) for _ in range(4)]
        assert threading.active_count() == before + n_workers
    assert len(rounds[0]) == n_workers
    assert all(idents == rounds[0] for idents in rounds)
    assert threading.active_count() == before


def test_items_run_in_the_callers_context(n_workers):
    # numpy's errstate is a context variable, which a new thread does not
    # inherit on its own
    def overflow_mode(_):
        return np.geterr()["over"]

    with np.errstate(over="ignore"):
        assert pool.ordered_map(overflow_mode, range(5)) == ["ignore"] * 5
    with np.errstate(over="raise"):
        assert pool.ordered_map(overflow_mode, range(5)) == ["raise"] * 5
