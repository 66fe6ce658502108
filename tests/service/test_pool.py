"""Tests for the supervised worker pool behind the measurement server."""

import threading
import time

import pytest

from repro.service.pool import PoolBusy, WorkerPool


@pytest.fixture
def pool():
    p = WorkerPool(2, max_backlog=4, name_prefix="test-pool")
    yield p
    p.shutdown()


class TestExecution:
    def test_submit_resolves_future(self, pool):
        assert pool.submit(lambda a, b: a + b, 2, 3).result(timeout=5) == 5

    def test_submit_many_preserves_order(self, pool):
        futures = pool.submit_many([(lambda i=i: i * i,) for i in range(4)])
        assert [f.result(timeout=5) for f in futures] == [0, 1, 4, 9]

    def test_exception_fails_only_its_future(self, pool):
        def boom():
            raise ValueError("task failed")

        bad = pool.submit(boom)
        good = pool.submit(lambda: 42)
        with pytest.raises(ValueError, match="task failed"):
            bad.result(timeout=5)
        assert good.result(timeout=5) == 42
        assert pool.alive_workers() == 2  # plain Exceptions never kill workers

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, max_backlog=0)


class TestSupervision:
    def test_worker_killed_by_base_exception_is_replaced(self, pool):
        def die():
            raise SystemExit("worker down")

        victims = [pool.submit(die) for _ in range(2)]
        for victim in victims:
            with pytest.raises(SystemExit):
                victim.result(timeout=5)
        # Each dying worker retires itself and spawns a successor, so the
        # pool keeps executing even though every original thread died.
        assert pool.submit(lambda: "alive").result(timeout=5) == "alive"
        assert pool.workers_replaced == 2
        assert pool.alive_workers() == 2

    def test_replacement_is_counted_before_the_future_resolves(self, pool, monkeypatch):
        """A caller woken by a dying task's future already sees the
        successor counted, however slowly the worker replaces itself."""
        replace = pool._replace_self

        def slow_replace():
            time.sleep(0.05)
            replace()

        monkeypatch.setattr(pool, "_replace_self", slow_replace)

        def die():
            raise SystemExit("worker down")

        for expected in (1, 2):
            victim = pool.submit(die)
            with pytest.raises(SystemExit):
                victim.result(timeout=5)
            assert pool.workers_replaced == expected

    def test_heal_is_idempotent_on_a_healthy_pool(self, pool):
        victim = pool.submit(lambda: (_ for _ in ()).throw(SystemExit()))
        with pytest.raises(SystemExit):
            victim.result(timeout=5)
        assert pool.submit(lambda: 1).result(timeout=5) == 1  # self-healed
        assert pool.heal() == 0  # nothing left for the backstop to replace
        assert pool.workers_replaced == 1


def _occupy_worker(pool):
    """Submit a task that holds the single worker until released.

    Returns ``(future, release_event)`` only once the task is *running*,
    so subsequent submissions deterministically land in the queue.
    """
    started = threading.Event()
    release = threading.Event()

    def blocker():
        started.set()
        release.wait(10)
        return True

    future = pool.submit(blocker)
    assert started.wait(5)
    return future, release


class TestBackpressure:
    def test_busy_when_backlog_full(self):
        pool = WorkerPool(1, max_backlog=2)
        blocker, release = _occupy_worker(pool)
        try:
            pool.submit_many([(lambda: None,), (lambda: None,)])  # fills queue
            with pytest.raises(PoolBusy, match="backlog is full"):
                pool.submit(lambda: None)
        finally:
            release.set()
            assert blocker.result(timeout=5) is True
            pool.shutdown()

    def test_submit_many_is_all_or_nothing(self):
        pool = WorkerPool(1, max_backlog=2)
        blocker, release = _occupy_worker(pool)
        try:
            pool.submit(lambda: None)  # one slot left
            with pytest.raises(PoolBusy):
                pool.submit_many([(lambda: 1,), (lambda: 2,)])
            assert pool.backlog() == 1  # the refused pair queued nothing
        finally:
            release.set()
            assert blocker.result(timeout=5) is True
            pool.shutdown()


class TestDrain:
    def test_drain_waits_for_inflight(self, pool):
        done = []
        gate = threading.Event()

        def task():
            gate.wait(10)
            done.append(True)

        pool.submit(task)
        threading.Timer(0.05, gate.set).start()
        assert pool.drain(timeout=10) is True
        assert done == [True]

    def test_drain_refuses_new_work(self, pool):
        assert pool.drain(timeout=5) is True
        with pytest.raises(PoolBusy, match="shutting down"):
            pool.submit(lambda: None)

    def test_drain_times_out_on_stuck_task(self):
        pool = WorkerPool(1, max_backlog=2)
        release = threading.Event()
        try:
            pool.submit(release.wait, 30)
            assert pool.drain(timeout=0.2) is False
        finally:
            release.set()
            pool.shutdown()
