"""A supervised worker-thread pool with bounded admission.

:class:`concurrent.futures.ThreadPoolExecutor` has two properties that are
wrong for a long-lived measurement server: its queue is unbounded (a burst
of clients balloons memory and latency instead of shedding load) and a
worker that dies on a non-``Exception`` (a ``MemoryError`` escalation, a
stray ``SystemExit`` from a task) is never replaced — the pool silently
shrinks until the server hangs.  :class:`WorkerPool` fixes both:

* **Bounded admission.**  ``submit``/``submit_many`` refuse work with
  :class:`PoolBusy` once ``max_backlog`` tasks are queued.  The server
  turns that into a ``busy`` wire error — explicit backpressure the
  client's retry policy absorbs — instead of queueing unboundedly.
* **Supervision.**  A task that raises an ``Exception`` only fails its
  own future; a task that raises any other ``BaseException`` (a
  ``MemoryError`` escalation, a stray ``SystemExit``) additionally kills
  its worker, which immediately retires itself and spawns a successor.
  :meth:`heal` backstops that by replacing any thread found dead (the
  server's housekeeping loop calls it each tick), and
  :attr:`workers_replaced` counts all replacements either way.
* **Draining.**  :meth:`drain` stops admission and waits until every
  queued and in-flight task has finished — the "finish in-flight work,
  then exit" half of graceful shutdown.

All waiting uses condition variables and queue timeouts; the pool never
calls ``time.sleep`` and takes its clock as an injectable (defaulting to
``time.monotonic``) so tests can drive deadlines deterministically.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["PoolBusy", "WorkerPool"]

#: How often an idle worker re-checks the stop flag, in seconds.
_POLL_INTERVAL = 0.1


class PoolBusy(RuntimeError):
    """The pool's admission queue is full — backpressure, retry later."""


class WorkerPool:
    """Fixed-size supervised thread pool executing ``fn(*args)`` tasks.

    Parameters
    ----------
    workers:
        Worker threads to keep alive.
    max_backlog:
        Queued (not yet running) tasks admitted before :class:`PoolBusy`.
    name_prefix:
        Thread-name prefix (replacement workers keep numbering upward).
    clock:
        Monotonic-seconds callable used for drain deadlines; injectable so
        tests control time.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_backlog: int = 256,
        name_prefix: str = "repro-pool",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.workers = workers
        self.max_backlog = max_backlog
        self.name_prefix = name_prefix
        self.workers_replaced = 0
        self._clock = clock
        self._tasks: "queue.Queue[Tuple[Future, Callable, Tuple]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._cond = threading.Condition()
        self._pending = 0  # queued + running tasks
        self._spawned = 0
        self._stopping = False
        self._draining = False
        with self._cond:
            for _ in range(workers):
                self._spawn_locked()

    # ------------------------------------------------------------------ #
    def _spawn_locked(self) -> None:
        """Start one worker thread (caller holds ``_cond``)."""
        self._spawned += 1
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"{self.name_prefix}-{self._spawned}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def heal(self) -> int:
        """Replace dead worker threads; returns how many were replaced."""
        with self._cond:
            if self._stopping:
                return 0
            dead = [t for t in self._threads if not t.is_alive()]
            for thread in dead:
                self._threads.remove(thread)
                self.workers_replaced += 1
                self._spawn_locked()
            return len(dead)

    def alive_workers(self) -> int:
        with self._cond:
            return sum(1 for t in self._threads if t.is_alive())

    def backlog(self) -> int:
        """Tasks admitted but not yet picked up by a worker."""
        # repro: allow[lock-guarded-state] queue.Queue is internally synchronized; _cond only bounds admission accounting
        return self._tasks.qsize()

    def pending(self) -> int:
        """Tasks admitted and not yet finished (queued + running)."""
        with self._cond:
            return self._pending

    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable, *args: Any) -> Future:
        """Admit one task; its future resolves to ``fn(*args)``."""
        return self.submit_many([(fn,) + args])[0]

    def submit_many(self, calls: Sequence[Tuple]) -> List[Future]:
        """All-or-nothing admission of several ``(fn, *args)`` tasks.

        Either every call is queued (one future each, in order) or none is
        and :class:`PoolBusy` is raised — so a ticketed batch never ends up
        half-admitted, which would strand its retained-batch record with
        tickets that can never complete.
        """
        self.heal()
        futures = [Future() for _ in calls]
        with self._cond:
            if self._stopping or self._draining:
                raise PoolBusy("worker pool is shutting down")
            if self._tasks.qsize() + len(calls) > self.max_backlog:
                raise PoolBusy(
                    f"worker pool backlog is full "
                    f"({self._tasks.qsize()}/{self.max_backlog} tasks queued)"
                )
            self._pending += len(calls)
            for future, call in zip(futures, calls):
                self._tasks.put((future, call[0], tuple(call[1:])))
        return futures

    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            try:
                # repro: allow[lock-guarded-state] queue.Queue.get is internally synchronized; holding _cond here would serialize the workers
                item = self._tasks.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                # repro: allow[lock-guarded-state] monotonic stop flag: a stale read costs at most one extra poll interval
                if self._stopping:
                    return
                continue
            try:
                alive = self._execute(*item)
            finally:
                with self._cond:
                    self._pending -= 1
                    self._cond.notify_all()
            if not alive:
                return

    def _replace_self(self) -> None:
        """Retire the calling worker thread and spawn its successor."""
        with self._cond:
            current = threading.current_thread()
            if current in self._threads:
                self._threads.remove(current)
            self.workers_replaced += 1
            if not self._stopping:
                self._spawn_locked()

    def _execute(self, future: Future, fn: Callable, args: Tuple) -> bool:
        """Run one task; returns False when the task killed this worker."""
        if not future.set_running_or_notify_cancel():
            return True
        try:
            result = fn(*args)
        except Exception as exc:
            future.set_exception(exc)
        except BaseException as exc:
            # A KeyboardInterrupt/SystemExit-grade failure compromises this
            # worker: it retires and spawns its successor right away (a
            # pool whose every worker died would otherwise strand the queue
            # until the next heal()).  The successor is counted before the
            # future resolves, so a caller woken by the future already sees
            # it in workers_replaced.
            self._replace_self()
            future.set_exception(exc)
            return False
        else:
            future.set_result(result)
        return True

    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work and wait for queued + running tasks to finish.

        Returns True when the pool emptied, False on timeout.  Workers stay
        alive afterwards (call :meth:`shutdown` to stop them).
        """
        self.heal()
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            self._draining = True
            while self._pending > 0:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop the workers.  Queued tasks are abandoned unfinished."""
        with self._cond:
            self._stopping = True
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join(timeout=timeout)
