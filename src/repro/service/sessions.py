"""Server-side sessions: batch-result retention for at-most-once evaluation.

A *session* outlives the TCP connection that created it.  Every handshake
mints one (protocol v2); a client whose connection dies mid-batch dials a
fresh socket, re-attaches with the ``resume`` op, and re-sends the same
``evaluate_batch`` with the same client-monotonic ``batch`` id.  Because
the session retained that batch's :class:`BatchRecord` — and because
worker futures write their results into the record via done-callbacks,
independent of whichever socket happens to be streaming them — the server
*replays* finished tickets and re-attaches to still-running ones instead
of simulating anything twice.

Retention is bounded: each session keeps its ``retention`` most recent
batch records (the client commits a batch only after it has fully arrived,
so only the newest batch is ever re-requested; older records exist to
absorb pathological reorderings).  Sessions idle longer than the registry's
``idle_timeout`` are reaped by the server's housekeeping loop.

Session ids are deterministic counters (``s1``, ``s2``, ...) — the service
layer bans wall-clock entropy sources, and uniqueness is only required
within one server process.  A client resuming against a *restarted* server
may therefore present a stale id that the new process reissued; the
placement digest stored on each :class:`BatchRecord` guards that case: a
``batch`` id whose digest disagrees is treated as a brand-new batch, never
replayed.

Everything here is clock-free: callers pass "now" in explicitly, so tests
drive idle-reaping deterministically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BatchRecord", "Session", "SessionRegistry"]


class BatchRecord:
    """Per-ticket results of one ticketed batch, filled in completion order.

    Worker futures :meth:`store` encoded result payloads here from their
    done-callbacks; the connection currently streaming the batch waits on
    the record's condition.  The record therefore keeps accumulating even
    when no connection is attached — the property replay depends on.
    """

    def __init__(self, batch_id: int, expected: int, digest: str) -> None:
        self.batch_id = batch_id
        self.expected = expected
        self.digest = digest
        # A record restored from disk has no live futures behind its missing
        # tickets: the server that created them died.  The flag tells the
        # dispatch path to resubmit exactly the unresolved tickets on the
        # next replay request instead of waiting on futures that will never
        # complete.  Stored tickets are still replayed verbatim — at-most-once
        # survives the restart.
        self.orphaned = False
        self._cond = threading.Condition()
        self._results: Dict[int, Dict[str, Any]] = {}

    def store(self, ticket: int, payload: Dict[str, Any]) -> None:
        """Record one ticket's encoded result payload."""
        with self._cond:
            self._results[ticket] = payload
            self._cond.notify_all()

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """All results stored so far (what an ack carries; marks replays)."""
        with self._cond:
            return dict(self._results)

    def wait_ready(
        self, exclude: set, timeout: Optional[float]
    ) -> Dict[int, Dict[str, Any]]:
        """Results for tickets not in ``exclude``; waits up to ``timeout``
        for at least one to appear (one wakeup — the caller loops)."""
        with self._cond:
            ready = {t: p for t, p in self._results.items() if t not in exclude}
            if ready:
                return ready
            self._cond.wait(timeout)
            return {t: p for t, p in self._results.items() if t not in exclude}

    @property
    def complete(self) -> bool:
        with self._cond:
            return len(self._results) >= self.expected

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form for per-space durability files."""
        with self._cond:
            return {
                "batch": self.batch_id,
                "expected": self.expected,
                "digest": self.digest,
                "results": {str(t): p for t, p in self._results.items()},
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchRecord":
        record = cls(int(data["batch"]), int(data["expected"]), str(data["digest"]))
        for ticket, payload in data.get("results", {}).items():
            record._results[int(ticket)] = payload
        record.orphaned = not record.complete
        return record


class Session:
    """One logical client: its id, liveness stamp, and retained batches."""

    def __init__(self, session_id: str, *, retention: int, now: float) -> None:
        self.id = session_id
        self.last_seen = now
        self._retention = retention
        self._lock = threading.Lock()
        self._batches: "OrderedDict[int, BatchRecord]" = OrderedDict()

    def touch(self, now: float) -> None:
        self.last_seen = now

    def get_or_add(
        self, batch_id: int, expected: int, digest: str
    ) -> Tuple[BatchRecord, bool]:
        """The batch's record, creating it if new: ``(record, created)``.

        A retained record whose placement digest disagrees with the
        incoming request is stale (e.g. a restarted server reissued this
        session id) — it is evicted and a fresh record returned instead of
        replaying someone else's results.
        """
        with self._lock:
            record = self._batches.get(batch_id)
            if record is not None and record.digest == digest:
                self._batches.move_to_end(batch_id)
                return record, False
            record = BatchRecord(batch_id, expected, digest)
            self._batches[batch_id] = record
            self._batches.move_to_end(batch_id)
            while len(self._batches) > self._retention:
                oldest = next(iter(self._batches))
                if oldest == batch_id:
                    break
                del self._batches[oldest]
            return record, True

    def discard(self, batch_id: int) -> None:
        """Drop a record (admission failed before its futures existed)."""
        with self._lock:
            self._batches.pop(batch_id, None)

    def retained_batches(self) -> List[int]:
        with self._lock:
            return sorted(self._batches)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form: id plus retained batch records, oldest first."""
        with self._lock:
            records = [record.to_dict() for record in self._batches.values()]
        return {"id": self.id, "batches": records}

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], *, retention: int, now: float
    ) -> "Session":
        session = cls(str(data["id"]), retention=retention, now=now)
        for entry in data.get("batches", []):
            record = BatchRecord.from_dict(entry)
            session._batches[record.batch_id] = record
        return session


class SessionRegistry:
    """All live sessions of one server, with idle reaping.

    Parameters
    ----------
    retention:
        Batch records kept per session.
    idle_timeout:
        Seconds of inactivity after which :meth:`reap` collects a session.
    """

    def __init__(self, *, retention: int = 4, idle_timeout: float = 300.0) -> None:
        if retention < 1:
            raise ValueError("retention must be >= 1")
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.retention = retention
        self.idle_timeout = idle_timeout
        self.num_created = 0
        self.num_resumed = 0
        self.num_reaped = 0
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._counter = 0

    def create(self, now: float) -> Session:
        with self._lock:
            self._counter += 1
            session = Session(f"s{self._counter}", retention=self.retention, now=now)
            self._sessions[session.id] = session
            self.num_created += 1
            return session

    def resume(self, session_id: Any, now: float) -> Optional[Session]:
        """Re-attach to a live session; None when unknown or reaped."""
        if not isinstance(session_id, str):
            return None
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.touch(now)
                self.num_resumed += 1
            return session

    def reap(self, now: float) -> List[str]:
        """Collect sessions idle past the timeout; returns their ids."""
        with self._lock:
            expired = [
                sid
                for sid, session in self._sessions.items()
                if now - session.last_seen > self.idle_timeout
            ]
            for sid in expired:
                del self._sessions[sid]
            self.num_reaped += len(expired)
            return expired

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def state_dict(self) -> Dict[str, Any]:
        """Serialise live sessions + the id counter for durability files.

        The counter rides along so a restarted server never *reissues* a
        persisted session id to a brand-new client — restored ids stay
        resumable and fresh handshakes continue the sequence.
        """
        with self._lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.id)
            return {
                "counter": self._counter,
                "sessions": [session.to_dict() for session in sessions],
            }

    def load_state(self, state: Dict[str, Any], now: float) -> int:
        """Restore sessions persisted by :meth:`state_dict`; returns count.

        Restored sessions are stamped ``now`` (not their pre-crash
        ``last_seen``) so housekeeping cannot reap them before their client
        has had a chance to reconnect.  Incomplete restored batch records
        come back ``orphaned`` — see :class:`BatchRecord`.
        """
        restored = 0
        with self._lock:
            self._counter = max(self._counter, int(state.get("counter", 0)))
            for entry in state.get("sessions", []):
                session = Session.from_dict(
                    entry, retention=self.retention, now=now
                )
                if session.id not in self._sessions:
                    self._sessions[session.id] = session
                    restored += 1
        return restored
