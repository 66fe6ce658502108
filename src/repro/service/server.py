"""The measurement server: a multi-tenant simulator fleet behind one port.

A :class:`MeasurementServer` hosts *measurement spaces* — graph/topology/
cost-model triples — from a :class:`~repro.service.tenancy.SpaceRegistry`,
builds a pool of simulator worker threads (each owning private
:class:`~repro.sim.batch.BatchSimulator` instances per space — the
precomputed cost tables are per-worker, so workers never contend), and
serves *raw* outcomes over the newline-delimited JSON protocol of
:mod:`repro.service.protocol`.  A classic single-tenant server is just
the registry seeded with one space built from the ``environment``
argument; ``multi_tenant=True`` additionally adopts spaces offered in
handshakes and lazily loads persisted specs from ``spaces_dir``.

Three properties make the fleet shareable:

* **Per-space memoisation.**  Connections of one tenant share that
  space's :class:`~repro.sim.backends.MemoBackend` raw-outcome table
  (guarded by a lock; the simulation itself runs outside it).  Concurrent
  searches that sample the same placement deduplicate simulator work;
  tenants never see each other's entries — isolation the ``spaces`` RPC
  makes observable.

* **Client-side commit.**  The server never draws measurement noise and
  never touches an environment clock; it ships the deterministic
  :class:`~repro.sim.environment.RawOutcome` and each client commits it
  locally.  Searches therefore stay bit-for-bit reproducible per client
  seed no matter how many of them share the fleet.

* **Fair scheduling.**  The worker pool's bounded admission protects the
  *server*; the optional per-space in-flight quota (``space_quota``)
  protects the *tenants* from each other: a hot tenant's submissions
  answer ``busy`` backpressure once its quota is full, leaving pool lanes
  for everyone else.

``evaluate_batch`` is futures-based: the submit reply carries ticket ids
and every result already known (memo hits, replays); the rest stream back
one line per ready set *in completion order* — a slow placement does not
convoy its siblings through the worker pool.

Self-healing and durability
---------------------------

The server is built to survive its clients, its own workers, and — given
a ``spaces_dir`` — its own process:

* **Supervised workers.**  Simulations run on a
  :class:`~repro.service.pool.WorkerPool` — dead worker threads are
  detected and replaced, and the admission queue is bounded, answering
  ``busy`` backpressure instead of queueing unboundedly.
* **Sessions and replay.**  Each handshake minted session retains
  ticketed batch results written by future done-callbacks, independent
  of the socket; a reconnecting client ``resume``-s and replays instead
  of re-simulating (at-most-once); :attr:`MeasurementServer.num_simulations`
  counts actual simulator runs so tests can assert "zero duplicate work".
* **Restart transparency.**  With a ``spaces_dir``, each completed batch
  persists its space's sessions + memo through the atomic writers in
  :mod:`repro.ioutil`.  A *restarted* server restores them on space
  load: the session-id counter continues (no reissue), recorded batches
  replay bit-for-bit, and records whose futures died with the old
  process come back ``orphaned`` — exactly their unresolved tickets are
  resubmitted on the next replay request.
* **Deadlines, reaping, drain.**  ``request_deadline`` bounds how long
  one request may hold its connection, idle sessions are reaped per
  space by the housekeeping thread, and :meth:`MeasurementServer.drain`
  (wired to SIGTERM by the CLI) refuses new work, finishes in-flight
  batches, persists every space, then closes.
"""

from __future__ import annotations

import hashlib
import os
import socket
import socketserver
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import MetricsExporter
from ..sim.backends import _key_placement
from ..sim.batch import SWEEP_MIN_LANES, BatchSimulator
from ..sim.environment import PlacementEnvironment, RawOutcome
from ..sim.simulator import Simulator
from . import protocol
from .client import migrate_space_request
from .pool import PoolBusy, WorkerPool
from .protocol import PROTOCOL_VERSION, ProtocolError
from .sessions import BatchRecord, Session
from .tenancy import SpaceLoading, SpaceRegistry, SpaceSpec, TenantSpace

__all__ = ["MeasurementServer"]

#: Per-worker-thread simulator instances kept per space; oldest dropped
#: past this so a worker that served many evicted tenants does not pin
#: every cost table it ever built.
_SIMULATORS_PER_WORKER = 8


def _placements_digest(keys: Sequence[bytes]) -> str:
    """Content digest identifying a batch's placement keys (replay guard)."""
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(key)
    return hasher.hexdigest()


class _Handler(socketserver.StreamRequestHandler):
    """One client session: handshake first, then a request loop."""

    server: "_TCPServer"

    #: Nagle off: an ``evaluate_batch`` reply may stream several lines (the
    #: ack, then one per ready set), and with Nagle on each line after the
    #: first would wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    #: Declarative op → handler-method table.  This is *data* the
    #: ``protocol-dispatch`` lint rule AST-extracts and cross-checks
    #: against ``MESSAGE_SCHEMA`` (every op exactly one handler) — keep it
    #: a plain literal.  ``hello`` is special-cased: the real work happens
    #: in the pre-loop handshake, and its in-loop handler just refuses.
    _OP_HANDLERS = {
        "hello": "_op_hello",
        "ping": "_op_ping",
        "resume": "_op_resume",
        "evaluate_batch": "_op_evaluate_batch",
        "stats": "_op_stats",
        "spaces": "_op_spaces",
        "shutdown": "_op_shutdown",
        "migrate_space": "_op_migrate_space",
    }

    def setup(self) -> None:
        super().setup()
        self.service = self.server.service
        self.session: Optional[Session] = None
        self.space: Optional[TenantSpace] = None
        self.service._register_connection(self.connection)

    def finish(self) -> None:
        self.service._unregister_connection(self.connection)
        super().finish()

    # -------------------------------------------------------------- #
    def handle(self) -> None:
        service = self.service
        service.metrics.inc("repro_service_connections_total")
        try:
            if not self._handshake():
                return
            while True:
                try:
                    request = protocol.read_message(self.rfile)
                except ProtocolError as exc:
                    self._reply(protocol.error_message(str(exc)))
                    return
                if request is None:
                    return  # clean disconnect
                service._begin_request()
                try:
                    keep = self._dispatch(request)
                finally:
                    service._end_request()
                if not keep:
                    return
        except (ConnectionError, BrokenPipeError, ValueError, OSError):
            # Client vanished mid-write (or our socket was force-closed by
            # close()); nothing to clean up beyond the connection itself.
            pass

    def _reply(self, payload: Dict[str, Any]) -> None:
        protocol.write_message(self.wfile, payload)

    def _refuse_handshake(self, text: str, code: str) -> None:
        self.service.metrics.inc("repro_service_handshake_rejected_total")
        refusal = protocol.error_message(text)
        refusal["code"] = code
        self._reply(refusal)

    def _handshake(self) -> bool:
        # Pre-handshake loop: health probes (``ping``) and migration legs
        # (``migrate_space``) are connection-less admin traffic — they
        # bind to no space, so they are answered *before* the hello that
        # every other op requires.
        while True:
            request = protocol.read_message(self.rfile)
            if request is None:
                return False
            op = request.get("op")
            if op == "hello":
                break
            if op == "ping":
                self._op_ping(request)
                continue
            if op == "migrate_space":
                self._op_migrate_space(request)
                continue
            self._reply(protocol.error_message("first message must be 'hello'"))
            return False
        service = self.service
        version = request.get("version")
        min_version = request.get("min_version")
        if not (
            isinstance(version, int)
            and isinstance(min_version, int)
            and min_version <= PROTOCOL_VERSION <= version
        ):
            self._refuse_handshake(
                f"protocol version mismatch: client speaks "
                f"[{min_version!r}, {version!r}], server speaks "
                f"{PROTOCOL_VERSION}",
                "version_range",
            )
            return False
        fingerprint = request.get("fingerprint")
        try:
            space = service._resolve_space(fingerprint, request.get("space"))
        except SpaceLoading:
            self._refuse_handshake(
                f"measurement space {fingerprint!r} is still loading; "
                "redial shortly",
                "space_loading",
            )
            return False
        if space is None:
            self._refuse_handshake(
                "measurement-space fingerprint mismatch: the client's "
                "graph/topology/cost model is not hosted by this server "
                f"({fingerprint!r} not among {len(service.registry)} spaces)",
                "unknown_fingerprint",
            )
            return False
        self.space = space
        service._bind_connection_space(self.connection, space.fingerprint)
        now = service.clock()
        space.touch(now)
        self.session = space.sessions.create(now)
        self._reply(
            {
                "ok": True,
                "server": {
                    "version": PROTOCOL_VERSION,
                    "graph": space.environment.graph.name,
                    "num_ops": space.environment.graph.num_ops,
                    "num_devices": space.environment.num_devices,
                    "workers": service.workers,
                    "fingerprint": space.fingerprint,
                    "spaces": len(service.registry),
                },
                "session": self.session.id,
            }
        )
        return True

    # -------------------------------------------------------------- #
    def _dispatch(self, request: Dict[str, Any]) -> bool:
        """Route one request through :data:`_OP_HANDLERS`; False ends it."""
        op = request.get("op")
        service = self.service
        service.metrics.inc("repro_service_requests_total")
        now = service.clock()
        if self.session is not None:
            self.session.touch(now)
        if self.space is not None:
            self.space.touch(now)
        handler = self._OP_HANDLERS.get(op) if isinstance(op, str) else None
        if handler is None:
            self._reply(protocol.error_message(f"unknown op {op!r}"))
            return True
        return getattr(self, handler)(request)

    def _op_hello(self, request: Dict[str, Any]) -> bool:
        self._reply(
            protocol.error_message("handshake already completed on this connection")
        )
        return True

    def _op_ping(self, request: Dict[str, Any]) -> bool:
        state = "draining" if self.service.draining.is_set() else "serving"
        self._reply({"ok": True, "state": state})
        return True

    def _op_resume(self, request: Dict[str, Any]) -> bool:
        service = self.service
        assert self.space is not None
        session = self.space.sessions.resume(
            request.get("session"), service.clock()
        )
        if session is None:
            self._reply(
                protocol.error_message(
                    f"unknown session {request.get('session')!r}",
                    kind="session",
                )
            )
            return True
        self.session = session
        self._reply(
            {
                "ok": True,
                "session": session.id,
                "retained": session.retained_batches(),
            }
        )
        return True

    def _op_stats(self, request: Dict[str, Any]) -> bool:
        self._reply({"ok": True, "stats": self.service.stats()})
        return True

    def _op_spaces(self, request: Dict[str, Any]) -> bool:
        listing = [space.stats() for space in self.service.registry.snapshot()]
        self._reply({"ok": True, "spaces": listing})
        return True

    def _op_shutdown(self, request: Dict[str, Any]) -> bool:
        # Refuse new work *before* acknowledging, so no client that dials
        # after the reply gets a batch simulated; the close thread starts
        # only after the reply, so this handler's own socket is not torn
        # down mid-write.
        self.service.draining.set()
        self._reply({"ok": True})
        self.service._request_shutdown()
        return False

    def _op_migrate_space(self, request: Dict[str, Any]) -> bool:
        """Both legs of a space migration (accepted pre-handshake too).

        The *push* leg (``target`` set, sent by the router to the old
        owner) freezes the space, drains its in-flight simulations,
        exports spec + durable state under the memo lock and hands them
        to the new owner; only after the new owner acknowledged adoption
        is the space evicted here and its client connections cut, so a
        reconnecting client always finds its session state somewhere.
        The *adopt* leg (``space``/``state`` set, sent old→new owner)
        hosts the space and restores its sessions + memo, making replays
        at-most-once across the move.
        """
        fingerprint = request.get("fingerprint")
        if not isinstance(fingerprint, str):
            self._reply(
                protocol.error_message("migrate_space requires a string fingerprint")
            )
            return True
        target = request.get("target")
        if isinstance(target, str):
            return self._migrate_push(fingerprint, target)
        return self._migrate_adopt(
            fingerprint, request.get("space"), request.get("state")
        )

    def _migrate_push(self, fingerprint: str, target: str) -> bool:
        service = self.service
        try:
            protocol.parse_address(target)
        except ValueError as exc:
            # Refuse before freezing: a space drained for an undialable
            # target would stall its tenants for nothing.
            self._reply(protocol.error_message(f"bad migrate_space target: {exc}"))
            return True
        space = service.registry.get(fingerprint, service.clock())
        if space is None:
            # Nothing resident to move: the new owner lazy-loads from the
            # durable spaces-dir or adopts the client's own spec offer.
            self._reply({"ok": True, "pushed": False})
            return True
        space.freeze()
        try:
            if not space.wait_idle(service.migrate_timeout):
                space.thaw()
                self._reply(
                    protocol.error_message(
                        f"space {fingerprint} did not drain within "
                        f"{service.migrate_timeout:.1f}s; migration aborted",
                        kind="busy",
                    )
                )
                return True
            with service._memo_lock:
                spec_payload = space.spec.to_dict()
                state_payload = space.state_dict()
            adopt = migrate_space_request(
                fingerprint, space=spec_payload, state=state_payload
            )
            try:
                reply = protocol.round_trip(target, adopt, service.migrate_timeout)
            except (OSError, ProtocolError) as exc:
                space.thaw()
                self._reply(
                    protocol.error_message(
                        f"migration push to {target} failed: {exc}", kind="crash"
                    )
                )
                return True
            if not reply.get("ok") or not reply.get("adopted"):
                space.thaw()
                self._reply(
                    protocol.error_message(
                        f"target {target} refused the space: "
                        f"{reply.get('error', 'no adoption acknowledged')}",
                        kind="crash",
                    )
                )
                return True
        except BaseException:
            space.thaw()
            raise
        service._remember_migrated_space(space.stats())
        service.registry.evict(fingerprint)
        closed = service.close_space_connections(fingerprint)
        service.metrics.inc("repro_service_spaces_migrated_out_total")
        service.metrics.inc(
            "repro_service_migration_connections_closed_total", float(closed)
        )
        self._reply({"ok": True, "pushed": True})
        return True

    def _migrate_adopt(self, fingerprint: str, offered: Any, state: Any) -> bool:
        service = self.service
        if not service.multi_tenant:
            self._reply(
                protocol.error_message(
                    "this server is single-tenant and does not adopt "
                    "migrated spaces"
                )
            )
            return True
        try:
            spec = SpaceSpec.from_dict(offered)
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(protocol.error_message(f"bad migrated space spec: {exc}"))
            return True
        if spec.fingerprint != fingerprint:
            self._reply(
                protocol.error_message(
                    "migrated spec fingerprint mismatch: "
                    f"claims {fingerprint}, rebuilds to {spec.fingerprint}"
                )
            )
            return True
        now = service.clock()
        space = service.registry.add(spec, now=now)
        if isinstance(state, dict):
            try:
                with service._memo_lock:
                    space.load_state(state, now=now)
            except ValueError as exc:
                self._reply(
                    protocol.error_message(f"bad migrated space state: {exc}")
                )
                return True
        if service._durable:
            service.registry.persist(space)
        service.metrics.inc("repro_service_spaces_migrated_in_total")
        self._reply({"ok": True, "adopted": True})
        return True

    # -------------------------------------------------------------- #
    def _op_evaluate_batch(self, request: Dict[str, Any]) -> bool:
        service = self.service
        space = self.space
        assert space is not None
        placements = request.get("placements")
        if not isinstance(placements, list):
            self._reply(protocol.error_message("placements must be a list"))
            return True
        num_ops = space.environment.graph.num_ops
        try:
            keys = [protocol.decode_placement(p, num_ops) for p in placements]
        except ProtocolError as exc:
            self._reply(protocol.error_message(f"bad placement: {exc}"))
            return True
        batch_id = request.get("batch")
        if not isinstance(batch_id, int):
            self._reply(protocol.error_message("batch must be an integer"))
            return True
        # Batches carry a session-monotonic id: the batch is retained on
        # the session so a reconnect can replay it.
        session = self.session
        assert session is not None
        record, created = session.get_or_add(
            batch_id, len(keys), _placements_digest(keys)
        )
        if service.draining.is_set() and created:
            session.discard(batch_id)
            self._reply(
                protocol.error_message(
                    "server is draining and accepts no new work", kind="draining"
                )
            )
            return True
        # Tickets already resolved before this request attach as replays.
        already = {} if created else record.snapshot()
        pending: List[Tuple[int, bytes]] = []
        if created:
            pending = list(enumerate(keys))
        elif record.orphaned and not record.complete:
            # Restored from disk: the missing tickets' futures died with
            # the previous process.  Resubmit exactly those — recorded
            # tickets replay verbatim, so the batch stays at-most-once
            # across the restart.
            pending = [
                (ticket, keys[ticket])
                for ticket in range(len(keys))
                if ticket not in already
            ]
            service.metrics.inc(
                "repro_service_orphan_resubmitted_total", float(len(pending))
            )
        if pending:
            try:
                self._submit_into(space, record, pending)
            except PoolBusy as exc:
                if created:
                    session.discard(batch_id)
                service.metrics.inc("repro_service_busy_total")
                self._reply(protocol.error_message(str(exc), kind="busy"))
                return True
            record.orphaned = False
        if already:
            service.metrics.inc("repro_service_replayed_total", float(len(already)))
        self._stream_results(record, already)
        # Batches resolved purely from the memo never ran a done-callback,
        # so persist here as well — both paths are idempotent writes.
        service._maybe_persist(space, record)
        return True

    def _submit_into(
        self, space: TenantSpace, record: BatchRecord, pending: List[Tuple[int, bytes]]
    ) -> None:
        """Resolve cache hits into the record; submit misses to the pool.

        All-or-nothing on admission: if the pool (or the space's in-flight
        quota) is busy no future exists, so the (discarded) record never
        waits on tickets that cannot come.

        Misses are *singleflighted*: a placement whose simulation is
        already in flight (submitted by any other batch of this space)
        attaches to the pending future instead of re-running the
        simulator — the memo only dedupes *landed* results, so without
        this, two batches racing the same placement would both miss and
        simulate it twice, breaking the fleet-wide zero-duplicate
        guarantee under failover/migration churn.
        """
        service = self.service
        hits: List[Tuple[int, Any]] = []
        followers: List[Tuple[int, Future]] = []
        leaders: List[Tuple[int, bytes, Future]] = []
        with service._memo_lock:
            for ticket, key in pending:
                raw = space.memo.lookup(key)
                if raw is not None:
                    hits.append((ticket, raw))
                    continue
                inflight = service._pending_sims.get((space.fingerprint, key))
                if inflight is not None:
                    followers.append((ticket, inflight))
                else:
                    adapter: Future = Future()
                    service._pending_sims[(space.fingerprint, key)] = adapter
                    leaders.append((ticket, key, adapter))
        for ticket, raw in hits:
            record.store(ticket, {"raw": protocol.encode_raw(raw), "cached": True})
        lanes = len(leaders) + len(followers)
        if not lanes:
            return
        admitted = False
        try:
            if not space.try_acquire(lanes):
                service.metrics.inc("repro_service_quota_rejected_total")
                raise PoolBusy(
                    f"tenant in-flight quota exhausted ({space.quota} lanes); "
                    "retry after in-flight work completes"
                )
            admitted = True
            if leaders:
                # Enough misses to sweep go to one pool task; fewer are
                # dealt into one scalar chunk per worker, so the workers
                # share them and a batch never takes more backlog slots
                # than there are workers.  Admission stays all-or-nothing
                # (a single submit_many).
                if len(leaders) >= SWEEP_MIN_LANES:
                    chunks = [leaders]
                else:
                    ways = min(len(leaders), service.workers)
                    chunks = [leaders[i::ways] for i in range(ways)]
                keys = [[key for _, key, _ in chunk] for chunk in chunks]
                futures = service._pool.submit_many(
                    [(service._simulate_chunk, space, ks) for ks in keys]
                )
                for chunk, ks, future in zip(chunks, keys, futures):
                    service._chain_chunk(
                        space, ks, [adapter for _, _, adapter in chunk], future
                    )
        except PoolBusy as exc:
            if admitted:
                space.release(lanes)
            service._abandon_pending(space, leaders, exc)
            raise
        for ticket, _, adapter in leaders:
            self._attach(space, record, ticket, adapter)
        for ticket, future in followers:
            self._attach(space, record, ticket, future)

    def _attach(
        self, space: TenantSpace, record: BatchRecord, ticket: int, future: Future
    ) -> None:
        """Wire a worker future to the record, independent of this socket.

        The done-callback — not the connection — owns result delivery into
        the record, so results of a batch whose client vanished mid-stream
        keep accumulating and can be replayed after a reconnect (durably,
        when a ``spaces_dir`` is configured).
        """
        service = self.service

        def _store(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                service.metrics.inc("repro_service_worker_errors_total")
                record.store(
                    ticket, {"error": {"kind": "crash", "message": str(exc)}}
                )
            else:
                record.store(
                    ticket,
                    {"raw": protocol.encode_raw(done.result()), "cached": False},
                )
            space.release(1)
            service._maybe_persist(space, record)

        future.add_done_callback(_store)

    def _stream_results(self, record: BatchRecord, already: Dict[int, Any]) -> None:
        """Answer the batch in one line per ready set.

        The ack carries every result already in the record (memo hits and
        replays), so an all-hit batch is one line.  Each later wakeup of
        the record writes one line with everything that landed since, so
        a slow placement does not hold up its siblings.  Tickets still
        unresolved when the server's ``request_deadline`` expires go out
        as one final line of ``deadline`` errors — their simulations
        continue into the record for a later replay.  This handler thread
        is the connection's only writer, so no write lock is needed.
        """
        service = self.service
        deadline = None
        if service.request_deadline is not None:
            deadline = service.clock() + service.request_deadline
        ready = record.snapshot()
        written: Set[int] = set(ready)
        self._reply({
            "ok": True,
            "tickets": list(range(record.expected)),
            "results": _result_items(ready, already),
        })
        while len(written) < record.expected:
            remaining = None
            if deadline is not None:
                remaining = deadline - service.clock()
                if remaining <= 0:
                    break
            ready = record.wait_ready(written, remaining)
            if ready:
                written.update(ready)
                self._reply({"ok": True, "results": _result_items(ready, already)})
        late = [ticket for ticket in range(record.expected) if ticket not in written]
        if late:
            service.metrics.inc("repro_service_deadline_total", float(len(late)))
            error = {
                "kind": "deadline",
                "message": (
                    "result not ready within the server's "
                    f"{service.request_deadline:.1f}s request deadline"
                ),
            }
            self._reply({
                "ok": True,
                "results": [{"ticket": ticket, "error": error} for ticket in late],
            })


def _result_items(
    ready: Dict[int, Dict[str, Any]], already: Dict[int, Any]
) -> List[Dict[str, Any]]:
    """The result items of one reply line, in ticket order; those stored
    before this request arrived are marked ``replayed``."""
    items = []
    for ticket in sorted(ready):
        item = {"ticket": ticket, **ready[ticket]}
        if ticket in already:
            item["replayed"] = True
        items.append(item)
    return items


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    service: "MeasurementServer"


class MeasurementServer:
    """Hosts one or many measurement spaces behind a TCP endpoint.

    Parameters
    ----------
    environment:
        Seeds the registry with a default space (classic single-tenant
        use).  Its RNG and clock are never used — the server only runs
        the deterministic half of an evaluation.  Optional when
        ``multi_tenant`` or ``space_specs`` provide the spaces instead.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    workers:
        Simulator worker threads, shared by every space.  Each lazily
        builds private per-space :class:`~repro.sim.batch.BatchSimulator`
        instances on first use.  A batch whose cache misses reach
        :data:`~repro.sim.batch.SWEEP_MIN_LANES` runs as one pool task
        that sweeps them; smaller ones are dealt into one scalar task per
        worker.
    memo_path:
        Optional persisted cache (:meth:`MemoBackend.load` format) to warm
        the *default* space's table from at startup; ignored if missing,
        refused on a fingerprint mismatch.
    max_backlog:
        Queued simulations admitted before requests answer ``busy``
        backpressure; defaults to ``32 * workers``.
    request_deadline:
        Server-side seconds one request may wait on its results before
        unresolved tickets answer ``deadline`` errors; ``None`` disables.
    session_retention:
        Completed/ in-flight batch records retained per session for replay.
    session_idle_timeout:
        Seconds of inactivity before the housekeeping loop reaps a session.
    housekeeping_interval:
        Cadence of the supervision loop (session reaping, worker healing).
    clock:
        Monotonic-seconds callable (injectable so tests drive idle reaping
        and deadlines deterministically).
    multi_tenant:
        Accept handshakes for spaces this server does not host yet, by
        adopting the serialized spec a client offers in ``hello``.
    spaces_dir:
        Durability directory: specs persist as ``<fp>.space.json`` (lazily
        loaded on handshake), per-space sessions + memo as
        ``<fp>.state.json`` (written on batch completion, eviction and
        drain/close) — see :mod:`repro.service.tenancy`.
    space_specs:
        Spaces to host from startup (in addition to ``environment``'s).
    max_spaces:
        Resident-space budget; the least-recently-used idle space is
        persisted and evicted past it.
    memo_budget:
        Per-space memo-cache entry budget (``None`` = unbounded).
    space_quota:
        Per-space in-flight simulation quota for fair scheduling across
        tenants (``None`` = pool admission only).
    migrate_timeout:
        Seconds allowed for one ``migrate_space`` push: the in-flight
        drain barrier on the space plus the adopt round trip to the new
        owner.  A space that cannot drain in time aborts its migration
        (thawed in place) rather than risk exporting torn state.
    """

    def __init__(
        self,
        environment: Optional[PlacementEnvironment] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        memo_path: Optional[str] = None,
        max_backlog: Optional[int] = None,
        request_deadline: Optional[float] = None,
        session_retention: int = 4,
        session_idle_timeout: float = 300.0,
        housekeeping_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        multi_tenant: bool = False,
        spaces_dir: Optional[str] = None,
        space_specs: Sequence[SpaceSpec] = (),
        max_spaces: Optional[int] = None,
        memo_budget: Optional[int] = None,
        space_quota: Optional[int] = None,
        migrate_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if request_deadline is not None and request_deadline <= 0:
            raise ValueError("request_deadline must be positive")
        if housekeeping_interval <= 0:
            raise ValueError("housekeeping_interval must be positive")
        if migrate_timeout <= 0:
            raise ValueError("migrate_timeout must be positive")
        if environment is None and not multi_tenant and not space_specs:
            raise ValueError(
                "environment is required unless multi_tenant=True or "
                "space_specs seed the registry"
            )
        self.workers = workers
        self.request_deadline = request_deadline
        self.migrate_timeout = migrate_timeout
        self.clock = clock
        self.multi_tenant = multi_tenant
        #: placements simulated by batch sweeps rather than the scalar loop.
        self.batch_lanes = 0
        self.metrics = MetricsExporter()
        self.draining = threading.Event()
        #: Exact count of simulator runs (cache hits excluded) — the
        #: quantity the at-most-once replay guarantee is asserted against.
        self.num_simulations = 0
        self._memo_lock = threading.Lock()
        #: Singleflight table: (fingerprint, placement key) → the future
        #: of the one in-flight simulation of that placement.  Guarded by
        #: ``_memo_lock``; entries are removed when the result lands.
        self._pending_sims: Dict[Tuple[str, bytes], Future] = {}
        self._local = threading.local()
        self._durable = spaces_dir is not None
        self.registry = SpaceRegistry(
            spaces_dir=spaces_dir,
            max_spaces=max_spaces,
            memo_budget=memo_budget,
            session_retention=session_retention,
            session_idle_timeout=session_idle_timeout,
            quota=space_quota,
            state_lock=self._memo_lock,
        )
        self._default_space: Optional[TenantSpace] = None
        if environment is not None:
            self._default_space = self.registry.add_environment(
                environment, now=self.clock()
            )
        for spec in space_specs:
            space = self.registry.add(spec, now=self.clock())
            if self._default_space is None:
                self._default_space = space
        if memo_path is not None and self._default_space is not None:
            if os.path.exists(memo_path):
                self._default_space.memo.load(memo_path)
        self._pool = WorkerPool(
            workers,
            max_backlog=max_backlog if max_backlog is not None else 32 * workers,
            name_prefix="repro-sim",
            clock=clock,
        )
        self._connections: Set[socket.socket] = set()
        self._conn_spaces: Dict[socket.socket, str] = {}
        self._conn_lock = threading.Lock()
        #: Final counters of spaces migrated off this server, keyed by
        #: fingerprint — eviction must not erase their history from
        #: fleet-level accounting (zero-duplicate checks sum these).
        self._migrated_stats: Dict[str, Dict[str, float]] = {}
        self._stats_lock = threading.Lock()
        self._active_requests = 0
        self._active_cond = threading.Condition()
        self._shutdown_requested = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        self._serving = False
        self._server = _TCPServer((host, port), _Handler, bind_and_activate=True)
        self._server.service = self
        bound_host, bound_port = self._server.server_address[:2]
        #: the bound ``host:port`` (resolves ``port=0`` to the chosen port).
        self.address = f"{bound_host}:{bound_port}"
        self.port = bound_port
        self._housekeeping_interval = housekeeping_interval
        self._housekeeping_stop = threading.Event()
        self._housekeeping = threading.Thread(
            target=self._housekeeping_loop, name="repro-housekeeping", daemon=True
        )
        self._housekeeping.start()

    # -- single-tenant compatibility surface ------------------------ #
    @property
    def environment(self) -> Optional[PlacementEnvironment]:
        """The default space's environment (single-tenant view)."""
        space = self._default_space
        return space.environment if space is not None else None

    @property
    def fingerprint(self) -> Optional[str]:
        """The default space's fingerprint (single-tenant view)."""
        space = self._default_space
        return space.fingerprint if space is not None else None

    @property
    def memo(self):
        """The default space's memo table (single-tenant view)."""
        space = self._default_space
        return space.memo if space is not None else None

    @property
    def sessions(self):
        """The default space's session registry (single-tenant view)."""
        space = self._default_space
        return space.sessions if space is not None else None

    # -------------------------------------------------------------- #
    def _resolve_space(
        self, fingerprint: Any, offered: Any
    ) -> Optional[TenantSpace]:
        """The space a handshake binds to, or None (→ unknown_fingerprint).

        Resolution order: resident space → persisted spec in
        ``spaces_dir`` (may raise :class:`SpaceLoading` while another
        connection materialises it) → the spec the client offered, adopted
        when ``multi_tenant``.  An offered spec whose rebuilt fingerprint
        disagrees with the claimed one is refused — the client would only
        reject our raws anyway.
        """
        now = self.clock()
        space = self.registry.get_or_load(fingerprint, now)
        if space is not None:
            return space
        if offered is not None and self.multi_tenant:
            try:
                spec = SpaceSpec.from_dict(offered)
            except (ValueError, KeyError, TypeError):
                return None
            if isinstance(fingerprint, str) and spec.fingerprint != fingerprint:
                return None
            self.metrics.inc("repro_service_spaces_adopted_total")
            return self.registry.add(spec, now=now)
        return None

    def _maybe_persist(self, space: TenantSpace, record: BatchRecord) -> None:
        """Persist a space's durable state once a retained batch completes.

        The write is an atomic whole-file replace, so concurrent
        completions are safe (last writer wins with a superset of results).
        """
        if self._durable and record.complete:
            self.registry.persist(space)

    def _worker_batch_simulator(self, space: TenantSpace) -> BatchSimulator:
        batches = getattr(self._local, "batch_simulators", None)
        if batches is None:
            batches = {}
            self._local.batch_simulators = batches
        batch = batches.get(space.fingerprint)
        if batch is None:
            while len(batches) >= _SIMULATORS_PER_WORKER:
                batches.pop(next(iter(batches)))
            env = space.environment
            batch = BatchSimulator(
                Simulator(env.graph, env.topology, env.simulator.cost_model)
            )
            batches[space.fingerprint] = batch
        return batch

    def _simulate_chunk(self, space: TenantSpace, keys: List[bytes]) -> List[RawOutcome]:
        """Worker-pool task: simulate a chunk of cache misses (given by their
        placement keys) + cache insert.

        :meth:`BatchSimulator.raw_outcomes` sweeps a chunk of at least
        :data:`~repro.sim.batch.SWEEP_MIN_LANES` placements and runs the
        scalar loop otherwise.  Every placement counts as one simulation
        either way, so the at-most-once accounting in
        :attr:`num_simulations` does not depend on the chunking;
        :attr:`batch_lanes` counts the swept ones.
        """
        placements = [_key_placement(key) for key in keys]
        raws = self._worker_batch_simulator(space).raw_outcomes(placements)
        with self._memo_lock:
            self.num_simulations += len(keys)
            space.num_simulations += len(keys)
            if len(keys) >= SWEEP_MIN_LANES:
                self.batch_lanes += len(keys)
            for key, raw in zip(keys, raws):
                space.memo.insert(key, raw)
        return raws

    def _chain_chunk(
        self,
        space: TenantSpace,
        keys: List[bytes],
        adapters: List[Future],
        future: Future,
    ) -> None:
        """Resolve a chunk's singleflight adapters from its pool future and
        retire their pending-table entries.  The entries are popped only
        *after* :meth:`_simulate_chunk` has inserted the results into the
        memo (both run under ``_memo_lock``), so every lookup finds a
        placement in the memo or the pending table — never in neither.  A
        chunk failure fails every adapter: they share one worker, so they
        share its fate."""
        def _resolve(done: Future) -> None:
            exc = done.exception()
            with self._memo_lock:
                for key in keys:
                    self._pending_sims.pop((space.fingerprint, key), None)
            if exc is not None:
                for adapter in adapters:
                    adapter.set_exception(exc)
            else:
                for adapter, raw in zip(adapters, done.result()):
                    adapter.set_result(raw)

        future.add_done_callback(_resolve)

    def _abandon_pending(
        self,
        space: TenantSpace,
        leaders: List[Tuple[int, bytes, Future]],
        exc: BaseException,
    ) -> None:
        """Failed admission: retire the adapters this request registered.
        Any follower that attached in the window resolves with the
        admission error (recorded as a fault; the client's policy
        retries) instead of waiting on a simulation that never ran."""
        with self._memo_lock:
            for _, key, _ in leaders:
                self._pending_sims.pop((space.fingerprint, key), None)
        for _, _, adapter in leaders:
            adapter.set_exception(exc)

    # -------------------------------------------------------------- #
    def stats(self) -> Dict[str, float]:
        """Counters behind the ``stats`` RPC (caches + service + fleet).

        ``memo_*`` aggregate across every resident space, so single-tenant
        servers report exactly their one space as before.
        """
        hits = misses = entries = 0.0
        session_count = 0.0
        quota_rejections = 0.0
        spaces = self.registry.snapshot()
        for space in spaces:
            memo_stats = space.memo.stats()
            hits += memo_stats["hits"]
            misses += memo_stats["misses"]
            entries += memo_stats["entries"]
            session_count += len(space.sessions)
            quota_rejections += space.quota_rejections
        total = hits + misses
        return {
            "memo_hits": hits,
            "memo_misses": misses,
            "memo_entries": entries,
            "memo_hit_rate": hits / total if total else 0.0,
            **{name: float(v) for name, v in self.metrics.counters.items()},
            "workers": float(self.workers),
            "workers_alive": float(self._pool.alive_workers()),
            "workers_replaced": float(self._pool.workers_replaced),
            "backlog": float(self._pool.backlog()),
            # repro: allow[lock-guarded-state] monitoring gauge: a torn read shows a stale count for one scrape, never corrupts state
            "simulations": float(self.num_simulations),
            "sessions": session_count,
            "draining": float(self.draining.is_set()),
            # repro: allow[lock-guarded-state] monitoring gauge: lane count is adjusted rarely and read approximately
            "batch_lanes": float(self.batch_lanes),
            "spaces": float(len(self.registry)),
            "space_evictions": float(self.registry.num_evictions),
            "space_lazy_loads": float(self.registry.num_lazy_loads),
            "quota_rejections": quota_rejections,
        }

    def render_metrics(self) -> str:
        """Prometheus text exposition for the ``--metrics-port`` endpoint.

        Fleet-wide ``repro_service_*`` gauges plus one ``repro_space_*``
        series per resident tenant, labelled ``space="<fp prefix>"`` —
        evicted tenants' series disappear with them (they are gauges over
        live state, not monotonic counters).
        """
        counters = self.metrics.counters
        for name in [key for key in counters if key.startswith("repro_space_")]:
            del counters[name]
        # repro: allow[lock-guarded-state] monitoring gauge: Prometheus scrape tolerates a one-increment-stale total
        counters["repro_service_simulations_total"] = float(self.num_simulations)
        counters["repro_service_workers_alive"] = float(self._pool.alive_workers())
        counters["repro_service_backlog"] = float(self._pool.backlog())
        counters["repro_service_workers_replaced_total"] = float(
            self._pool.workers_replaced
        )
        counters["repro_service_spaces_hosted"] = float(len(self.registry))
        counters["repro_service_space_evictions_total"] = float(
            self.registry.num_evictions
        )
        session_count = 0.0
        for space in self.registry.snapshot():
            label = f'space="{space.fingerprint[:12]}"'
            space_stats = space.stats()
            session_count += space_stats["sessions"]
            counters[f"repro_space_sessions{{{label}}}"] = space_stats["sessions"]
            counters[f"repro_space_simulations_total{{{label}}}"] = space_stats[
                "simulations"
            ]
            counters[f"repro_space_memo_hits_total{{{label}}}"] = space_stats[
                "memo_hits"
            ]
            counters[f"repro_space_memo_entries{{{label}}}"] = space_stats[
                "memo_entries"
            ]
            counters[f"repro_space_quota_rejected_total{{{label}}}"] = space_stats[
                "quota_rejections"
            ]
        counters["repro_service_sessions"] = session_count
        return self.metrics.render_prometheus()

    # -------------------------------------------------------------- #
    def _register_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(conn)

    def _unregister_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.discard(conn)
            self._conn_spaces.pop(conn, None)

    def _bind_connection_space(self, conn: socket.socket, fingerprint: str) -> None:
        """Remember which space a handshaken connection serves, so a
        migration can cut exactly that space's clients loose."""
        with self._conn_lock:
            self._conn_spaces[conn] = fingerprint

    def close_space_connections(self, fingerprint: str) -> int:
        """Force-close every connection bound to a space (after its
        migration) so clients reconnect — through the router, which now
        points at the new owner — and resume there; returns the count."""
        with self._conn_lock:
            victims = [
                conn
                for conn, bound in self._conn_spaces.items()
                if bound == fingerprint
            ]
        for conn in victims:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        return len(victims)

    def _remember_migrated_space(self, stats: Dict[str, Any]) -> None:
        """Fold a migrated-out space's final counters into this server's
        history — eviction drops the space from the registry, but its
        simulation/memo counts remain part of the fleet's totals."""
        fingerprint = str(stats.get("fingerprint"))
        with self._stats_lock:
            into = self._migrated_stats.setdefault(
                fingerprint, {"fingerprint": fingerprint}
            )
            for name, value in stats.items():
                if name == "fingerprint":
                    continue
                into[name] = float(into.get(name, 0.0)) + float(value)

    def migrated_space_stats(self) -> Dict[str, Dict[str, float]]:
        """Accumulated final counters of spaces migrated off this server."""
        with self._stats_lock:
            return {fp: dict(stats) for fp, stats in self._migrated_stats.items()}

    def _begin_request(self) -> None:
        with self._active_cond:
            self._active_requests += 1

    def _end_request(self) -> None:
        with self._active_cond:
            self._active_requests -= 1
            self._active_cond.notify_all()

    def _wait_requests_drained(self, timeout: Optional[float]) -> bool:
        """Block until no request is being served; False on timeout."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._active_cond:
            while self._active_requests > 0:
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return False
                self._active_cond.wait(remaining)
        return True

    def _housekeeping_loop(self) -> None:
        """Supervision: reap idle sessions per space, resurrect workers.

        Workers killed by a task replace themselves inside the pool;
        :meth:`WorkerPool.heal` here is the backstop for threads that died
        any other way.  ``repro_service_workers_replaced_total`` reads the
        pool's cumulative counter at render time, covering both paths.
        """
        while not self._housekeeping_stop.wait(self._housekeeping_interval):
            now = self.clock()
            for space in self.registry.snapshot():
                space.sessions.reap(now)
            self._pool.heal()

    def _request_shutdown(self) -> None:
        """Initiate shutdown from a handler thread without deadlocking."""
        if not self._shutdown_requested.is_set():
            self._shutdown_requested.set()
            threading.Thread(target=self.close, daemon=True).start()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        New evaluations answer ``draining`` errors the moment this is
        called (replays of already-retained batches still complete);
        queued and running simulations finish; responses still streaming
        are given until ``timeout`` to flush; every space persists; then
        the server closes.  This is what the CLI wires to SIGTERM.
        """
        self.draining.set()
        self._pool.drain(timeout=timeout)
        self._wait_requests_drained(timeout)
        self.close()

    def kill(self, timeout: Optional[float] = 30.0) -> None:
        """Chaos-harness death: durable state first, sockets last.

        Ordering is what makes failover duplicate-free: (1) stop
        admissions, (2) let running + queued simulations land in their
        batch records, (3) ``close()`` persists every space and only
        *then* force-closes client sockets — so by the time a client
        observes the reset and replays elsewhere, the durable state it
        will replay against is fully written.  Unlike :meth:`drain`,
        in-flight response streams are not given time to flush (the
        'server died mid-stream' path the clients must absorb).
        """
        self.draining.set()
        self._pool.drain(timeout=timeout)
        self.close()

    # -------------------------------------------------------------- #
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or a shutdown RPC)."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.05)

    def start(self) -> "MeasurementServer":
        """Serve on a background thread; returns self for chaining."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        self._serve_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving and drop every live connection.  Idempotent.

        Open sockets are force-closed so clients observe a reset — the
        'server died mid-search' path their retry policy must absorb.
        Durable registries persist every space's state on the way down
        (batch completions already persisted incrementally; this catches
        session/memo churn since the last completed batch).
        """
        server, self._server = getattr(self, "_server", None), None
        if server is None:
            return
        self._housekeeping_stop.set()
        if self._durable:
            self.registry.persist_all()
        if self._serving:
            server.shutdown()  # waits for serve_forever to drain
        server.server_close()
        with self._conn_lock:
            # repro: allow[set-iteration] teardown snapshot under the lock: sockets are closed in any order and nothing downstream observes the sequence
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._pool.shutdown(wait=False)
        self._housekeeping.join(timeout=5.0)
        thread = self._serve_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._serve_thread = None

    def __enter__(self) -> "MeasurementServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
