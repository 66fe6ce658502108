"""``RemoteBackend``: the measurement service as an evaluation backend.

Implements the :class:`~repro.sim.backends.EvaluationBackend` protocol over
a :class:`~repro.service.server.MeasurementServer`.  The server returns
only deterministic :class:`~repro.sim.environment.RawOutcome` objects; this
backend commits them against the *local* environment in submission order,
so measurement noise and the environment clock come from the same RNG
stream a :class:`~repro.sim.backends.SerialBackend` would have used — a
remote search is bit-for-bit identical to a local one on the same seed
(golden-tested over loopback).

Fault translation keeps the engine's
:class:`~repro.core.engine.EvaluationPolicy` in charge of *network*
failures with zero engine changes:

========================================  =============================
network condition                          surfaces as
========================================  =============================
connection refused / reset / closed        ``EvaluationFault(kind="crash")``
request deadline (socket timeout)          ``EvaluationFault(kind="straggler")``
server-reported worker error               ``EvaluationFault(kind="crash")``
server busy / server-side deadline         ``EvaluationFault(kind="straggler")``
server draining (graceful shutdown)        ``EvaluationFault(kind="crash")``
protocol-version / fingerprint mismatch    :class:`HandshakeError` (no retry)
========================================  =============================

A handshake rejection is deliberately **not** a fault: a client measuring
a different graph would never succeed on retry, so it raises immediately
instead of burning the policy's retry budget.  Servers attach a
structured code (``version_range`` / ``unknown_fingerprint`` /
``space_loading``) that surfaces verbatim as ``HandshakeError.code``.
``space_loading`` is the one transient code — another connection or a
live migration is materialising the space — so ``_dial`` rides it out
with the same seeded backoff budget as a broken connection before
surfacing it.  A
backend constructed with ``offer_space=True`` ships its environment's
serialized :class:`~repro.service.tenancy.SpaceSpec` in the handshake so
a multi-tenant server can adopt the space instead of refusing.

No raw outcome is committed until the *whole* batch has arrived: a
connection that dies halfway through leaves the local environment's clock
and RNG untouched, so the retried batch replays cleanly.

Reconnect and replay
--------------------

A connection that breaks *mid-RPC* — after a successful handshake — is
retried before any fault reaches the policy: the backend backs off with
seeded exponential delays + jitter (a private RNG, so the search's noise
streams are untouched), re-dials, re-attaches to its server-side session
with the ``resume`` op, and re-sends the interrupted batch under the same
client-monotonic ``batch`` id.  The server replays retained results and
re-attaches to still-running simulations, so the retried batch costs zero
duplicate simulator work (at-most-once evaluation).  An *initial* dial
failure still faults immediately — a server that was never reachable is
the policy's problem, not the transport's.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..sim.backends import _placement_key
from ..sim.environment import Measurement, PlacementEnvironment, RawOutcome
from ..sim.faults import EvaluationFault
from ..graph.fingerprint import placement_space_fingerprint
from . import protocol
from .protocol import PROTOCOL_VERSION, HandshakeError, ProtocolError

__all__ = ["RemoteBackend", "migrate_space_request"]

#: transport-level failures that trigger the reconnect/backoff loop when
#: they interrupt an RPC on an established connection.
_TRANSPORT_ERRORS = (socket.timeout, ConnectionError, BrokenPipeError, OSError)


def migrate_space_request(
    fingerprint: str,
    *,
    target: Optional[str] = None,
    space: Optional[dict] = None,
    state: Optional[dict] = None,
) -> dict:
    """The one ``migrate_space`` line constructor, for both legs.

    ``target`` makes the *push* leg (router → old owner: "serialise and
    hand this space to ``target``"); ``space``/``state`` make the *adopt*
    leg (old owner → new owner: "host this").  Routers and servers both
    build their lines here so the wire shape has a single source of
    truth next to the other op constructors.
    """
    message = {"op": "migrate_space", "fingerprint": fingerprint}
    if target is not None:
        message["target"] = target
    if space is not None:
        message["space"] = space
    if state is not None:
        message["state"] = state
    return message


class _Connection:
    """One handshaken socket with line-oriented JSON framing."""

    def __init__(self, address: str, timeout: float, hello: dict) -> None:
        self.sock = protocol.connect(address, timeout)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        try:
            reply = self.request(hello)
        except BaseException:
            self.close()
            raise
        if not reply.get("ok"):
            refusal = reply.get("error", "handshake refused")
            code = reply.get("code")
            self.close()
            raise HandshakeError(refusal, code=code if isinstance(code, str) else None)
        #: server-side session id (validated by ``RemoteBackend._dial``).
        self.session = reply.get("session")

    def send(self, message: dict) -> None:
        protocol.write_message(self.wfile, message)

    def recv(self) -> dict:
        reply = protocol.read_message(self.rfile)
        if reply is None:
            raise ConnectionResetError("server closed the connection")
        return reply

    def request(self, message: dict) -> dict:
        self.send(message)
        return self.recv()

    def close(self) -> None:
        for closer in (self.rfile.close, self.wfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class RemoteBackend:
    """Evaluates placements against a shared measurement service.

    Parameters
    ----------
    environment:
        The *local* environment; must describe the same measurement space
        as the server (enforced by the fingerprint handshake).  All noise
        draws and clock charges happen here.
    address:
        ``"host:port"`` of a running server.
    timeout:
        Per-request deadline in real seconds, applied to the connect and to
        every reply line.  Expiry surfaces as
        ``EvaluationFault(kind="straggler")``.
    pool_size:
        Connections kept warm.  One search thread needs one; concurrent
        callers of ``evaluate_batch`` each borrow their own.
    reconnect_attempts:
        Re-dial attempts after a connection breaks *mid-RPC* (an initial
        dial failure faults immediately).  0 disables reconnection.
    backoff_base, backoff_factor, backoff_jitter:
        Reconnect delay: ``base * factor**attempt * (1 + jitter * u)``
        with ``u`` uniform from a private RNG seeded by
        ``reconnect_seed`` — deterministic, and decoupled from the
        search's noise streams.
    sleep:
        Injectable delay function (tests pass a recorder to keep the
        reconnect path instant).
    offer_space:
        Ship the environment's serialized space spec in every handshake,
        letting a ``multi_tenant`` server adopt the space on first contact
        (and re-adopt it after a restart that lost its registry) instead
        of refusing with ``unknown_fingerprint``.
    """

    def __init__(
        self,
        environment: PlacementEnvironment,
        address: str,
        *,
        timeout: float = 30.0,
        pool_size: int = 2,
        reconnect_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.5,
        reconnect_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        offer_space: bool = False,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        if backoff_base < 0 or backoff_jitter < 0:
            raise ValueError("backoff_base and backoff_jitter must be >= 0")
        if backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        self.environment = environment
        protocol.parse_address(address)  # validate early, not on first dial
        self.address = address
        self.timeout = timeout
        self.pool_size = pool_size
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.fingerprint = placement_space_fingerprint(
            environment.graph, environment.topology, environment.simulator.cost_model
        )
        self.offer_space = offer_space
        self._space_payload: Optional[dict] = None
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False
        self._sleep = sleep
        self._backoff_rng = np.random.default_rng(reconnect_seed)
        # The server-side session this backend re-attaches to after a
        # reconnect (adopted from the first successful handshake).
        self._session: Optional[str] = None
        # Client-monotonic id tagged onto every ticketed batch RPC; a
        # retried batch reuses its id so the server replays, never re-runs.
        self._next_batch = 0
        self._prefetched: Dict[bytes, RawOutcome] = {}
        self.num_requests = 0
        self.num_rpc_batches = 0
        self.num_remote_cached = 0
        self.num_prefetch_hits = 0
        self.num_reconnects = 0
        self.num_session_resumes = 0
        self.num_replayed = 0
        self.num_faults = 0
        self.num_loading_retries = 0

    # -------------------------------------------------------------- #
    def _dial(self) -> _Connection:
        hello = {
            "op": "hello",
            "version": PROTOCOL_VERSION,
            "min_version": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
        }
        if self.offer_space:
            if self._space_payload is None:
                from .tenancy import SpaceSpec

                self._space_payload = SpaceSpec.from_environment(
                    self.environment
                ).to_dict()
            hello["space"] = self._space_payload
        conn: Optional[_Connection] = None
        for attempt in range(self.reconnect_attempts + 1):
            if attempt > 0:
                self._backoff(attempt - 1)
            try:
                conn = _Connection(self.address, self.timeout, hello)
                break
            except HandshakeError as exc:
                # ``space_loading`` is the one transient refusal: another
                # connection (or a migration) is materialising the space
                # right now, so ride it out with the reconnect budget
                # instead of surfacing a fatal handshake error.
                if exc.code == "space_loading" and attempt < self.reconnect_attempts:
                    self.num_loading_retries += 1
                    continue
                raise
            except socket.timeout:
                self.num_faults += 1
                raise EvaluationFault(
                    f"measurement service {self.address} did not answer the "
                    f"handshake within {self.timeout:.1f}s",
                    kind="straggler",
                ) from None
            except (ConnectionError, ProtocolError, OSError) as exc:
                self.num_faults += 1
                raise EvaluationFault(
                    f"cannot reach measurement service {self.address}: {exc}",
                    kind="crash",
                ) from None
        assert conn is not None
        if not isinstance(conn.session, str):
            # Outside the fault translation above: a server that opens no
            # session cannot replay, and retrying would meet the same server.
            conn.close()
            raise ProtocolError(f"hello reply carries no session id: {conn.session!r}")
        self.num_reconnects += 1
        self._attach_session(conn)
        return conn

    def _attach_session(self, conn: _Connection) -> None:
        """Adopt or re-attach the backend's server-side session.

        The first handshake's session becomes the backend's identity;
        later connections (pool growth, reconnects) ``resume`` onto it so
        retained batches replay.  An unknown-session answer means the
        server restarted or reaped us — adopt the fresh session instead;
        retention is gone, so interrupted batches simply re-evaluate.
        """
        if self._session is None or self._session == conn.session:
            self._session = conn.session
            return
        try:
            reply = conn.request({"op": "resume", "session": self._session})
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._fault_from(exc) from None
        if reply.get("ok"):
            self.num_session_resumes += 1
        else:
            self._session = conn.session

    def _backoff(self, attempt: int) -> None:
        """Seeded exponential backoff with jitter before re-dial ``attempt``."""
        delay = self.backoff_base * self.backoff_factor ** attempt
        delay *= 1.0 + self.backoff_jitter * float(self._backoff_rng.random())
        if delay > 0:
            self._sleep(delay)

    def _borrow(self) -> _Connection:
        with self._lock:
            if self._closed:
                raise RuntimeError("RemoteBackend is closed")
            if self._idle:
                return self._idle.pop()
        return self._dial()

    def _release(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        conn.close()

    # -------------------------------------------------------------- #
    def _fault_from(self, exc: BaseException) -> EvaluationFault:
        self.num_faults += 1
        if isinstance(exc, socket.timeout):
            return EvaluationFault(
                f"no reply from measurement service within {self.timeout:.1f}s",
                kind="straggler",
            )
        return EvaluationFault(f"measurement service connection failed: {exc}", kind="crash")

    def _fetch_raws(self, keys: Sequence[bytes]) -> List[RawOutcome]:
        """Raw outcomes for the placements with memo keys ``keys``, in
        submission order.

        Duplicates within the batch are requested once — a raw outcome is
        deterministic, so one fetch serves every occurrence (and the server
        pool never races the same placement against itself).  Every
        placement is encoded before any I/O, so one that no wire string
        can carry raises :class:`ValueError` without touching the server.
        """
        unique = dict.fromkeys(keys)
        fetched = self._fetch_unique([protocol.encode_placement(key) for key in unique])
        by_key = dict(zip(unique, fetched))
        return [by_key[key] for key in keys]

    def _fetch_unique(self, placements: List[str]) -> List[RawOutcome]:
        """A ticketed ``evaluate_batch``, reconnecting across broken links.

        The batch id is allocated once; every wire attempt re-sends it, so
        a reconnect after a mid-stream break replays the server's retained
        results instead of re-simulating.  An initial dial failure raises
        immediately; only breaks on an *established* connection enter the
        backoff/reconnect loop.
        """
        if not placements:
            return []
        with self._lock:
            batch_id = self._next_batch
            self._next_batch += 1
        conn: Optional[_Connection] = self._borrow()
        fault: Optional[EvaluationFault] = None
        for attempt in range(self.reconnect_attempts + 1):
            if attempt > 0:
                self._backoff(attempt - 1)
            if conn is None:
                try:
                    conn = self._borrow()
                except EvaluationFault as exc:
                    fault = exc  # server still down; back off and re-dial
                    continue
            try:
                return self._fetch_on(conn, placements, batch_id)
            except _TRANSPORT_ERRORS as exc:
                conn.close()
                conn = None
                fault = self._fault_from(exc)
        if fault is None:  # pragma: no cover - the loop always sets it
            fault = EvaluationFault("measurement service unavailable", kind="crash")
        raise fault

    def _fetch_on(
        self, conn: _Connection, placements: List[str], batch_id: int
    ) -> List[RawOutcome]:
        """One ``evaluate_batch`` RPC on ``conn``; raws in submission order.

        Reads reply lines until every ticket has been seen exactly once.
        Transport failures propagate raw (the caller owns reconnection);
        protocol violations and server-reported faults close the
        connection and raise — those must not be retried here.
        """
        request = {
            "op": "evaluate_batch",
            "placements": placements,
            "batch": batch_id,
        }
        try:
            reply = conn.request(request)
            if not reply.get("ok"):
                raise self._server_error(reply)
            tickets = reply.get("tickets")
            if tickets != list(range(len(placements))):
                raise ProtocolError(f"unexpected ticket ids {tickets!r}")
            raws: List[Optional[RawOutcome]] = [None] * len(placements)
            errors: Dict[int, Dict] = {}
            seen: Set[int] = set()
            while True:
                results = reply.get("results")
                if not isinstance(results, list):
                    raise ProtocolError(f"reply line carries no results list: {results!r}")
                for result in results:
                    ticket = result.get("ticket") if isinstance(result, dict) else None
                    if not isinstance(ticket, int) or not 0 <= ticket < len(placements):
                        raise ProtocolError(f"unknown ticket {ticket!r}")
                    if ticket in seen:
                        raise ProtocolError(f"duplicate ticket {ticket}")
                    seen.add(ticket)
                    if result.get("replayed"):
                        self.num_replayed += 1
                    if "error" in result:
                        detail = result["error"]
                        if not isinstance(detail, dict):
                            raise ProtocolError(f"malformed error for ticket {ticket}: {detail!r}")
                        errors[ticket] = detail
                        continue
                    raws[ticket] = protocol.decode_raw(result.get("raw"))
                    if result.get("cached"):
                        self.num_remote_cached += 1
                if len(seen) == len(placements):
                    break
                reply = conn.recv()
                if not reply.get("ok"):
                    raise self._server_error(reply)
            self.num_rpc_batches += 1
            self.num_requests += len(placements)
        except (ProtocolError, EvaluationFault):
            conn.close()
            raise
        self._release(conn)
        if errors:
            index = min(errors)
            detail = errors[index]
            kind = "straggler" if detail.get("kind") == "deadline" else "crash"
            self.num_faults += 1
            raise EvaluationFault(
                f"measurement worker failed: "
                f"{detail.get('message', 'worker failure')}",
                kind=kind,
                index=index,
            )
        return raws

    def _server_error(self, reply: dict) -> Exception:
        message = reply.get("error", "unspecified server error")
        kind = reply.get("kind")
        if kind == "crash" or kind == "draining":
            self.num_faults += 1
            return EvaluationFault(f"measurement service refused: {message}", kind="crash")
        if kind == "busy" or kind == "deadline":
            self.num_faults += 1
            return EvaluationFault(
                f"measurement service deferred: {message}", kind="straggler"
            )
        return ProtocolError(message)

    # -------------------------------------------------------------- #
    # EvaluationBackend protocol
    def evaluate_batch(self, placements: Sequence[np.ndarray]) -> List[Measurement]:
        """Measure the batch remotely; commit locally in submission order.

        Commits happen only after every raw outcome has arrived, so any
        fault leaves the local RNG stream and clock exactly where they
        were — the engine can retry without perturbing determinism.
        """
        keys = [_placement_key(p) for p in placements]
        pending = [self._prefetched.get(key) for key in keys]
        missing_at = [i for i, raw in enumerate(pending) if raw is None]
        self.num_prefetch_hits += len(keys) - len(missing_at)
        if missing_at:
            fetched = self._fetch_raws([keys[i] for i in missing_at])
            for slot, raw in zip(missing_at, fetched):
                pending[slot] = raw
        return [self.environment.commit(raw) for raw in pending]

    def prepare_batch(self, placements: Sequence[np.ndarray]) -> None:
        """Batch-ticketing hint from the engine's resilient path.

        Fetches the whole minibatch in one ticketed RPC so the following
        per-placement ``evaluate_batch([p])`` calls (which the
        :class:`~repro.core.engine.EvaluationPolicy` path uses for fault
        attribution) commit prefetched raws instead of paying a round trip
        each.  Failures are swallowed — this is an optimisation hint, and
        the per-placement requests that follow will surface live faults to
        the policy with correct attribution.
        """
        self._prefetched.clear()
        if not placements:
            return
        keys = [_placement_key(p) for p in placements]
        try:
            raws = self._fetch_raws(keys)
        except (EvaluationFault, ProtocolError):
            return
        self._prefetched = dict(zip(keys, raws))

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
        self._prefetched.clear()

    def stats(self) -> Dict[str, float]:
        return {
            "requests": float(self.num_requests),
            "rpc_batches": float(self.num_rpc_batches),
            "remote_cache_hits": float(self.num_remote_cached),
            "prefetch_hits": float(self.num_prefetch_hits),
            "reconnects": float(self.num_reconnects),
            "session_resumes": float(self.num_session_resumes),
            "replayed": float(self.num_replayed),
            "faults": float(self.num_faults),
            "loading_retries": float(self.num_loading_retries),
        }

    # -------------------------------------------------------------- #
    def remote_spaces(self) -> List[dict]:
        """Per-tenant stats for every space the server hosts (``spaces`` op)."""
        conn = self._borrow()
        try:
            reply = conn.request({"op": "spaces"})
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._fault_from(exc) from None
        self._release(conn)
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "spaces RPC failed"))
        return list(reply.get("spaces") or [])

    def ping(self) -> str:
        """The server's liveness state: ``"serving"`` or ``"draining"``."""
        conn = self._borrow()
        try:
            reply = conn.request({"op": "ping"})
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._fault_from(exc) from None
        self._release(conn)
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "ping RPC failed"))
        return reply.get("state", "serving")

    def remote_stats(self) -> Dict[str, float]:
        """The server's ``stats`` RPC (shared cache hit rate, counters)."""
        conn = self._borrow()
        try:
            reply = conn.request({"op": "stats"})
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._fault_from(exc) from None
        self._release(conn)
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "stats RPC failed"))
        return {k: float(v) for k, v in reply.get("stats", {}).items()}

    def shutdown_server(self) -> None:
        """Ask the server to exit (the ``shutdown`` RPC)."""
        conn = self._borrow()
        try:
            reply = conn.request({"op": "shutdown"})
        except _TRANSPORT_ERRORS as exc:
            conn.close()
            raise self._fault_from(exc) from None
        conn.close()
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "shutdown RPC failed"))

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
