"""Router tier: consistent-hash fingerprint routing across a server fleet.

A :class:`RouterServer` is a thin TCP proxy in front of N
:class:`~repro.service.server.MeasurementServer` backends.  It reads
exactly one message — the client's ``hello`` — picks the backend that
owns the handshake's fingerprint on a :class:`HashRing` (SHA-256
consistent hashing with virtual nodes, so adding or removing one backend
remaps only ~1/N of the tenant spaces), forwards the handshake, and then
pumps raw bytes in both directions.  The router never parses evaluation
traffic: placements stream through at socket speed, and protocol
evolution below ``hello`` costs zero router changes.

Failure semantics
-----------------

* **Health-checked membership.**  Each ring member carries a state —
  ``up`` / ``suspect`` / ``down`` — driven by the
  :class:`~repro.service.health.HealthMonitor`'s ping probes.  ``down``
  backends sort to the *end* of the failover walk, so traffic routes
  around a sick backend before ever paying a dial timeout, and a
  recovered backend re-admits automatically.
* **Dial-time death.**  The handshake is idempotent, so the router
  retries it along the ring (``HashRing.ordered``) past dead backends —
  a fleet survives a lost server with only its resident spaces' warmth.
* **Handshake refusals** (version/fingerprint/loading) are forwarded to
  the client verbatim, never failed over: every backend would refuse the
  same way, and the structured ``code`` must reach the client untouched.
* **Mid-stream death.**  The router closes the client socket.  This is
  deliberate: replaying an interrupted stream *transparently* would
  require the router to track sessions, but
  :class:`~repro.service.client.RemoteBackend` already owns that — it
  reconnects (through the router, whose ring walk now skips the dead
  backend), ``resume``-s its session, and re-sends the batch id, which
  is idempotent end-to-end.  The router stays stateless per connection.

Admin plane (v3 live resize)
----------------------------

A first message whose op is in :data:`~repro.service.protocol.ADMIN_SCHEMA`
short-circuits the proxy into a request/response loop answered by the
router itself: ``stats`` (fleet-wide counters), ``join`` / ``leave``
(incremental resize), ``membership`` (addresses + ring states, what a
warm standby mirrors) and ``migrate`` (re-home one fingerprint).  Resize
and state changes run under the router's membership lock and trigger a
*rebalance*: every tracked fingerprint whose ring owner changed gets a
``migrate_space`` push from its old owner to the new one, so a resumed
client replays its batches against warm state instead of re-simulating
from cold.  See :func:`router_admin` / :func:`fetch_router_membership`.
"""

from __future__ import annotations

import bisect
import hashlib
import socket
import socketserver
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import protocol
from .client import migrate_space_request
from .protocol import ProtocolError

__all__ = [
    "RING_STATES",
    "HashRing",
    "RouterServer",
    "router_admin",
    "fetch_router_stats",
    "fetch_router_membership",
]

_PUMP_CHUNK = 65536

#: Ring membership states, in declining health order.  ``suspect`` still
#: receives traffic (one failed probe may be a blip); only ``down``
#: backends are routed around.
RING_STATES = ("up", "suspect", "down")


class HashRing:
    """Consistent hashing of string keys over backend addresses.

    Each backend contributes ``replicas`` virtual nodes at positions
    ``sha256("<addr>#<i>")``; a key routes to the first virtual node at or
    after its own hash position.  Determinism matters twice over: every
    router instance must agree on the mapping, and tests pin it.

    The ring is mutable (:meth:`add_backend` / :meth:`remove_backend`
    recompute only the joining/leaving backend's own virtual nodes) and
    every member carries a health state (:data:`RING_STATES`).  Readers
    are lock-free: the point table and the state map are immutable
    snapshots swapped atomically, so a lookup racing a resize sees either
    the old ring or the new one, never a torn mix.  *Mutations* are not
    synchronised here — the owning :class:`RouterServer` serialises them
    under its membership lock.
    """

    def __init__(self, backends: Iterable[str], replicas: int = 64) -> None:
        addresses = list(backends)
        if not addresses:
            raise ValueError("at least one backend is required")
        if len(set(addresses)) != len(addresses):
            raise ValueError("duplicate backend addresses")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        for address in addresses:
            protocol.parse_address(address)  # validate early, not on first dial
        self.backends = list(addresses)
        self.replicas = replicas
        self._states: Dict[str, str] = {address: "up" for address in addresses}
        points: List[Tuple[int, str]] = []
        for address in addresses:
            points.extend(self._replica_points(address))
        points.sort()
        self._table: Tuple[Tuple[int, ...], Tuple[str, ...]] = (
            tuple(position for position, _ in points),
            tuple(address for _, address in points),
        )

    @staticmethod
    def _hash(key: str) -> int:
        return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16)

    def _replica_points(self, address: str) -> List[Tuple[int, str]]:
        return [
            (self._hash(f"{address}#{i}"), address) for i in range(self.replicas)
        ]

    # -- reads (lock-free) ----------------------------------------------

    def lookup(self, key: str) -> str:
        """The backend owning ``key``: the first *live* (non-``down``)
        backend at or after the key's ring position, falling back to the
        raw ring owner when the whole fleet is down."""
        positions, owners = self._table
        states = self._states
        start = bisect.bisect(positions, self._hash(key)) % len(owners)
        for offset in range(len(owners)):
            address = owners[(start + offset) % len(owners)]
            if states.get(address) != "down":
                return address
        return owners[start]

    def ordered(self, key: str) -> List[str]:
        """Every backend in failover order: live backends in ring-walk
        order from ``key``, then ``down`` ones (still dialled as a last
        resort) — each address exactly once, even when virtual nodes of
        different backends hash-collide onto the same position."""
        positions, owners = self._table
        states = self._states
        start = bisect.bisect(positions, self._hash(key)) % len(owners)
        walk: List[str] = []
        seen = set()
        for offset in range(len(owners)):
            address = owners[(start + offset) % len(owners)]
            if address not in seen:
                seen.add(address)
                walk.append(address)
                if len(seen) == len(self.backends):
                    break
        live = [address for address in walk if states.get(address) != "down"]
        down = [address for address in walk if states.get(address) == "down"]
        return live + down

    def state(self, address: str) -> str:
        """One backend's membership state."""
        return self._states[address]

    def states(self) -> Dict[str, str]:
        """Snapshot of every backend's membership state."""
        return dict(self._states)

    # -- mutations (serialise under the owner's membership lock) --------

    def set_state(self, address: str, state: str) -> str:
        """Drive one backend's state machine; returns the previous state."""
        if state not in RING_STATES:
            raise ValueError(f"unknown ring state {state!r}")
        previous = self._states.get(address)
        if previous is None:
            raise ValueError(f"unknown backend {address!r}")
        states = dict(self._states)
        states[address] = state
        self._states = states
        return previous

    def add_backend(self, address: str) -> None:
        """Admit ``address``, hashing only its own virtual nodes — the
        ~1/N arcs those nodes claim are the only keys that remap."""
        protocol.parse_address(address)
        if address in self._states:
            raise ValueError(f"backend {address!r} already in the ring")
        positions, owners = self._table
        merged = list(zip(positions, owners))
        for point in self._replica_points(address):
            bisect.insort(merged, point)
        states = dict(self._states)
        states[address] = "up"
        self.backends = self.backends + [address]
        self._states = states
        self._table = (
            tuple(position for position, _ in merged),
            tuple(owner for _, owner in merged),
        )

    def remove_backend(self, address: str) -> None:
        """Retire ``address``; its arcs fall to their ring successors."""
        if address not in self._states:
            raise ValueError(f"unknown backend {address!r}")
        if len(self.backends) == 1:
            raise ValueError("cannot remove the last backend from the ring")
        positions, owners = self._table
        kept = [
            (position, owner)
            for position, owner in zip(positions, owners)
            if owner != address
        ]
        states = dict(self._states)
        states.pop(address)
        self.backends = [a for a in self.backends if a != address]
        self._states = states
        self._table = (
            tuple(position for position, _ in kept),
            tuple(owner for _, owner in kept),
        )


class _RouterHandler(socketserver.StreamRequestHandler):
    server: "_RouterTCPServer"

    #: Nagle off on the client-facing leg; the upstream leg is dialled
    #: through :func:`~repro.service.protocol.connect`, which does the same.
    disable_nagle_algorithm = True

    def _reply(self, payload: Dict[str, Any]) -> None:
        protocol.write_message(self.wfile, payload)

    def handle(self) -> None:
        router = self.server.router
        router._count("connections", 1.0)
        try:
            first = protocol.read_message(self.rfile)
        except ProtocolError as exc:
            try:
                self._reply(protocol.error_message(str(exc)))
            except OSError:
                pass
            return
        if first is None:
            return
        op = first.get("op")
        try:
            if isinstance(op, str) and op in router._ADMIN_HANDLERS:
                self._serve_admin(first)
            elif op == "hello":
                self._proxy(first)
            else:
                self._reply(
                    protocol.error_message(
                        "router accepts 'hello' (proxied to a backend) or an "
                        "admin op (stats, join, leave, membership, migrate) "
                        "as the first message"
                    )
                )
        except (ConnectionError, BrokenPipeError, ValueError, OSError):
            pass

    def _serve_admin(self, first: Dict[str, Any]) -> None:
        """Dispatch admin ops; keeps answering on the same socket."""
        router = self.server.router
        message = first
        while True:
            op = message.get("op")
            name = router._ADMIN_HANDLERS.get(op) if isinstance(op, str) else None
            if name is None:
                self._reply(
                    protocol.error_message(
                        "router admin connections only answer admin ops "
                        "(stats, join, leave, membership, migrate)"
                    )
                )
                return
            self._reply(getattr(router, name)(message))
            try:
                message = protocol.read_message(self.rfile)
            except ProtocolError as exc:
                self._reply(protocol.error_message(str(exc)))
                return
            if message is None:
                return

    def _proxy(self, hello: Dict[str, Any]) -> None:
        router = self.server.router
        fingerprint = hello.get("fingerprint")
        key = fingerprint if isinstance(fingerprint, str) else ""
        upstream: Optional[Tuple[str, socket.socket, Any]] = None
        reply: Optional[Dict[str, Any]] = None
        for rank, address in enumerate(router.ring.ordered(key)):
            try:
                sock = protocol.connect(address, router.dial_timeout)
            except OSError:
                router._count("dial_failures", 1.0)
                continue
            up_rfile = sock.makefile("rb")
            try:
                protocol.write_message(sock.makefile("wb"), hello)
                reply = protocol.read_message(up_rfile)
                if reply is None:
                    raise ProtocolError("backend closed during handshake")
            except (OSError, ProtocolError):
                router._count("dial_failures", 1.0)
                up_rfile.close()
                sock.close()
                continue
            if rank > 0:
                router._count("failovers", 1.0)
            upstream = (address, sock, up_rfile)
            break
        if upstream is None:
            self._reply(
                protocol.error_message(
                    "no live backend in the fleet for this fingerprint",
                    kind="busy",
                )
            )
            return
        address, sock, up_rfile = upstream
        try:
            self._reply(reply)
            if not reply.get("ok"):
                # Refusal forwarded verbatim (with its structured code);
                # every backend hosts the same protocol range and the
                # ring owner is authoritative for the space — failing
                # over would just refuse again, slower.
                return
            router._record_owner(key, address)
            router._count(f"routed[{address}]", 1.0)
            router._count("active", 1.0)
            try:
                self._pump_both(sock, up_rfile)
            finally:
                router._count("active", -1.0)
        finally:
            up_rfile.close()
            try:
                sock.close()
            except OSError:
                pass

    def _pump_both(self, up_sock: socket.socket, up_rfile: Any) -> None:
        """Raw byte relay in both directions until either side closes."""
        up_sock.settimeout(None)
        self.connection.settimeout(None)
        client_sock = self.connection

        def _shutdown_both() -> None:
            for target in (up_sock, client_sock):
                try:
                    target.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

        def _downstream() -> None:  # backend → client
            try:
                while True:
                    data = up_rfile.read1(_PUMP_CHUNK)
                    if not data:
                        break
                    client_sock.sendall(data)
            except (OSError, ValueError):
                pass
            finally:
                _shutdown_both()

        relay = threading.Thread(target=_downstream, daemon=True)
        relay.start()
        try:  # client → backend, on this handler thread
            while True:
                data = self.rfile.read1(_PUMP_CHUNK)
                if not data:
                    break
                up_sock.sendall(data)
        except (OSError, ValueError):
            pass
        finally:
            _shutdown_both()
        relay.join(timeout=5.0)


class _RouterTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    router: "RouterServer"


class RouterServer:
    """Consistent-hash TCP proxy over an *elastic* fleet of servers.

    Parameters
    ----------
    backends:
        Initial ``"host:port"`` addresses of the backend servers; the set
        grows and shrinks live via :meth:`join` / :meth:`leave` (the
        ``join``/``leave`` admin ops), with consistent hashing keeping
        the remap surface ~1/N per change.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    replicas:
        Virtual nodes per backend on the :class:`HashRing`.
    dial_timeout:
        Seconds allowed for a backend dial + proxied handshake before the
        ring walks to the next candidate.
    migrate_timeout:
        Seconds allowed for one ``migrate_space`` push — it covers the
        old owner's in-flight drain barrier, so it is deliberately looser
        than the dial timeout.

    Membership, the fingerprint→owner map and rebalancing all serialise
    under one membership lock; the ring itself is read lock-free by the
    proxy path (atomic snapshot swaps inside :class:`HashRing`).
    """

    #: Admin-op dispatch table, cross-checked against
    #: ``protocol.ADMIN_SCHEMA`` by the ``protocol-dispatch`` lint rule:
    #: every admin op has exactly one handler here and every handler
    #: must exist on this class.  Keep it a plain literal.
    _ADMIN_HANDLERS = {
        "stats": "_admin_stats",
        "join": "_admin_join",
        "leave": "_admin_leave",
        "membership": "_admin_membership",
        "migrate": "_admin_migrate",
    }

    def __init__(
        self,
        backends: Iterable[str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        dial_timeout: float = 5.0,
        migrate_timeout: float = 30.0,
    ) -> None:
        if dial_timeout <= 0:
            raise ValueError("dial_timeout must be positive")
        if migrate_timeout <= 0:
            raise ValueError("migrate_timeout must be positive")
        self.ring = HashRing(backends, replicas=replicas)
        self.dial_timeout = dial_timeout
        self.migrate_timeout = migrate_timeout
        self._counters: Dict[str, float] = {}
        self._counter_lock = threading.Lock()
        # Membership lock: ring mutations, the owner map and rebalancing
        # serialise here so concurrent join/leave/health transitions can
        # never interleave their migration pushes.
        self._lock = threading.RLock()
        self._owners: Dict[str, str] = {}
        self._serve_thread: Optional[threading.Thread] = None
        self._serving = False
        self._server = _RouterTCPServer((host, port), _RouterHandler)
        self._server.router = self
        bound_host, bound_port = self._server.server_address[:2]
        self.address = f"{bound_host}:{bound_port}"
        self.port = bound_port

    @property
    def backends(self) -> List[str]:
        """Current ring membership, in admission order."""
        return list(self.ring.backends)

    def _count(self, name: str, value: float) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def stats(self) -> Dict[str, float]:
        """Fleet-wide routing counters (flat floats, RPC-friendly)."""
        with self._counter_lock:
            counters = dict(self._counters)
        counters.setdefault("connections", 0.0)
        counters.setdefault("active", 0.0)
        counters.setdefault("dial_failures", 0.0)
        counters.setdefault("failovers", 0.0)
        counters.setdefault("migrations", 0.0)
        counters.setdefault("joins", 0.0)
        counters.setdefault("leaves", 0.0)
        counters.setdefault("standby_takeovers", 0.0)
        for address in self.backends:
            counters.setdefault(f"routed[{address}]", 0.0)
        counters["router"] = 1.0
        counters["backends"] = float(len(self.backends))
        return counters

    # -- membership ------------------------------------------------------

    def _record_owner(self, fingerprint: str, address: str) -> None:
        """Learn where a fingerprint actually landed (proxy path)."""
        if not fingerprint:
            return
        with self._lock:
            self._owners[fingerprint] = address

    def owners(self) -> Dict[str, str]:
        """Snapshot of the tracked fingerprint→backend map."""
        with self._lock:
            return dict(self._owners)

    def join(self, backend: str) -> int:
        """Admit a backend into the live ring; returns the number of
        spaces migrated onto it from their previous owners."""
        with self._lock:
            self.ring.add_backend(backend)
            migrations = self._rebalance_locked()
        self._count("joins", 1.0)
        return migrations

    def leave(self, backend: str) -> int:
        """Retire a backend; its spaces migrate to their new ring owners
        first (when it is still reachable — a dead leaver is simply
        dropped and its spaces re-materialise from durable state)."""
        with self._lock:
            self.ring.remove_backend(backend)
            migrations = self._rebalance_locked()
        self._count("leaves", 1.0)
        return migrations

    def set_backend_state(self, address: str, state: str) -> int:
        """Drive one backend's ring state (the health monitor's hook);
        returns migrations issued while rebalancing around the change."""
        with self._lock:
            previous = self.ring.set_state(address, state)
            if previous == state:
                return 0
            migrations = self._rebalance_locked()
        self._count(f"transitions[{previous}->{state}]", 1.0)
        return migrations

    def apply_membership(
        self,
        backends: Iterable[str],
        states: Optional[Dict[str, str]] = None,
    ) -> bool:
        """Mirror a primary's membership wholesale (the warm-standby
        path): sync ring membership and states *without* rebalancing —
        the primary already issued the migrations, and a mirror pushing
        them again would double-migrate.  True when anything changed."""
        target = [a for a in backends if isinstance(a, str)]
        if not target:
            raise ValueError("cannot mirror an empty backend set")
        changed = False
        with self._lock:
            current = list(self.ring.backends)
            for address in target:
                if address not in current:
                    self.ring.add_backend(address)
                    changed = True
            for address in current:
                if address not in target:
                    self.ring.remove_backend(address)
                    changed = True
            if states:
                ring_states = self.ring.states()
                for address, state in states.items():
                    if address in ring_states and state in RING_STATES:
                        if self.ring.set_state(address, state) != state:
                            changed = True
        return changed

    def _rebalance_locked(self) -> int:
        """Re-home every tracked fingerprint whose ring owner changed:
        the old owner pushes its serialized space to the new one
        (``migrate_space``).  An unreachable old owner is skipped — the
        space re-materialises on the new owner from the durable
        spaces-dir or from the client's own handshake spec offer."""
        migrations = 0
        for fingerprint, old_owner in list(self._owners.items()):
            new_owner = self.ring.lookup(fingerprint)
            if new_owner == old_owner:
                continue
            if self._send_migrate(old_owner, fingerprint, new_owner):
                migrations += 1
            self._owners[fingerprint] = new_owner
        if migrations:
            self._count("migrations", float(migrations))
        return migrations

    def _send_migrate(self, source: str, fingerprint: str, target: str) -> bool:
        """Ask ``source`` to push one space to ``target``; False when the
        source is unreachable or had nothing to push."""
        request = migrate_space_request(fingerprint, target=target)
        try:
            reply = protocol.round_trip(source, request, self.migrate_timeout)
        except (OSError, ProtocolError):
            return False
        return bool(reply.get("ok")) and bool(reply.get("pushed"))

    # -- admin-op handlers (dispatched via _ADMIN_HANDLERS) --------------

    def _admin_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "stats": self.stats()}

    def _admin_join(self, message: Dict[str, Any]) -> Dict[str, Any]:
        backend = message.get("backend")
        if not isinstance(backend, str):
            return protocol.error_message("join requires a string 'backend' address")
        try:
            migrations = self.join(backend)
        except ValueError as exc:
            return protocol.error_message(str(exc))
        return {"ok": True, "backends": self.backends, "migrations": migrations}

    def _admin_leave(self, message: Dict[str, Any]) -> Dict[str, Any]:
        backend = message.get("backend")
        if not isinstance(backend, str):
            return protocol.error_message("leave requires a string 'backend' address")
        try:
            migrations = self.leave(backend)
        except ValueError as exc:
            return protocol.error_message(str(exc))
        return {"ok": True, "backends": self.backends, "migrations": migrations}

    def _admin_membership(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            backends = self.backends
            states = self.ring.states()
        return {"ok": True, "backends": backends, "states": states}

    def _admin_migrate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        fingerprint = message.get("fingerprint")
        target = message.get("target")
        if not isinstance(fingerprint, str) or not isinstance(target, str):
            return protocol.error_message(
                "migrate requires string 'fingerprint' and 'target'"
            )
        migrated = False
        with self._lock:
            if target not in self.ring.backends:
                return protocol.error_message(f"unknown backend {target!r}")
            source = self._owners.get(fingerprint)
            if source is not None and source != target:
                migrated = self._send_migrate(source, fingerprint, target)
            self._owners[fingerprint] = target
        if migrated:
            self._count("migrations", 1.0)
        return {"ok": True, "migrated": migrated}

    # -------------------------------------------------------------- #
    def serve_forever(self) -> None:
        """Block serving until :meth:`close`."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.05)

    def start(self) -> "RouterServer":
        """Serve on a background thread; returns self for chaining."""
        if self._serve_thread is not None:
            raise RuntimeError("router already started")
        self._serve_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving.  Idempotent; live proxied streams are dropped."""
        server, self._server = getattr(self, "_server", None), None
        if server is None:
            return
        if self._serving:
            server.shutdown()
        server.server_close()
        thread = self._serve_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._serve_thread = None

    def __enter__(self) -> "RouterServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def router_admin(
    address: str, message: Dict[str, Any], timeout: float = 5.0
) -> Dict[str, Any]:
    """One admin op against a router; raises :class:`ProtocolError` on a
    refusal (the ``repro fleet`` CLI and the standby mirror build on it)."""
    reply = protocol.round_trip(address, message, timeout)
    if not reply.get("ok"):
        raise ProtocolError(
            f"router admin {message.get('op')!r} failed: {reply.get('error')}"
        )
    return reply


def fetch_router_stats(address: str, timeout: float = 5.0) -> Dict[str, float]:
    """The router's fleet-wide counters via its first-message ``stats`` path."""
    try:
        reply = protocol.round_trip(address, {"op": "stats"}, timeout)
    except ProtocolError as exc:
        raise ProtocolError(f"router stats failed: {exc}") from None
    if not reply.get("ok"):
        raise ProtocolError(f"router stats failed: {reply.get('error')}")
    return {k: float(v) for k, v in reply.get("stats", {}).items()}


def fetch_router_membership(
    address: str, timeout: float = 5.0
) -> Dict[str, Any]:
    """Live membership — ``{"backends": [...], "states": {...}}`` — via
    the ``membership`` admin op."""
    reply = router_admin(address, {"op": "membership"}, timeout=timeout)
    return {
        "backends": list(reply.get("backends") or []),
        "states": dict(reply.get("states") or {}),
    }
