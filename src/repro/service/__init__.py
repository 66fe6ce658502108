"""Remote measurement service: a shared simulator fleet behind TCP (substrate S8).

``repro.service`` turns the evaluation-backend seam into a network service
so many searches share one measurement fleet — the distributed-measurement
architecture of Mirhoseini et al. '17 / GDP '19, applied to the simulator:

* :mod:`~repro.service.protocol` — versioned newline-delimited-JSON wire
  protocol with a graph-fingerprint handshake;
* :mod:`~repro.service.server` — :class:`MeasurementServer`, a threaded TCP
  server with a simulator worker pool and a shared memoisation table;
* :mod:`~repro.service.client` — :class:`RemoteBackend`, an
  :class:`~repro.sim.backends.EvaluationBackend` with connection pooling,
  per-request deadlines, seeded-backoff reconnection onto server-side
  sessions, and fault translation into
  :class:`~repro.sim.faults.EvaluationFault`;
* :mod:`~repro.service.pool` — the supervised bounded worker pool behind
  the server (dead-worker healing, ``busy`` backpressure, drain);
* :mod:`~repro.service.sessions` — per-client batch-result retention for
  at-most-once evaluation across reconnects;
* :mod:`~repro.service.tenancy` — fingerprint-keyed tenant spaces
  (:class:`SpaceRegistry`), each with its own memo cache, sessions, and
  in-flight quota, persisted for replay-transparent restarts;
* :mod:`~repro.service.router` — :class:`RouterServer`, a consistent-hash
  TCP proxy spreading tenant spaces across an *elastic* fleet of servers
  (live ``join``/``leave`` admin ops, space migration on owner changes);
* :mod:`~repro.service.health` — :class:`HealthMonitor` ping probes
  driving ring membership (``up → suspect → down → up``) and
  :class:`StandbyMirror`, the warm-standby router takeover;
* :mod:`~repro.service.metrics_http` — the ``--metrics-port`` Prometheus
  plaintext endpoint.

CLI: ``repro serve`` runs a server (``--multi-tenant`` hosts many spaces),
``repro route`` fronts a fleet (``--standby`` mirrors another router),
``repro fleet add|remove|status`` resizes it live, and
``repro place --remote HOST:PORT`` searches against one; see DESIGN.md
§8, §12 and §12.1.
"""

from .protocol import PROTOCOL_VERSION, HandshakeError, ProtocolError
from .server import MeasurementServer
from .client import RemoteBackend
from .health import HealthMonitor, StandbyMirror
from .metrics_http import MetricsHTTPServer
from .pool import PoolBusy, WorkerPool
from .router import HashRing, RouterServer, fetch_router_membership, router_admin
from .sessions import SessionRegistry
from .tenancy import SpaceLoading, SpaceRegistry, SpaceSpec, TenantSpace

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "HandshakeError",
    "MeasurementServer",
    "RemoteBackend",
    "MetricsHTTPServer",
    "PoolBusy",
    "WorkerPool",
    "HashRing",
    "HealthMonitor",
    "RouterServer",
    "StandbyMirror",
    "router_admin",
    "fetch_router_membership",
    "SessionRegistry",
    "SpaceLoading",
    "SpaceRegistry",
    "SpaceSpec",
    "TenantSpace",
]
