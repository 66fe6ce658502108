"""Multi-tenant measurement spaces: specs, per-tenant state, and a registry.

One :class:`~repro.service.server.MeasurementServer` used to host exactly
one graph/topology/cost-model triple; everything else was refused at the
fingerprint handshake.  This module turns the triple into a first-class
*tenant*:

``SpaceSpec``
    The serialisable identity of a measurement space — op graph, device
    topology and cost model — whose :attr:`~SpaceSpec.fingerprint` is the
    same ``placement_space_fingerprint`` clients already compute.  A spec
    round-trips through JSON bit-exactly at the fingerprint level, so a
    server can rebuild a space from the spec a client ships in its
    handshake (protocol v3) or from a ``<fingerprint>.space.json`` file.

``TenantSpace``
    One hosted space: its rebuilt environment, a per-space
    :class:`~repro.sim.backends.MemoBackend` with its own entry budget, a
    per-space :class:`~repro.service.sessions.SessionRegistry`, and an
    in-flight quota that keeps one hot tenant from monopolising the shared
    :class:`~repro.service.pool.WorkerPool` (fair scheduling on top of the
    pool's bounded admission).

``SpaceRegistry``
    Fingerprint-keyed LRU of live spaces under a global budget.  Misses
    lazily load ``<spaces_dir>/<fp>.space.json``; evictions and explicit
    :meth:`~SpaceRegistry.persist` calls write ``<fp>.state.json``
    (sessions + retained batch records + memo entries) through the atomic
    writers in :mod:`repro.ioutil`, which is what makes a server restart
    replay-transparent to reconnecting clients.

Everything is clock-free (callers pass ``now``) and wall-clock-ban clean;
locking is coarse (one registry lock, one lock per space's quota) because
space churn is rare next to evaluation traffic.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from ..graph.fingerprint import placement_space_fingerprint
from ..graph.serialization import graph_from_dict, graph_to_dict
from ..ioutil import atomic_write_json
from ..sim import PlacementEnvironment
from ..sim.backends import MemoBackend
from ..sim.serialization import (
    cost_model_from_dict,
    cost_model_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from .sessions import SessionRegistry

__all__ = ["SpaceSpec", "TenantSpace", "SpaceRegistry", "SpaceLoading"]

SPEC_FORMAT_VERSION = 1
STATE_FORMAT_VERSION = 1

_SPEC_SUFFIX = ".space.json"
_STATE_SUFFIX = ".state.json"


class SpaceLoading(RuntimeError):
    """Another connection is currently materialising this space from disk."""

    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"space {fingerprint} is loading")
        self.fingerprint = fingerprint


class SpaceSpec:
    """The portable identity of one measurement space.

    Wraps the already-constructed graph/topology/cost-model objects; use
    :meth:`from_environment` to lift a spec out of a live
    :class:`~repro.sim.PlacementEnvironment` and :meth:`build_environment`
    to rebuild one server-side.  The spec deliberately excludes
    client-side knobs (seed, noise, measure steps): those affect only the
    *commit* half of the raw/commit split, which never leaves the client.
    """

    def __init__(self, graph, topology, cost_model) -> None:
        self.graph = graph
        self.topology = topology
        self.cost_model = cost_model
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_environment(cls, environment: PlacementEnvironment) -> "SpaceSpec":
        return cls(
            environment.graph,
            environment.topology,
            environment.simulator.cost_model,
        )

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = placement_space_fingerprint(
                self.graph, self.topology, self.cost_model
            )
        return self._fingerprint

    def build_environment(self, *, seed: int = 0) -> PlacementEnvironment:
        """A server-side environment for this space.

        The seed only feeds measurement-noise commits, which servers never
        perform (they ship deterministic raw outcomes) — any value yields
        identical raws.
        """
        return PlacementEnvironment(
            self.graph, self.topology, self.cost_model, seed=seed
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": SPEC_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "graph": graph_to_dict(self.graph),
            "topology": topology_to_dict(self.topology),
            "cost_model": cost_model_to_dict(self.cost_model),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpaceSpec":
        if not isinstance(data, dict):
            raise ValueError("space spec must be an object")
        version = data.get("format_version")
        if version != SPEC_FORMAT_VERSION:
            raise ValueError(f"unsupported space spec format version {version!r}")
        spec = cls(
            graph_from_dict(data["graph"]),
            topology_from_dict(data["topology"]),
            cost_model_from_dict(data["cost_model"]),
        )
        claimed = data.get("fingerprint")
        if claimed is not None and claimed != spec.fingerprint:
            raise ValueError(
                "space spec fingerprint mismatch: "
                f"claims {claimed}, rebuilds to {spec.fingerprint}"
            )
        return spec


class TenantSpace:
    """One hosted measurement space and all of its per-tenant state."""

    def __init__(
        self,
        spec: SpaceSpec,
        *,
        environment: Optional[PlacementEnvironment] = None,
        memo_budget: Optional[int] = None,
        session_retention: int = 4,
        session_idle_timeout: float = 300.0,
        quota: Optional[int] = None,
        now: float = 0.0,
    ) -> None:
        if quota is not None and quota < 1:
            raise ValueError("quota must be >= 1 when set")
        self.spec = spec
        self.fingerprint = spec.fingerprint
        self.environment = environment or spec.build_environment()
        self.memo = MemoBackend(self.environment, max_entries=memo_budget)
        self.sessions = SessionRegistry(
            retention=session_retention, idle_timeout=session_idle_timeout
        )
        self.quota = quota
        self.num_simulations = 0
        self.quota_rejections = 0
        self.last_used = now
        self._inflight = 0
        self._frozen = False
        # A Condition (its lock doubles as the plain quota mutex) so a
        # migration drain barrier can wait for in-flight work without
        # wall-clock polling; ``release`` notifies waiters.
        self._quota_lock = threading.Condition()

    def touch(self, now: float) -> None:
        self.last_used = now

    @property
    def inflight(self) -> int:
        with self._quota_lock:
            return self._inflight

    @property
    def frozen(self) -> bool:
        with self._quota_lock:
            return self._frozen

    def try_acquire(self, lanes: int) -> bool:
        """Reserve ``lanes`` in-flight simulation slots; False when the
        space's quota would be exceeded (counted as a rejection) or the
        space is frozen for migration (retryable busy, not counted)."""
        with self._quota_lock:
            if self._frozen:
                return False
            if self.quota is not None and self._inflight + lanes > self.quota:
                self.quota_rejections += 1
                return False
            self._inflight += lanes
            return True

    def release(self, lanes: int) -> None:
        with self._quota_lock:
            self._inflight = max(0, self._inflight - lanes)
            self._quota_lock.notify_all()

    # -- migration drain barrier ----------------------------------------

    def freeze(self) -> None:
        """Stop admitting new work (admissions see retryable busy)."""
        with self._quota_lock:
            self._frozen = True

    def thaw(self) -> None:
        """Re-admit work after a failed/aborted migration."""
        with self._quota_lock:
            self._frozen = False

    def wait_idle(self, timeout: float) -> bool:
        """Block until no simulations are in flight (the migration drain
        barrier); True when idle was reached.  Each wake re-arms the full
        ``timeout`` — every wake is a ``release`` (progress), so this
        bounds *stall* time rather than total time."""
        with self._quota_lock:
            while self._inflight != 0:
                if not self._quota_lock.wait(timeout):
                    return self._inflight == 0
            return True

    def stats(self) -> Dict[str, Any]:
        memo = self.memo.stats()
        with self._quota_lock:
            inflight = self._inflight
            quota_rejections = self.quota_rejections
        return {
            "fingerprint": self.fingerprint,
            "sessions": float(len(self.sessions)),
            "simulations": float(self.num_simulations),
            "memo_entries": float(memo["entries"]),
            "memo_hits": float(memo["hits"]),
            "memo_misses": float(memo["misses"]),
            "inflight": float(inflight),
            "quota_rejections": float(quota_rejections),
        }

    def state_dict(self) -> Dict[str, Any]:
        """Durable per-space state: sessions (with batch records) + memo."""
        return {
            "format_version": STATE_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "sessions": self.sessions.state_dict(),
            "memo": self.memo.state_dict(),
        }

    def load_state(self, state: Dict[str, Any], *, now: float) -> int:
        """Restore state persisted by :meth:`state_dict`; returns restored
        session count.  A fingerprint disagreement means the file belongs
        to a different space and is refused."""
        version = state.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise ValueError(f"unsupported space state format version {version!r}")
        claimed = state.get("fingerprint")
        if claimed != self.fingerprint:
            raise ValueError(
                "space state fingerprint mismatch: "
                f"file {claimed}, space {self.fingerprint}"
            )
        memo_state = state.get("memo")
        if memo_state is not None:
            self.memo.load_state_dict(memo_state)
        return self.sessions.load_state(state.get("sessions", {}), now)


class SpaceRegistry:
    """Fingerprint-keyed LRU registry of live tenant spaces.

    Parameters
    ----------
    spaces_dir:
        Directory for ``<fp>.space.json`` / ``<fp>.state.json`` durability
        files; ``None`` disables both lazy loading and persistence.
    max_spaces:
        Global budget of resident spaces; the least-recently-used idle
        space (no in-flight work) is persisted and evicted past it.
    memo_budget:
        Per-space memo-cache entry budget (``None`` = unbounded).
    quota:
        Per-space in-flight simulation quota (``None`` = none).
    state_lock:
        Lock held while snapshotting a space's state for persistence —
        the server passes the lock guarding its memo mutations so a
        snapshot never races a concurrent cache insert.
    """

    def __init__(
        self,
        *,
        spaces_dir: Optional[str] = None,
        max_spaces: Optional[int] = None,
        memo_budget: Optional[int] = None,
        session_retention: int = 4,
        session_idle_timeout: float = 300.0,
        quota: Optional[int] = None,
        state_lock: Optional[threading.Lock] = None,
    ) -> None:
        if max_spaces is not None and max_spaces < 1:
            raise ValueError("max_spaces must be >= 1 when set")
        self.spaces_dir = spaces_dir
        self.max_spaces = max_spaces
        self.memo_budget = memo_budget
        self.session_retention = session_retention
        self.session_idle_timeout = session_idle_timeout
        self.quota = quota
        self.num_evictions = 0
        self.num_lazy_loads = 0
        self.num_persist_errors = 0
        self._lock = threading.Lock()
        self._state_lock = state_lock if state_lock is not None else threading.Lock()
        self._spaces: "OrderedDict[str, TenantSpace]" = OrderedDict()
        self._loading: set = set()
        if spaces_dir is not None:
            os.makedirs(spaces_dir, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _spec_path(self, fingerprint: str) -> Optional[str]:
        if self.spaces_dir is None:
            return None
        return os.path.join(self.spaces_dir, fingerprint + _SPEC_SUFFIX)

    def _state_path(self, fingerprint: str) -> Optional[str]:
        if self.spaces_dir is None:
            return None
        return os.path.join(self.spaces_dir, fingerprint + _STATE_SUFFIX)

    # -- admission -------------------------------------------------------

    def _new_space(
        self,
        spec: SpaceSpec,
        *,
        environment: Optional[PlacementEnvironment],
        now: float,
    ) -> TenantSpace:
        return TenantSpace(
            spec,
            environment=environment,
            memo_budget=self.memo_budget,
            session_retention=self.session_retention,
            session_idle_timeout=self.session_idle_timeout,
            quota=self.quota,
            now=now,
        )

    def add(
        self,
        spec: SpaceSpec,
        *,
        now: float,
        environment: Optional[PlacementEnvironment] = None,
        persist_spec: bool = True,
    ) -> TenantSpace:
        """Host a space (idempotent per fingerprint); returns the live one.

        When a ``spaces_dir`` is configured the spec is written alongside
        so the space survives eviction and restart; any prior persisted
        state (a restarted server re-adopting its own spaces) is restored.
        """
        fingerprint = spec.fingerprint
        with self._lock:
            existing = self._spaces.get(fingerprint)
            if existing is not None:
                existing.touch(now)
                self._spaces.move_to_end(fingerprint)
                return existing
        space = self._new_space(spec, environment=environment, now=now)
        self._restore_state(space, now)
        with self._lock:
            raced = self._spaces.get(fingerprint)
            if raced is not None:
                raced.touch(now)
                self._spaces.move_to_end(fingerprint)
                return raced
            self._spaces[fingerprint] = space
            evicted = self._evict_over_budget_locked()
        if persist_spec:
            spec_path = self._spec_path(fingerprint)
            if spec_path is not None and not os.path.exists(spec_path):
                self._write_json(spec_path, spec.to_dict())
        for old in evicted:
            self.persist(old)
        return space

    def add_environment(
        self, environment: PlacementEnvironment, *, now: float
    ) -> TenantSpace:
        """Host the space of an already-built environment (single-tenant
        bootstrap); the environment object itself is reused, not rebuilt."""
        spec = SpaceSpec.from_environment(environment)
        return self.add(spec, now=now, environment=environment)

    def get(self, fingerprint: Any, now: float) -> Optional[TenantSpace]:
        """The resident space for a fingerprint, or None (no lazy load)."""
        if not isinstance(fingerprint, str):
            return None
        with self._lock:
            space = self._spaces.get(fingerprint)
            if space is not None:
                space.touch(now)
                self._spaces.move_to_end(fingerprint)
            return space

    def get_or_load(self, fingerprint: Any, now: float) -> Optional[TenantSpace]:
        """Resident space, else lazy-load its persisted spec; None when the
        fingerprint is unknown here.  Raises :class:`SpaceLoading` when a
        concurrent handshake is already materialising it."""
        space = self.get(fingerprint, now)
        if space is not None:
            return space
        spec_path = self._spec_path(fingerprint) if isinstance(fingerprint, str) else None
        if spec_path is None or not os.path.exists(spec_path):
            return None
        with self._lock:
            if fingerprint in self._spaces:
                space = self._spaces[fingerprint]
                space.touch(now)
                self._spaces.move_to_end(fingerprint)
                return space
            if fingerprint in self._loading:
                raise SpaceLoading(fingerprint)
            self._loading.add(fingerprint)
        try:
            spec = self._read_spec(spec_path, fingerprint)
            if spec is None:
                return None
            space = self._new_space(spec, environment=None, now=now)
            self._restore_state(space, now)
        finally:
            with self._lock:
                self._loading.discard(fingerprint)
        with self._lock:
            raced = self._spaces.get(fingerprint)
            if raced is not None:
                return raced
            self._spaces[fingerprint] = space
            self.num_lazy_loads += 1
            evicted = self._evict_over_budget_locked()
        for old in evicted:
            self.persist(old)
        return space

    # -- durability ------------------------------------------------------

    def _read_spec(self, path: str, fingerprint: str) -> Optional[SpaceSpec]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            spec = SpaceSpec.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if spec.fingerprint != fingerprint:
            return None
        return spec

    def _write_json(self, path: str, data: Dict[str, Any]) -> bool:
        try:
            atomic_write_json(path, data)
            return True
        except OSError:
            self.num_persist_errors += 1
            return False

    def _restore_state(self, space: TenantSpace, now: float) -> None:
        state_path = self._state_path(space.fingerprint)
        if state_path is None or not os.path.exists(state_path):
            return
        try:
            with open(state_path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            space.load_state(state, now=now)
        except (OSError, ValueError, KeyError, TypeError):
            # A torn or stale state file costs re-simulation, never
            # correctness: the digest guard on BatchRecord already rejects
            # mismatched replays.
            return

    def persist(self, space: TenantSpace) -> bool:
        """Write a space's durable state file; False when not durable or
        the write failed (counted, never raised — persistence is an
        availability feature, not a correctness gate)."""
        state_path = self._state_path(space.fingerprint)
        if state_path is None:
            return False
        with self._state_lock:
            state = space.state_dict()
        return self._write_json(state_path, state)

    def persist_all(self) -> int:
        """Persist every resident space; returns how many were written."""
        return sum(1 for space in self.snapshot() if self.persist(space))

    # -- eviction --------------------------------------------------------

    def _evict_over_budget_locked(self) -> List[TenantSpace]:
        evicted: List[TenantSpace] = []
        if self.max_spaces is None:
            return evicted
        while len(self._spaces) > self.max_spaces:
            victim = None
            for fingerprint, space in self._spaces.items():
                if space.inflight == 0:
                    victim = fingerprint
                    break
            if victim is None:
                break
            evicted.append(self._spaces.pop(victim))
            self.num_evictions += 1
        return evicted

    def evict(self, fingerprint: str) -> bool:
        """Explicitly persist + drop one space (tests, admin)."""
        with self._lock:
            space = self._spaces.pop(fingerprint, None)
            if space is not None:
                self.num_evictions += 1
        if space is None:
            return False
        self.persist(space)
        return True

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> List[TenantSpace]:
        """Resident spaces, least-recently-used first."""
        with self._lock:
            return list(self._spaces.values())

    def fingerprints(self) -> List[str]:
        with self._lock:
            return list(self._spaces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spaces)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._spaces
