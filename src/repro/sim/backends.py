"""Pluggable placement-evaluation backends.

The search engine never calls :meth:`PlacementEnvironment.evaluate` directly;
it hands whole minibatches to an :class:`EvaluationBackend`.  This is the seam
the interaction-time papers (Mirhoseini et al. '17, GDP '19) exploit with
distributed measurement, and the one every future perf/robustness feature
(async evaluation, remote measurement service, fault injection) plugs into.

Two in-process implementations ship here (the measurement service's
:class:`~repro.service.client.RemoteBackend` is the remote one):

:class:`SerialBackend`
    One in-process simulation per placement — bit-for-bit the historical
    behaviour of the search loop.

:class:`MemoBackend`
    Hashes each placement to its deterministic :class:`RawOutcome` (noiseless
    makespan or OOM detail) and replays cache hits through
    :meth:`PlacementEnvironment.commit`, so repeated placements skip the
    simulator but still draw fresh measurement noise and pay the full
    environment-clock charge.  Results are therefore *identical* to
    :class:`SerialBackend` on the same seed — only faster.

A third, :class:`~repro.sim.faults.FaultInjectingBackend`, wraps either of
them and injects seeded crashes, stragglers and corrupted measurements for
chaos-testing the engine's retry/quarantine policy (see
:mod:`repro.sim.faults`).
"""

from __future__ import annotations

import json
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..ioutil import atomic_write_text
from .batch import SWEEP_MIN_LANES, BatchSimulator
from .environment import Measurement, PlacementEnvironment, RawOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = [
    "EvaluationBackend",
    "SerialBackend",
    "MemoBackend",
    "make_backend",
]


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can measure a minibatch of placements.

    Implementations must preserve input order (``result[i]`` measures
    ``placements[i]``) and advance the environment clock exactly as serial
    evaluation would — the engine's budget accounting depends on it.
    """

    environment: PlacementEnvironment

    def evaluate_batch(self, placements: Sequence[np.ndarray]) -> List[Measurement]:
        """Measure every placement, in order."""
        ...

    def close(self) -> None:
        """Release any held resources (sockets).  Idempotent."""
        ...

    def stats(self) -> Dict[str, float]:
        """Backend-specific counters for observability."""
        ...


class SerialBackend:
    """The historical behaviour: one in-process evaluation per placement.

    A minibatch's deterministic simulations go through
    :meth:`BatchSimulator.raw_outcomes <repro.sim.batch.BatchSimulator
    .raw_outcomes>`, which sweeps from
    :data:`~repro.sim.batch.SWEEP_MIN_LANES` placements and runs the scalar
    loop below that.  The raw outcomes are committed per placement in
    submission order, so measurements, noise draws and clock charges are
    bit-for-bit those of ``environment.evaluate`` on each placement.
    """

    def __init__(self, environment: PlacementEnvironment) -> None:
        self.environment = environment
        self._batch = BatchSimulator(environment.simulator)

    def evaluate_batch(self, placements: Sequence[np.ndarray]) -> List[Measurement]:
        return [self.environment.commit(raw) for raw in self._batch.raw_outcomes(placements)]

    def close(self) -> None:
        pass

    def stats(self) -> Dict[str, float]:
        return {"evaluations": float(self.environment.num_evaluations)}


def _placement_key(placement: Sequence[int]) -> bytes:
    """The exact memo key of a placement: a tag byte, then one byte per op.

    Device indices in [0, 255] (every topology this repo builds) are stored
    as ``uint8`` after the tag ``0x00``.  Any other index keeps the int64
    bytes after the tag ``0x01``, so device 257 never shares a key with
    device 1 and still reaches the simulator's range check.  The tags
    differ, so keys of the two encodings never collide, whatever the
    placement lengths.
    """
    a = np.ascontiguousarray(placement, dtype=np.int64)
    if (a & -256).any():  # an entry outside [0, 255]
        return b"\x01" + a.tobytes()
    return b"\x00" + a.astype(np.uint8).tobytes()


def _key_placement(key: bytes) -> np.ndarray:
    """The int64 placement a :func:`_placement_key` key was made from."""
    if key[:1] == b"\x00":
        return np.frombuffer(key, np.uint8, offset=1).astype(np.int64)
    return np.frombuffer(key, np.int64, offset=1).copy()


class MemoBackend:
    """Memoises the deterministic simulator outcome per placement.

    The cache stores :class:`RawOutcome` objects — the noiseless makespan for
    valid placements and the OOM detail for invalid ones.  Every call (hit or
    miss) is still committed to the environment, so measurement noise and
    environment-clock charges remain per-evaluation and the Figs. 5–7
    accounting is unchanged; a hit merely skips the simulator.

    ``max_entries`` bounds the cache LRU-style (unbounded by default — a
    search touches at most ``max_samples`` distinct placements, and each
    entry costs its placement key, one byte per op, plus a few floats).

    The cache table can be spilled to disk with :meth:`save` and revived in
    another process with :meth:`load`.  Persisted tables are keyed by the
    :func:`~repro.graph.fingerprint.placement_space_fingerprint` of the
    graph + topology + cost model, and :meth:`load` refuses a file whose
    fingerprint differs — a raw outcome is only reusable in the exact
    measurement space that produced it.  The :mod:`repro.service` server
    uses the :meth:`lookup` / :meth:`insert` primitives directly (under its
    own lock) so many network clients share one table.
    """

    #: 2: compact placement keys (see :func:`_placement_key`); a version-1
    #: file's int64 keys would only miss, so :meth:`load` refuses it.
    _PERSIST_VERSION = 2

    def __init__(
        self,
        environment: PlacementEnvironment,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.environment = environment
        self.max_entries = max_entries
        self._batch = BatchSimulator(environment.simulator)
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[bytes, RawOutcome]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Cache primitives (no environment commit — the measurement service,
    # which commits client-side, uses them directly).
    def lookup(self, key: bytes) -> Optional[RawOutcome]:
        """Cached raw outcome under the placement key ``key`` (see
        :func:`_placement_key`), counting a hit or a miss."""
        raw = self._store.get(key)
        if raw is None:
            self.misses += 1
            return None
        self.hits += 1
        self._store.move_to_end(key)
        return raw

    def insert(self, key: bytes, raw: RawOutcome) -> None:
        """Store ``raw`` under the placement key ``key``, evicting LRU past
        ``max_entries``."""
        self._store[key] = raw.without_breakdown()
        if self.max_entries is not None and len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def prepare_batch(self, placements) -> None:
        """Warm the cache for an upcoming minibatch when its misses would sweep.

        Peeks the table without touching the hit/miss counters (nothing is
        being evaluated yet).  Only when the distinct absent placements
        reach :data:`~repro.sim.batch.SWEEP_MIN_LANES` are they simulated,
        in one sweep; fewer would run the same scalar loop the
        per-placement evaluations run anyway, and warming them early would
        only relabel their misses as hits.
        """
        missing: Dict[bytes, np.ndarray] = {}
        for p in placements:
            key = _placement_key(p)
            if key not in self._store and key not in missing:
                missing[key] = p
        if len(missing) >= SWEEP_MIN_LANES:
            raws = self._batch.raw_outcomes(list(missing.values()))
            for key, raw in zip(missing, raws):
                self.insert(key, raw)

    def _raws(self, placements: Sequence[np.ndarray]) -> List[RawOutcome]:
        """The deterministic outcome of each placement, from cache or fresh.

        Cache misses are deduplicated and simulated in one
        :meth:`BatchSimulator.raw_outcomes <repro.sim.batch.BatchSimulator
        .raw_outcomes>` call.  Counters match a placement-by-placement walk:
        the first occurrence of an uncached placement is a miss, and repeats
        within the batch are hits (the walk would have inserted it by then).
        Only LRU eviction *timing* under ``max_entries`` can differ — raw
        outcomes are deterministic, so a re-simulated eviction victim
        yields the identical measurement either way.
        """
        keys = [_placement_key(p) for p in placements]
        found: List[Optional[RawOutcome]] = []
        pending: Dict[bytes, int] = {}
        missing: List[np.ndarray] = []
        for key, p in zip(keys, placements):
            raw = self._store.get(key)
            if raw is not None:
                self.hits += 1
                self._store.move_to_end(key)
            elif key in pending:
                self.hits += 1
            else:
                self.misses += 1
                pending[key] = len(missing)
                missing.append(p)
            found.append(raw)
        if not missing:
            return found
        fresh = self._batch.raw_outcomes(missing)
        for key, raw in zip(pending, fresh):
            self.insert(key, raw)
        return [
            raw if raw is not None else fresh[pending[key]]
            for key, raw in zip(keys, found)
        ]

    def evaluate_batch(self, placements: Sequence[np.ndarray]) -> List[Measurement]:
        return [self.environment.commit(raw) for raw in self._raws(placements)]

    # ------------------------------------------------------------------ #
    # Persistence: spill the raw-outcome table across processes/runs.
    @property
    def fingerprint(self) -> str:
        """Fingerprint of the measurement space this cache is valid for."""
        from ..graph.fingerprint import placement_space_fingerprint

        env = self.environment
        return placement_space_fingerprint(
            env.graph, env.topology, env.simulator.cost_model
        )

    def _encode_entries(self) -> List[list]:
        entries = []
        for key, raw in self._store.items():
            oom = None
            if raw.oom_detail is not None:
                oom = [[int(d), float(a), float(b)] for d, (a, b) in raw.oom_detail.items()]
            entries.append([key.hex(), raw.base_time, oom])
        return entries

    @staticmethod
    def _decode_entries(entries: Sequence[Sequence]) -> Dict[bytes, RawOutcome]:
        decoded: Dict[bytes, RawOutcome] = {}
        for key_hex, base_time, oom in entries:
            oom_detail = None
            if oom is not None:
                oom_detail = {int(d): (float(a), float(b)) for d, a, b in oom}
            decoded[bytes.fromhex(key_hex)] = RawOutcome(base_time, oom_detail)
        return decoded

    def _merge(self, decoded: Dict[bytes, RawOutcome]) -> None:
        self._store.update(decoded)
        while self.max_entries is not None and len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def save(self, path: str) -> None:
        """Write the raw-outcome table to ``path`` (JSON, fingerprint-keyed).

        The write is atomic (temp file → fsync → rename), so a process
        killed mid-save leaves either the previous table or the new one on
        disk — never a truncated file.
        """
        payload = {
            "format_version": self._PERSIST_VERSION,
            "fingerprint": self.fingerprint,
            "entries": self._encode_entries(),
        }
        atomic_write_text(path, json.dumps(payload))

    def load(self, path: str) -> int:
        """Merge a table written by :meth:`save`; returns entries loaded.

        Raises :class:`ValueError` if the file's fingerprint (or format
        version) does not match this backend's measurement space — stale
        caches must never leak raw outcomes across graphs or topologies.
        A file that cannot be *parsed* (truncated or garbled by an unclean
        shutdown predating atomic saves) is not an error: it warns and
        loads nothing, so the run keeps the entries it already holds
        instead of crashing.  The load is all-or-nothing: every entry is
        decoded before any is merged.
        """
        with open(path) as fh:
            text = fh.read()
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            version = payload.get("format_version")
            fingerprint = payload.get("fingerprint")
            entries = payload.get("entries", [])
        except ValueError as exc:  # includes json.JSONDecodeError
            warnings.warn(
                f"memo cache {path!r} is corrupt ({exc}); ignoring it",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        if version != self._PERSIST_VERSION:
            raise ValueError(f"unsupported memo-cache format version {version!r}")
        if fingerprint != self.fingerprint:
            raise ValueError(
                "memo-cache fingerprint mismatch: file was produced by a "
                f"different graph/topology/cost model ({fingerprint!r} != "
                f"{self.fingerprint!r})"
            )
        try:
            decoded = self._decode_entries(entries)
        except (TypeError, ValueError) as exc:
            warnings.warn(
                f"memo cache {path!r} has corrupt entries ({exc}); ignoring it",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        self._merge(decoded)
        return len(decoded)

    def state_dict(self) -> Dict:
        """Checkpoint form of the cache: entries plus hit/miss counters.

        Restoring memoised raws on resume means the re-run of already-seen
        placements costs a table lookup, not a simulation."""
        return {
            "entries": self._encode_entries(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: Dict) -> None:
        self._store.clear()
        self._merge(self._decode_entries(state["entries"]))
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])

    def close(self) -> None:
        pass

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> Dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "entries": float(len(self._store)),
        }


def make_backend(
    environment: PlacementEnvironment,
    *,
    cache: bool = True,
    seed: int = 0,
    fault_plan: Optional["FaultPlan"] = None,
    remote: Optional[str] = None,
    remote_timeout: float = 30.0,
) -> EvaluationBackend:
    """Pick a backend from CLI-ish knobs.

    ``remote="host:port"`` selects a
    :class:`~repro.service.client.RemoteBackend` talking to a
    :class:`~repro.service.server.MeasurementServer` (and takes precedence
    over ``cache``); the client offers its serialized measurement space in
    the handshake, so a multi-tenant server adopts tenants it has never
    seen while a single-tenant server still refuses mismatched
    fingerprints.  Otherwise ``cache`` selects :class:`MemoBackend` over
    :class:`SerialBackend`.  All of them produce identical measurements on
    a fixed environment seed.  A ``fault_plan`` with any non-zero rate
    wraps the result in a :class:`~repro.sim.faults.FaultInjectingBackend`
    (chaos testing).  ``seed`` is accepted for existing callers and unused.

    The in-process backends and the measurement server sweep a batch
    exactly when it has at least :data:`~repro.sim.batch.SWEEP_MIN_LANES`
    placements to simulate, and run the scalar loop otherwise.
    """
    if remote is not None:
        # repro: allow[layer-import] lazy factory hook — runs only when --remote is requested, so sim carries no import-time service dependency (service imports sim eagerly; the reverse eager import would be a cycle)
        from ..service.client import RemoteBackend

        backend: EvaluationBackend = RemoteBackend(
            environment, remote, timeout=remote_timeout, offer_space=True
        )
    elif cache:
        backend = MemoBackend(environment)
    else:
        backend = SerialBackend(environment)
    if fault_plan is not None and fault_plan.enabled:
        from .faults import FaultInjectingBackend

        backend = FaultInjectingBackend(backend, fault_plan)
    return backend
