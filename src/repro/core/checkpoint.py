"""Checkpointing: crash-safe persistence and bit-for-bit search resume.

A checkpoint bundles the agent's parameters, the best placement found, the
search trace and — since format version 2 — a complete
:meth:`~repro.core.engine.SearchEngine.state_dict` snapshot into one
``.npz`` file.  Three guarantees make it survive process-level failure:

*Atomic writes*
    The file is serialised in memory and published with
    :func:`repro.ioutil.atomic_write_bytes` (temp file → fsync → rename),
    so a SIGKILL mid-save leaves the previous checkpoint intact — never a
    truncated archive.

*Integrity hashing*
    Every entry is folded into a SHA-256 digest stored inside the archive;
    :func:`load_checkpoint` recomputes it and raises
    :class:`CheckpointCorruptError` on any mismatch (bit rot, partial copy,
    tampering).  Unparseable archives raise the same error.

*Deterministic resume*
    The engine snapshot captures every RNG position, optimiser moment,
    tracker, counter and memoised raw outcome, so
    :func:`restore_engine` + ``engine.run()`` reproduces the
    :class:`~repro.core.engine.SearchResult` of an uninterrupted same-seed
    run bit for bit (golden-tested).

:class:`CheckpointCallback` writes a snapshot at every policy update (a
batch boundary — the only point where engine state is consistent), then
marks the checkpoint *complete* when the search ends.  ``repro place
--resume PATH`` consumes these files.

Format version 1 files (agent + result only) still load; they carry no
engine state and cannot be resumed.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from typing import Any, Dict, Optional

import numpy as np

from .agent_base import PlacementAgentBase
from .engine import SearchEngine
from .events import SearchCallback
from .search import SearchHistory, SearchResult
from ..ioutil import atomic_write_bytes

__all__ = [
    "CheckpointCorruptError",
    "save_checkpoint",
    "save_engine_checkpoint",
    "load_checkpoint",
    "restore_agent",
    "restore_engine",
    "CheckpointCallback",
]

_FORMAT_VERSION = 2
#: Marker wrapping ndarray leaves inside the engine-state JSON skeleton.
_ARRAY_KEY = "__ndarray__"


class CheckpointCorruptError(ValueError):
    """The checkpoint file failed its integrity check or cannot be parsed."""


# --------------------------------------------------------------------------- #
# Engine-state packing: arbitrary nesting of JSON scalars, dicts, lists and
# ndarray leaves.  Arrays are pulled out into dedicated npz entries (exact
# dtype/shape round trip); the remaining skeleton is strict-enough JSON
# (non-finite floats use the json module's Infinity/NaN literals, which
# round-trip through json.loads).
def _pack_value(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(value, np.ndarray):
        tag = f"a{len(arrays)}"
        arrays[tag] = value
        return {_ARRAY_KEY: tag}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _pack_value(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pack_value(v, arrays) for v in value]
    return value


def _unpack_value(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            return arrays[value[_ARRAY_KEY]]
        return {k: _unpack_value(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_unpack_value(v, arrays) for v in value]
    return value


def _json_array(payload: Any) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _digest(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every entry's name, dtype, shape and bytes (sorted)."""
    h = hashlib.sha256()
    for name in sorted(payload):
        arr = np.ascontiguousarray(payload[name])
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _history_array(history: SearchHistory) -> np.ndarray:
    if not len(history):
        return np.zeros((0, 4))
    return np.column_stack(
        [
            history.env_time,
            history.per_step_time,
            history.best_so_far,
            np.asarray(history.valid, dtype=np.float64),
        ]
    )


def _write_payload(path: str, payload: Dict[str, np.ndarray]) -> None:
    """Seal the payload with its digest and publish it atomically."""
    payload = dict(payload)
    payload["integrity"] = np.frombuffer(_digest(payload).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    # np.savez appends .npz to plain string paths; keep that contract so
    # pre-atomic call sites resolve to the same file names.
    if not path.endswith(".npz"):
        path += ".npz"
    atomic_write_bytes(path, buffer.getvalue())


def _base_payload(
    agent: PlacementAgentBase,
    meta: Dict[str, Any],
    best_placement: Optional[np.ndarray],
    history: SearchHistory,
    engine: Optional[SearchEngine],
) -> Dict[str, np.ndarray]:
    payload: Dict[str, np.ndarray] = {}
    for name, arr in agent.state_dict().items():
        payload[f"param::{name}"] = arr
    if best_placement is not None:
        payload["best_placement"] = np.asarray(best_placement)
    payload["history"] = _history_array(history)
    if engine is not None:
        arrays: Dict[str, np.ndarray] = {}
        skeleton = _pack_value(engine.state_dict(), arrays)
        payload["engine_json"] = _json_array(skeleton)
        for tag, arr in arrays.items():
            payload[f"engine_arr::{tag}"] = arr
    payload["meta"] = _json_array(meta)
    return payload


def _meta_common(agent: PlacementAgentBase, extra_meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "graph_name": agent.graph.name,
        "num_groups": agent.num_groups,
        "num_devices": agent.num_devices,
    }
    if extra_meta:
        meta.update(extra_meta)
    return meta


# --------------------------------------------------------------------------- #
def save_checkpoint(
    path: str,
    agent: PlacementAgentBase,
    result: SearchResult,
    *,
    engine: Optional[SearchEngine] = None,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a *complete* checkpoint: agent parameters + search outcome.

    Pass ``engine`` to embed its full state snapshot as well (so even a
    finished search can later be resumed with a larger budget).
    ``extra_meta`` entries are merged into the metadata record — the CLI
    stores its reconstruction arguments there.
    """
    meta = _meta_common(agent, extra_meta)
    meta.update(
        complete=True,
        best_time=result.best_time,
        final_time=result.final_time,
        num_samples=result.num_samples,
        num_invalid=result.num_invalid,
        env_time=result.env_time,
        algorithm=result.algorithm,
        num_faults=result.num_faults,
        num_retries=result.num_retries,
        num_quarantined=result.num_quarantined,
        wall_time=result.wall_time,
    )
    payload = _base_payload(agent, meta, result.best_placement, result.history, engine)
    _write_payload(path, payload)


def save_engine_checkpoint(
    path: str,
    engine: SearchEngine,
    *,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a *mid-run* checkpoint of a live engine (at a batch boundary).

    The metadata mirrors :func:`save_checkpoint` using the engine's
    best-so-far values, with ``complete=False`` and no ``final_time`` (the
    final evaluation has not happened yet).
    """
    meta = _meta_common(engine.agent, extra_meta)
    meta.update(
        complete=False,
        best_time=engine.tracker.best_time,
        final_time=None,
        num_samples=engine.num_samples,
        num_invalid=engine.history.num_invalid,
        env_time=engine.environment.env_time,
        algorithm=engine.algorithm_name,
        num_faults=engine.num_faults,
        num_retries=engine.num_retries,
        num_quarantined=engine.num_quarantined,
        wall_time=engine.wall_time,
    )
    payload = _base_payload(
        engine.agent, meta, engine.tracker.best_placement, engine.history, engine
    )
    _write_payload(path, payload)


def load_checkpoint(path: str) -> Dict:
    """Load and verify a checkpoint.

    Returns ``{meta, params, best_placement, history, engine}`` where
    ``engine`` is the raw engine-state snapshot (``None`` for format-1
    files and result-only saves).  Raises :class:`CheckpointCorruptError`
    when the archive is unreadable or its integrity digest does not match,
    and plain :class:`ValueError` for unknown format versions.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            entries: Dict[str, np.ndarray] = {key: data[key] for key in data.files}
        meta = json.loads(bytes(entries["meta"].tobytes()).decode())
    except (zipfile.BadZipFile, KeyError, EOFError, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointCorruptError(f"cannot read checkpoint {path!r}: {exc}") from exc
    version = meta.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    if version >= 2:
        stored = entries.pop("integrity", None)
        if stored is None:
            raise CheckpointCorruptError(f"checkpoint {path!r} has no integrity digest")
        if bytes(stored.tobytes()).decode(errors="replace") != _digest(entries):
            raise CheckpointCorruptError(
                f"checkpoint {path!r} failed its integrity check — the file "
                "is damaged or was modified after it was written"
            )
    params = {
        key[len("param::") :]: entries[key] for key in entries if key.startswith("param::")
    }
    best = entries.get("best_placement")
    history = SearchHistory()
    for row in entries["history"]:
        t = float(row[1])
        history.record(float(row[0]), t if t >= 0 else float("inf"), float(row[2]), bool(row[3]))
    engine_state = None
    if "engine_json" in entries:
        arrays = {
            key[len("engine_arr::") :]: entries[key]
            for key in entries
            if key.startswith("engine_arr::")
        }
        skeleton = json.loads(bytes(entries["engine_json"].tobytes()).decode())
        engine_state = _unpack_value(skeleton, arrays)
    return {
        "meta": meta,
        "params": params,
        "best_placement": best,
        "history": history,
        "engine": engine_state,
    }


def restore_agent(agent: PlacementAgentBase, checkpoint: Dict) -> PlacementAgentBase:
    """Load checkpointed parameters into a structurally matching agent."""
    meta = checkpoint["meta"]
    if meta["num_groups"] != agent.num_groups or meta["num_devices"] != agent.num_devices:
        raise ValueError(
            f"agent shape mismatch: checkpoint is for {meta['num_groups']} groups / "
            f"{meta['num_devices']} devices"
        )
    agent.load_state_dict(checkpoint["params"])
    return agent


def restore_engine(engine: SearchEngine, checkpoint: Dict) -> SearchEngine:
    """Restore a full engine snapshot; ``engine.run()`` then continues the
    interrupted search and lands on the uninterrupted run's exact result.

    The engine must be constructed with the same agent shape, environment
    seedable-configuration, algorithm and backend kind as the one that
    produced the checkpoint; shape and algorithm are verified here, the
    rest is the caller's contract (the CLI rebuilds everything from the
    checkpoint's stored arguments).
    """
    state = checkpoint.get("engine")
    if state is None:
        raise ValueError(
            "checkpoint carries no engine state (format-1 or result-only "
            "file) — it can seed an agent via restore_agent but cannot "
            "resume a search"
        )
    meta = checkpoint["meta"]
    agent = engine.agent
    if meta["num_groups"] != agent.num_groups or meta["num_devices"] != agent.num_devices:
        raise ValueError(
            f"agent shape mismatch: checkpoint is for {meta['num_groups']} groups / "
            f"{meta['num_devices']} devices"
        )
    engine.load_state_dict(state)
    return engine


class CheckpointCallback(SearchCallback):
    """Persists the engine after every ``every``-th policy update.

    Policy updates are the engine's batch boundaries — the only points
    where its state is internally consistent (measurements folded, counters
    balanced, RNGs between draws) — so a checkpoint taken there resumes
    exactly.  When the search finishes, the checkpoint is rewritten as
    *complete* with the final :class:`~repro.core.engine.SearchResult`, so
    ``--resume`` on a finished file reports instead of re-running.
    """

    def __init__(
        self, path: str, every: int = 1, extra_meta: Optional[Dict[str, Any]] = None
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = path
        self.every = every
        self.extra_meta = dict(extra_meta) if extra_meta else None
        self.saves = 0
        self._updates = 0

    def on_update(self, engine, stats: Dict[str, float]) -> None:
        self._updates += 1
        if self._updates % self.every == 0:
            save_engine_checkpoint(self.path, engine, extra_meta=self.extra_meta)
            self.saves += 1

    def on_search_end(self, engine, result) -> None:
        save_checkpoint(
            self.path, engine.agent, result, engine=engine, extra_meta=self.extra_meta
        )
        self.saves += 1
