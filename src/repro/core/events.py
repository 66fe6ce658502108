"""The search engine's event/callback layer.

Everything that used to be inlined in the training loop but is not part of
the training *math* — history recording, progress printing, future metrics
exporters — is an observer.  A :class:`SearchCallback` subscribes to the
engine's lifecycle:

``on_search_start(engine)``
    Before the first minibatch.
``on_batch_start(engine, batch_index, batch_size)``
    A minibatch is about to be sampled and measured.
``on_measurement(engine, sample, measurement)``
    One sample has been measured, reward-shaped, and folded into the best/
    worst trackers; ``engine.env_time`` is the environment clock *through
    this measurement* (exact even when the backend evaluated the whole batch
    before rewards were computed).
``on_best(engine, placement, per_step_time)``
    The best-so-far placement improved (fires after ``on_measurement``).
``on_fault(engine, placement, fault)``
    An evaluation failed operationally — an injected/real worker crash, a
    per-evaluation timeout, or a corrupted measurement rejected by the
    :class:`~repro.core.engine.EvaluationPolicy`.  Fires only while a
    minibatch is being measured (between ``on_batch_start`` and
    ``on_update``), before the retry/quarantine decision.
``on_retry(engine, placement, attempt, fault)``
    The policy decided to re-measure after a fault; ``attempt`` counts from
    1.  Always preceded by the matching ``on_fault``.
``on_quarantine(engine, placement, fault)``
    Retries are exhausted; the placement is recorded as failed (treated like
    an invalid measurement) and the search continues.
``on_update(engine, stats)``
    The RL algorithm finished a policy update for the minibatch.
``on_search_end(engine, result)``
    The budget is exhausted and the final evaluation is done.

Hooks the observer does not define are inherited as no-ops, so callbacks
implement only what they care about.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import IO, TYPE_CHECKING, Any, Dict, Iterable, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..rl.rollout import PlacementSample
    from ..sim.environment import Measurement
    from ..sim.faults import EvaluationFault
    from .search import SearchHistory, SearchResult

__all__ = [
    "SearchCallback",
    "CallbackList",
    "HistoryRecorder",
    "ProgressPrinter",
    "MetricsExporter",
]

class SearchCallback:
    """Base observer; every hook defaults to a no-op."""

    def on_search_start(self, engine) -> None:
        pass

    def on_batch_start(self, engine, batch_index: int, batch_size: int) -> None:
        pass

    def on_measurement(self, engine, sample: "PlacementSample", measurement: "Measurement") -> None:
        pass

    def on_best(self, engine, placement: np.ndarray, per_step_time: float) -> None:
        pass

    def on_fault(self, engine, placement: np.ndarray, fault: "EvaluationFault") -> None:
        pass

    def on_retry(
        self, engine, placement: np.ndarray, attempt: int, fault: "EvaluationFault"
    ) -> None:
        pass

    def on_quarantine(self, engine, placement: np.ndarray, fault: "EvaluationFault") -> None:
        pass

    def on_update(self, engine, stats: Dict[str, float]) -> None:
        pass

    def on_search_end(self, engine, result: "SearchResult") -> None:
        pass


class CallbackList(SearchCallback):
    """Dispatches every event to an ordered list of callbacks."""

    def __init__(self, callbacks: Iterable[SearchCallback] = ()) -> None:
        self.callbacks: List[SearchCallback] = list(callbacks)

    def add(self, callback: SearchCallback) -> None:
        self.callbacks.append(callback)

    def on_search_start(self, engine) -> None:
        for cb in self.callbacks:
            cb.on_search_start(engine)

    def on_batch_start(self, engine, batch_index: int, batch_size: int) -> None:
        for cb in self.callbacks:
            cb.on_batch_start(engine, batch_index, batch_size)

    def on_measurement(self, engine, sample, measurement) -> None:
        for cb in self.callbacks:
            cb.on_measurement(engine, sample, measurement)

    def on_best(self, engine, placement: np.ndarray, per_step_time: float) -> None:
        for cb in self.callbacks:
            cb.on_best(engine, placement, per_step_time)

    def on_fault(self, engine, placement, fault) -> None:
        for cb in self.callbacks:
            cb.on_fault(engine, placement, fault)

    def on_retry(self, engine, placement, attempt: int, fault) -> None:
        for cb in self.callbacks:
            cb.on_retry(engine, placement, attempt, fault)

    def on_quarantine(self, engine, placement, fault) -> None:
        for cb in self.callbacks:
            cb.on_quarantine(engine, placement, fault)

    def on_update(self, engine, stats: Dict[str, float]) -> None:
        for cb in self.callbacks:
            cb.on_update(engine, stats)

    def on_search_end(self, engine, result) -> None:
        for cb in self.callbacks:
            cb.on_search_end(engine, result)

    def __len__(self) -> int:
        return len(self.callbacks)


class HistoryRecorder(SearchCallback):
    """Writes the per-sample trace (Figs. 2, 5–7) into a ``SearchHistory``.

    The engine installs one of these over its own history by default; extra
    recorders may target separate histories (e.g. per-phase traces).
    """

    def __init__(self, history: "SearchHistory") -> None:
        self.history = history

    def on_measurement(self, engine, sample, measurement) -> None:
        self.history.record(
            engine.env_time, measurement.per_step_time, engine.best_time, measurement.valid
        )


class ProgressPrinter(SearchCallback):
    """Prints a one-line status every ``interval`` samples."""

    def __init__(
        self, interval: int = 50, total: Optional[int] = None, stream: Optional[IO] = None
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.total = total
        self.stream = stream
        self._next = interval

    def on_update(self, engine, stats: Dict[str, float]) -> None:
        if engine.num_samples < self._next:
            return
        while self._next <= engine.num_samples:
            self._next += self.interval
        best = engine.best_time
        best_ms = best * 1000 if np.isfinite(best) else float("nan")
        total = self.total if self.total is not None else engine.config.max_samples
        print(
            f"  {engine.num_samples:5d}/{total} samples, best {best_ms:8.1f} ms/step",
            file=self.stream or sys.stdout,
        )


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: non-finite values become ``None`` (strict JSON)."""
    value = float(value)
    return value if np.isfinite(value) else None


class MetricsExporter(SearchCallback):
    """Streams search events as JSON-lines and keeps Prometheus-style counters.

    Every lifecycle event is appended to ``path`` (or ``stream``) as one
    strict-JSON object per line — non-finite floats are rendered as
    ``null`` — so long searches can be tailed live (``tail -f run.jsonl``)
    or ingested by dashboards.  Cumulative counters follow the Prometheus
    naming convention (``*_total``); faults/retries/quarantines are
    additionally broken out per kind with a ``{kind="..."}`` label.

    With neither ``path`` nor ``stream`` the exporter is counters-only:
    this is how the measurement service uses it to back its ``stats`` RPC
    (:mod:`repro.service.server` bumps the same counters via :meth:`inc`).
    """

    def __init__(self, path: Optional[str] = None, stream: Optional[IO] = None) -> None:
        if path is not None and stream is not None:
            raise ValueError("pass either path or stream, not both")
        self._file: Optional[IO] = open(path, "w") if path is not None else stream
        self._owns_file = path is not None
        self.counters: Counter = Counter()

    # -------------------------------------------------------------- #
    def inc(self, name: str, value: float = 1.0) -> None:
        """Bump one counter (also the service's hook into this exporter)."""
        self.counters[name] += value

    def emit(self, event: str, **fields: Any) -> None:
        """Write one JSON-lines record (no-op when counters-only)."""
        if self._file is None:
            return
        record = {"event": event, **fields}
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def render_prometheus(self) -> str:
        """The counters in Prometheus text exposition format.

        Labelled series (``name{label="v"}``) share their bare metric's
        single ``# TYPE`` declaration — scrapers reject a family declared
        twice.
        """
        lines = []
        declared = set()
        for name in sorted(self.counters):
            bare = name.split("{", 1)[0]
            if bare not in declared:
                declared.add(bare)
                lines.append(f"# TYPE {bare} counter")
            lines.append(f"{name} {self.counters[name]:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def close(self) -> None:
        """Close the JSON-lines file (idempotent; counters stay readable)."""
        if self._owns_file and self._file is not None:
            self._file.close()
        self._file = None

    # -------------------------------------------------------------- #
    def on_search_start(self, engine) -> None:
        self.inc("repro_searches_started_total")
        self.emit(
            "search_start",
            algorithm=engine.algorithm_name,
            max_samples=engine.config.max_samples,
        )

    def on_measurement(self, engine, sample, measurement) -> None:
        self.inc("repro_measurements_total")
        if not measurement.valid:
            self.inc("repro_invalid_measurements_total")
        self.emit(
            "measurement",
            num_samples=engine.num_samples,
            per_step_time=_finite(measurement.per_step_time),
            valid=bool(measurement.valid),
            env_time=_finite(engine.env_time),
            best_time=_finite(engine.best_time),
        )

    def on_best(self, engine, placement: np.ndarray, per_step_time: float) -> None:
        self.inc("repro_best_improvements_total")
        self.emit(
            "best",
            num_samples=engine.num_samples,
            per_step_time=_finite(per_step_time),
        )

    def on_fault(self, engine, placement, fault) -> None:
        self.inc("repro_faults_total")
        self.inc(f'repro_faults_total{{kind="{fault.kind}"}}')
        self.emit("fault", num_samples=engine.num_samples, kind=fault.kind, message=str(fault))

    def on_retry(self, engine, placement, attempt: int, fault) -> None:
        self.inc("repro_retries_total")
        self.emit("retry", num_samples=engine.num_samples, attempt=attempt, kind=fault.kind)

    def on_quarantine(self, engine, placement, fault) -> None:
        self.inc("repro_quarantines_total")
        self.emit("quarantine", num_samples=engine.num_samples, kind=fault.kind)

    def on_update(self, engine, stats: Dict[str, float]) -> None:
        self.inc("repro_updates_total")
        self.emit(
            "update",
            num_samples=engine.num_samples,
            stats={k: _finite(v) for k, v in stats.items()},
        )

    def on_search_end(self, engine, result) -> None:
        self.inc("repro_searches_finished_total")
        self.emit(
            "search_end",
            num_samples=result.num_samples,
            best_time=_finite(result.best_time),
            final_time=_finite(result.final_time),
            num_invalid=result.num_invalid,
            num_faults=result.num_faults,
            num_retries=result.num_retries,
            num_quarantined=result.num_quarantined,
            env_time=_finite(result.env_time),
            wall_time=_finite(result.wall_time),
        )
