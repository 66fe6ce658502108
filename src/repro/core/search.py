"""The placement search loop — agent × environment × algorithm.

Implements the training protocol of §IV-C: sample a minibatch of placements
from the agent, measure each through an evaluation backend (15 simulated
steps, 5 discarded), shape rewards as ``-sqrt(t)``, compute advantages
against the EMA baseline, and update the agent with the chosen algorithm.
The loop runs until a sample budget or a simulated environment-time budget
(the paper trains for wall-clock hours) is exhausted.

:class:`PlacementSearch` is the stable front door; the actual loop lives in
:class:`repro.core.engine.SearchEngine`, decomposed into budget/best/reward/
annealing components, a pluggable :class:`repro.sim.backends
.EvaluationBackend` (serial, memoized, or remote), and a
:class:`repro.core.events.SearchCallback` event layer.  The per-sample
history (environment time, measured time, best-so-far) is recorded by a
:class:`repro.core.events.HistoryRecorder` observer for the training-process
figures (Figs. 2, 5–7).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..sim.backends import EvaluationBackend
from ..sim.environment import PlacementEnvironment
from .agent_base import PlacementAgentBase
from .engine import (
    EvaluationPolicy,
    SearchConfig,
    SearchEngine,
    SearchHistory,
    SearchResult,
)
from .events import SearchCallback

__all__ = ["SearchConfig", "SearchHistory", "SearchResult", "PlacementSearch"]


class PlacementSearch:
    """Trains one agent on one environment with one algorithm.

    A thin facade over :class:`~repro.core.engine.SearchEngine` that keeps
    the historical constructor and ``run`` signature.  ``backend`` selects
    the evaluation backend (default: serial, the historical behaviour);
    ``policy`` installs retry/quarantine handling for faulty backends;
    ``callbacks`` subscribes observers to the engine's event layer.
    """

    def __init__(
        self,
        agent: PlacementAgentBase,
        environment: PlacementEnvironment,
        algorithm: str = "ppo",
        config: Optional[SearchConfig] = None,
        *,
        backend: Optional[EvaluationBackend] = None,
        policy: Optional[EvaluationPolicy] = None,
        callbacks: Iterable[SearchCallback] = (),
    ) -> None:
        self.engine = SearchEngine(
            agent,
            environment,
            algorithm,
            config,
            backend=backend,
            policy=policy,
            callbacks=callbacks,
        )

    # -- engine views ---------------------------------------------------- #
    @property
    def agent(self) -> PlacementAgentBase:
        return self.engine.agent

    @property
    def environment(self) -> PlacementEnvironment:
        return self.engine.environment

    @property
    def config(self) -> SearchConfig:
        return self.engine.config

    @property
    def algorithm(self):
        return self.engine.algorithm

    @property
    def algorithm_name(self) -> str:
        return self.engine.algorithm_name

    @property
    def backend(self) -> EvaluationBackend:
        return self.engine.backend

    @property
    def baseline(self):
        return self.engine.baseline

    @property
    def history(self) -> SearchHistory:
        return self.engine.history

    # -- historical internals, preserved for callers/tests --------------- #
    @property
    def _best_placement(self) -> Optional[np.ndarray]:
        return self.engine.tracker.best_placement

    @property
    def _best_time(self) -> float:
        return self.engine.tracker.best_time

    @property
    def _worst_valid(self) -> float:
        return self.engine.tracker.worst_valid

    @_worst_valid.setter
    def _worst_valid(self, value: float) -> None:
        self.engine.tracker.worst_valid = value

    def _failure_time(self) -> float:
        return self.engine.tracker.failure_time()

    # -------------------------------------------------------------------- #
    def run(self, callbacks: Iterable[SearchCallback] = ()) -> SearchResult:
        """Run the search to its budget; returns the best placement found."""
        return self.engine.run(callbacks=callbacks)
