"""The search engine: composable pieces of the training protocol (§IV-C).

The historical ``PlacementSearch.run`` monolith is decomposed into

* :class:`BudgetTracker` — sample / environment-time budgets and batch sizing;
* :class:`BestTracker` — best placement, worst valid time, adaptive failure
  charge;
* :class:`RewardShaper` — the ``-sqrt(t)`` reward of Eq. 4 with the adaptive
  failure time;
* :class:`EntropyAnnealer` — linear entropy-coefficient schedule (explore
  early, commit late);
* an :class:`~repro.sim.backends.EvaluationBackend` that measures whole
  minibatches (serial, memoized, or remote);
* an optional :class:`EvaluationPolicy` — bounded retries with exponential
  backoff, per-evaluation timeouts, corruption rejection, and quarantine of
  placements whose measurements keep failing (graceful degradation under a
  faulty measurement fleet, see :mod:`repro.sim.faults`);
* a :class:`~repro.core.events.SearchCallback` event layer for everything
  observational (history recording, progress printing, metrics export).

:class:`SearchEngine` wires them together.  With the default
:class:`~repro.sim.backends.SerialBackend` and unchanged seeds it reproduces
the pre-decomposition results bit-for-bit: measurements are committed in
submission order against the environment's single RNG stream, per-sample
environment times are reconstructed from the per-measurement charges, and
rewards still see the failure time as updated by earlier samples of the same
minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..rl.algorithms import make_algorithm
from ..rl.reward import EMABaseline, compute_advantages, reward_from_time
from ..rl.rollout import RolloutBatch
from ..sim.backends import EvaluationBackend, SerialBackend
from ..sim.environment import Measurement, PlacementEnvironment
from ..sim.faults import EvaluationFault
from .agent_base import PlacementAgentBase
from .events import CallbackList, HistoryRecorder, SearchCallback

__all__ = [
    "SearchConfig",
    "SearchHistory",
    "SearchResult",
    "BudgetTracker",
    "BestTracker",
    "RewardShaper",
    "EntropyAnnealer",
    "EvaluationPolicy",
    "SearchEngine",
    "build_algorithm",
]


@dataclass
class SearchConfig:
    """Hyperparameters of the search loop (§IV-C defaults).

    ``failure_time=None`` enables the adaptive rule: invalid placements are
    charged twice the worst valid per-step time seen so far (60 s before any
    valid sample exists).
    """

    minibatch_size: int = 10
    max_samples: int = 500
    max_env_time: Optional[float] = None
    failure_time: Optional[float] = None
    ema_decay: float = 0.9
    normalize_advantages: bool = True
    lr: float = 0.01
    entropy_coef: float = 0.1
    #: if set, the entropy coefficient is annealed linearly from
    #: ``entropy_coef`` to this value over the sample budget (explore early,
    #: commit late).
    entropy_coef_final: Optional[float] = None
    max_grad_norm: float = 1.0
    clip_epsilon: float = 0.3
    ppo_epochs: int = 4
    ce_interval: int = 50
    num_elites: int = 5

    def __post_init__(self) -> None:
        if self.minibatch_size < 1 or self.max_samples < 1:
            raise ValueError("minibatch_size and max_samples must be >= 1")


@dataclass
class SearchHistory:
    """Per-sample training trace."""

    env_time: List[float] = field(default_factory=list)
    per_step_time: List[float] = field(default_factory=list)
    best_so_far: List[float] = field(default_factory=list)
    valid: List[bool] = field(default_factory=list)

    def record(self, env_time: float, step_time: float, best: float, valid: bool) -> None:
        self.env_time.append(env_time)
        self.per_step_time.append(step_time)
        self.best_so_far.append(best)
        self.valid.append(valid)

    def __len__(self) -> int:
        return len(self.env_time)

    @property
    def num_invalid(self) -> int:
        return sum(not v for v in self.valid)

    def time_to_best(self, tolerance: float = 1.005) -> float:
        """Environment time at which the search first came within
        ``tolerance`` of its final best (the Figs. 5–7 "speed" metric).

        NaN for an empty history and for a run that never produced a valid
        placement (its "best" is +inf, so no finite time-to-best exists).
        """
        if not self.env_time:
            return float("nan")
        final = self.best_so_far[-1]
        if not np.isfinite(final):
            return float("nan")
        for t, b in zip(self.env_time, self.best_so_far):
            if b <= final * tolerance:
                return t
        return self.env_time[-1]


@dataclass
class SearchResult:
    """Outcome of one training run.

    The fault counters are zero unless an :class:`EvaluationPolicy` was
    active: ``num_faults`` counts every crash / timeout / rejected-corrupt
    measurement the engine observed, and always equals
    ``num_retries + num_quarantined`` (each fault either triggers a retry
    or, once retries are exhausted, a quarantine).  ``wall_time`` is the
    searcher's simulated wall-clock spent on straggler latency and retry
    backoff — a separate channel from ``env_time``, which stays the
    device-interaction clock of Figs. 5–7.
    """

    best_placement: Optional[np.ndarray]
    best_time: float
    final_time: float
    history: SearchHistory
    num_samples: int
    num_invalid: int
    env_time: float
    algorithm: str
    num_faults: int = 0
    num_retries: int = 0
    num_quarantined: int = 0
    wall_time: float = 0.0


def build_algorithm(
    name: str, agent: PlacementAgentBase, config: SearchConfig, num_devices: int
):
    """Instantiate an RL algorithm from a :class:`SearchConfig`."""
    kwargs = dict(
        lr=config.lr,
        entropy_coef=config.entropy_coef,
        max_grad_norm=config.max_grad_norm,
    )
    if name.lower() != "reinforce":
        kwargs.update(clip_epsilon=config.clip_epsilon, epochs=config.ppo_epochs)
    if name.lower() in ("ppo_ce", "ppo+ce", "post"):
        kwargs.update(ce_interval=config.ce_interval, num_elites=config.num_elites)
    if name.lower() in ("ppo_value", "a2c"):
        kwargs.update(num_devices=num_devices)
    return make_algorithm(name, agent, **kwargs)


@dataclass
class BudgetTracker:
    """Sample / environment-time budgets and minibatch sizing."""

    max_samples: int
    max_env_time: Optional[float] = None

    def exhausted(self, num_samples: int, env_time: float) -> bool:
        if num_samples >= self.max_samples:
            return True
        return self.max_env_time is not None and env_time >= self.max_env_time

    def next_batch_size(self, minibatch_size: int, num_samples: int) -> int:
        """Clip the minibatch so the sample budget is hit exactly."""
        return min(minibatch_size, self.max_samples - num_samples)

    def progress(self, num_samples: int) -> float:
        """Fraction of the sample budget consumed (annealing schedules)."""
        return num_samples / self.max_samples


class BestTracker:
    """Best placement, worst valid time, and the adaptive failure charge."""

    def __init__(self, explicit_failure_time: Optional[float] = None) -> None:
        self.explicit_failure_time = explicit_failure_time
        self.best_placement: Optional[np.ndarray] = None
        self.best_time = float("inf")
        self.worst_valid = 0.0

    def observe(self, placement: np.ndarray, measurement: Measurement) -> bool:
        """Fold one measurement in; True iff the best placement improved."""
        if not measurement.valid:
            return False
        self.worst_valid = max(self.worst_valid, measurement.per_step_time)
        if measurement.per_step_time < self.best_time:
            self.best_time = measurement.per_step_time
            self.best_placement = np.asarray(placement).copy()
            return True
        return False

    def failure_time(self) -> float:
        """Reward charge for invalid placements: the configured constant, or
        twice the worst valid time seen (60 s before any valid sample)."""
        if self.explicit_failure_time is not None:
            return self.explicit_failure_time
        return 2.0 * self.worst_valid if self.worst_valid > 0 else 60.0


class RewardShaper:
    """Eq. 4: ``R = -sqrt(t)`` with the tracker's adaptive failure charge."""

    def __init__(self, tracker: BestTracker) -> None:
        self.tracker = tracker

    def shape(self, measurement: Measurement) -> float:
        return reward_from_time(measurement.per_step_time, self.tracker.failure_time())


class EntropyAnnealer:
    """Linear entropy-coefficient schedule over the sample budget."""

    def __init__(self, start: float, final: Optional[float] = None) -> None:
        self.start = start
        self.final = final

    def coef(self, progress: float) -> float:
        if self.final is None:
            return self.start
        return self.start + (self.final - self.start) * progress


@dataclass
class EvaluationPolicy:
    """How the engine survives a faulty measurement backend.

    When installed, the engine measures each placement individually and, on
    an :class:`~repro.sim.faults.EvaluationFault` (worker crash), a
    per-evaluation timeout, or a corrupted value, re-measures with
    exponential backoff.  After ``max_retries`` failed attempts the
    placement is *quarantined*: recorded as a failed sample (like an OOM)
    so the search degrades gracefully instead of aborting.

    Corruption detection rejects measurements whose per-step time is
    non-finite, non-positive, above ``max_step_time`` (absolute band), or
    more than ``outlier_factor`` times the worst valid time seen so far
    (relative band).  Detection is only as complete as the bands: an
    injected outlier below both bands will be accepted, so chaos suites
    should configure ``max_step_time`` under the plan's outlier scale.

    ``timeout`` bounds the simulated wall-clock latency of one evaluation
    (stragglers); ``None`` disables it.  Backoff after attempt *k* charges
    ``backoff_base * backoff_factor**k`` seconds to the engine's wall-clock
    channel — simulated time, the tests never sleep.
    """

    max_retries: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    timeout: Optional[float] = None
    reject_nonfinite: bool = True
    max_step_time: Optional[float] = 3600.0
    outlier_factor: Optional[float] = 100.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base must be >= 0 and backoff_factor >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_step_time is not None and self.max_step_time <= 0:
            raise ValueError("max_step_time must be positive (or None)")
        if self.outlier_factor is not None and self.outlier_factor <= 1.0:
            raise ValueError("outlier_factor must be > 1 (or None)")

    def backoff(self, attempt: int) -> float:
        """Simulated seconds to wait before retry number ``attempt + 1``."""
        return self.backoff_base * self.backoff_factor**attempt

    def corruption_reason(self, measurement: Measurement, reference: float = 0.0) -> Optional[str]:
        """Why ``measurement`` should be rejected as corrupt, or ``None``.

        ``reference`` is the worst *valid* per-step time seen so far (0 if
        none yet); it anchors the relative out-of-band check.  Invalid
        (OOM) measurements are never corrupt — failure is their honest
        outcome.
        """
        if not measurement.valid:
            return None
        t = measurement.per_step_time
        if self.reject_nonfinite and not np.isfinite(t):
            return "non-finite per-step time"
        if t <= 0:
            return "non-positive per-step time"
        if self.max_step_time is not None and t > self.max_step_time:
            return f"per-step time {t:.3g}s above absolute band {self.max_step_time:.3g}s"
        if self.outlier_factor is not None and reference > 0 and t > self.outlier_factor * reference:
            return f"per-step time {t:.3g}s is {t / reference:.0f}x the worst valid"
        return None


class SearchEngine:
    """Drives one agent against one environment through a backend.

    Parameters
    ----------
    agent, environment, algorithm, config:
        As in the historical ``PlacementSearch``.
    backend:
        An :class:`EvaluationBackend`; defaults to a fresh
        :class:`SerialBackend` over ``environment``.  The engine does not
        close a caller-supplied backend.
    policy:
        An optional :class:`EvaluationPolicy`.  Without one (the default)
        the engine hands whole minibatches to the backend and any
        :class:`~repro.sim.faults.EvaluationFault` propagates — the exact
        historical behaviour.  With one, placements are measured
        individually with retry / corruption-rejection / quarantine
        semantics; on a fault-free backend the results are still
        bit-for-bit identical to the batch path.
    callbacks:
        Extra :class:`SearchCallback` observers.  A
        :class:`HistoryRecorder` over ``self.history`` is always installed
        first.
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
        self.agent = agent
        self.environment = environment
        self.config = config or SearchConfig()
        self.algorithm_name = algorithm
        self.algorithm = build_algorithm(
            algorithm, agent, self.config, environment.num_devices
        )
        self.backend = backend if backend is not None else SerialBackend(environment)
        self.policy = policy
        self.baseline = EMABaseline(decay=self.config.ema_decay)
        self.budget = BudgetTracker(self.config.max_samples, self.config.max_env_time)
        self.tracker = BestTracker(self.config.failure_time)
        self.shaper = RewardShaper(self.tracker)
        self.annealer = EntropyAnnealer(
            self.config.entropy_coef, self.config.entropy_coef_final
        )
        self.history = SearchHistory()
        self.callbacks = CallbackList([HistoryRecorder(self.history)])
        for cb in callbacks:
            self.callbacks.add(cb)
        #: samples measured so far (== len(self.history)).
        self.num_samples = 0
        #: environment clock through the most recent measurement; equals
        #: ``environment.env_time`` at batch boundaries but is also exact
        #: per-sample while a batch's measurements are being folded in.
        self.env_time = environment.env_time
        #: fault accounting (policy runs only); the invariant
        #: ``num_faults == num_retries + num_quarantined`` holds at every
        #: batch boundary.
        self.num_faults = 0
        self.num_retries = 0
        self.num_quarantined = 0
        #: simulated searcher wall-clock: straggler latency + retry backoff.
        self.wall_time = 0.0
        #: minibatches completed (policy updates applied).  Persisted so a
        #: resumed run continues the batch-index sequence seamlessly.
        self.num_batches = 0

    # ------------------------------------------------------------------ #
    @property
    def best_time(self) -> float:
        return self.tracker.best_time

    @property
    def best_placement(self) -> Optional[np.ndarray]:
        return self.tracker.best_placement

    def add_callback(self, callback: SearchCallback) -> None:
        self.callbacks.add(callback)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete, serialisable snapshot of the search at a batch boundary.

        Captures everything that influences future measurements and policy
        updates: agent parameters *and* its sampling-RNG position, the
        optimiser's moment buffers (plus elite stores / critic weights for
        the richer algorithms), the environment clock and noise-RNG, the
        best/worst trackers, the EMA baseline, fault accounting, the
        recorded history, and — when the backend supports it — the backend's
        own state (memo raws, fault-injection RNG).  Restoring the snapshot
        into a freshly constructed engine of the same configuration and
        calling :meth:`run` again produces a :class:`SearchResult` bit-for-
        bit identical to the uninterrupted run (golden-tested).

        Snapshots are only consistent at batch boundaries (``on_update``);
        :class:`~repro.core.checkpoint.CheckpointCallback` takes them there.
        """
        backend_state = None
        if hasattr(self.backend, "state_dict"):
            backend_state = self.backend.state_dict()
        return {
            "algorithm_name": self.algorithm_name,
            "num_samples": self.num_samples,
            "num_batches": self.num_batches,
            "env_time": self.env_time,
            "num_faults": self.num_faults,
            "num_retries": self.num_retries,
            "num_quarantined": self.num_quarantined,
            "wall_time": self.wall_time,
            "baseline_value": self.baseline.value,
            "tracker": {
                "best_time": self.tracker.best_time,
                "worst_valid": self.tracker.worst_valid,
                "best_placement": (
                    None
                    if self.tracker.best_placement is None
                    else self.tracker.best_placement.copy()
                ),
            },
            "agent": {
                "params": self.agent.state_dict(),
                "rng": self.agent.rng.bit_generator.state,
            },
            "environment": self.environment.state_dict(),
            "algorithm": self.algorithm.state_dict(),
            "history": {
                "env_time": list(self.history.env_time),
                "per_step_time": list(self.history.per_step_time),
                "best_so_far": list(self.history.best_so_far),
                "valid": list(self.history.valid),
            },
            "backend": backend_state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this engine.

        The engine must have been constructed with the same agent shape,
        algorithm name, and config as the one that produced the snapshot;
        the algorithm name is verified, the rest is the caller's contract
        (:func:`~repro.core.checkpoint.restore_engine` checks shapes).
        """
        if state["algorithm_name"] != self.algorithm_name:
            raise ValueError(
                f"checkpoint was produced by algorithm {state['algorithm_name']!r}, "
                f"engine runs {self.algorithm_name!r}"
            )
        self.num_samples = int(state["num_samples"])
        self.num_batches = int(state["num_batches"])
        self.env_time = float(state["env_time"])
        self.num_faults = int(state["num_faults"])
        self.num_retries = int(state["num_retries"])
        self.num_quarantined = int(state["num_quarantined"])
        self.wall_time = float(state["wall_time"])
        value = state["baseline_value"]
        self.baseline.value = None if value is None else float(value)
        tracker = state["tracker"]
        self.tracker.best_time = float(tracker["best_time"])
        self.tracker.worst_valid = float(tracker["worst_valid"])
        best = tracker["best_placement"]
        self.tracker.best_placement = None if best is None else np.asarray(best).copy()
        self.agent.load_state_dict(state["agent"]["params"])
        self.agent.rng.bit_generator.state = state["agent"]["rng"]
        self.environment.load_state_dict(state["environment"])
        self.algorithm.load_state_dict(state["algorithm"])
        # Mutate the existing history in place: the engine's HistoryRecorder
        # (and any external holder of engine.history) keeps its reference.
        hist = state["history"]
        self.history.env_time[:] = [float(t) for t in hist["env_time"]]
        self.history.per_step_time[:] = [float(t) for t in hist["per_step_time"]]
        self.history.best_so_far[:] = [float(t) for t in hist["best_so_far"]]
        self.history.valid[:] = [bool(v) for v in hist["valid"]]
        if state.get("backend") is not None and hasattr(self.backend, "load_state_dict"):
            self.backend.load_state_dict(state["backend"])

    # ------------------------------------------------------------------ #
    def _fold_measurement(self, sample, measurement: Measurement) -> None:
        """Fold one accepted measurement into trackers, rewards and events.

        ``self.env_time`` must already be the clock *through* this
        measurement.
        """
        sample.valid = measurement.valid
        sample.per_step_time = measurement.per_step_time
        improved = self.tracker.observe(sample.op_placement, measurement)
        sample.reward = self.shaper.shape(measurement)
        self.num_samples += 1
        self.callbacks.on_measurement(self, sample, measurement)
        if improved:
            self.callbacks.on_best(self, self.tracker.best_placement, self.tracker.best_time)

    def _evaluate_resilient(self, placement: np.ndarray) -> Measurement:
        """Measure one placement under the policy's retry/quarantine rules."""
        policy = self.policy
        attempt = 0
        while True:
            fault: Optional[EvaluationFault] = None
            measurement: Optional[Measurement] = None
            try:
                measurement = self.backend.evaluate_batch([placement])[0]
            except EvaluationFault as exc:
                fault = exc
            else:
                latency = float(getattr(self.backend, "last_eval_latency", 0.0))
                self.wall_time += latency
                if policy.timeout is not None and latency > policy.timeout:
                    fault = EvaluationFault(
                        f"evaluation took {latency:.1f}s, timeout {policy.timeout:.1f}s",
                        kind="timeout",
                    )
                else:
                    reason = policy.corruption_reason(measurement, self.tracker.worst_valid)
                    if reason is not None:
                        fault = EvaluationFault(reason, kind="corruption")
            if fault is None:
                return measurement
            self.num_faults += 1
            self.callbacks.on_fault(self, placement, fault)
            if attempt < policy.max_retries:
                self.wall_time += policy.backoff(attempt)
                attempt += 1
                self.num_retries += 1
                self.callbacks.on_retry(self, placement, attempt, fault)
                continue
            self.num_quarantined += 1
            self.callbacks.on_quarantine(self, placement, fault)
            # Recorded like an invalid placement: +inf time, failure-charged
            # reward, no extra environment time (the failed attempts already
            # paid theirs).
            return Measurement(per_step_time=float("inf"), valid=False, env_time_charged=0.0)

    def _run_batch(self, batch_index: int) -> None:
        cfg = self.config
        self.algorithm.entropy_coef = self.annealer.coef(
            self.budget.progress(self.num_samples)
        )
        batch_size = self.budget.next_batch_size(cfg.minibatch_size, self.num_samples)
        self.callbacks.on_batch_start(self, batch_index, batch_size)
        samples = self.agent.sample_placements(batch_size)
        if self.policy is None:
            # Reconstruct the per-sample clock exactly as serial evaluation
            # would have advanced it: same start value, same left-to-right
            # additions.
            clock = self.environment.env_time
            measurements = self.backend.evaluate_batch([s.op_placement for s in samples])
            for sample, m in zip(samples, measurements):
                clock += m.env_time_charged
                self.env_time = clock
                self._fold_measurement(sample, m)
        else:
            # Resilient path: measure one placement at a time so a fault is
            # attributed (and retried) per placement, and fold immediately so
            # corruption detection sees an up-to-date worst-valid reference.
            # Backends that talk to a remote fleet may expose prepare_batch
            # (batch ticketing): the whole minibatch is submitted in one
            # round trip and the per-placement calls below consume prefetched
            # raw outcomes, keeping commit order — and therefore results —
            # identical to the serial path.
            prepare = getattr(self.backend, "prepare_batch", None)
            if prepare is not None:
                prepare([s.op_placement for s in samples])
            for sample in samples:
                m = self._evaluate_resilient(sample.op_placement)
                self.env_time = self.environment.env_time
                self._fold_measurement(sample, m)
        advantages = compute_advantages(
            [s.reward for s in samples], self.baseline, cfg.normalize_advantages
        )
        stats = self.algorithm.update(RolloutBatch(samples, advantages))
        self.callbacks.on_update(self, stats)

    def run(self, callbacks: Iterable[SearchCallback] = ()) -> SearchResult:
        """Run the search to its budget; returns the best placement found."""
        for cb in callbacks:
            self.callbacks.add(cb)
        self.callbacks.on_search_start(self)
        while not self.budget.exhausted(self.num_samples, self.environment.env_time):
            self._run_batch(self.num_batches)
            self.num_batches += 1

        final_time = self.tracker.best_time
        if self.tracker.best_placement is not None:
            final = self.environment.final_evaluate(self.tracker.best_placement)
            if final.valid:
                final_time = final.per_step_time
        result = SearchResult(
            best_placement=self.tracker.best_placement,
            best_time=self.tracker.best_time,
            final_time=final_time,
            history=self.history,
            num_samples=self.num_samples,
            num_invalid=self.history.num_invalid,
            env_time=self.environment.env_time,
            algorithm=self.algorithm_name,
            num_faults=self.num_faults,
            num_retries=self.num_retries,
            num_quarantined=self.num_quarantined,
            wall_time=self.wall_time,
        )
        self.callbacks.on_search_end(self, result)
        return result
