"""Fault injection: chaos-testing harness for evaluation backends.

At the scale the interaction-time line of work targets, measurements come
from a fleet of workers that crash, straggle, and occasionally return
garbage.  No real distributed backend exists in this repo yet, so this
module provides the next best thing: a :class:`FaultInjectingBackend` that
wraps any :class:`~repro.sim.backends.EvaluationBackend` and injects the
three classic failure modes, driven by a seeded ``numpy.random.Generator``
so every chaos run is exactly reproducible:

*Worker crashes*
    The evaluation raises :class:`EvaluationFault` before the wrapped
    backend is consulted — no measurement is produced and the environment
    clock is *not* charged (the worker died before reporting).

*Stragglers*
    The measurement arrives intact but late.  The simulated latency is
    charged to a new *wall-clock* accounting channel
    (:attr:`FaultInjectingBackend.wall_time`), separate from the
    environment clock of Figs. 5–7: stragglers waste the searcher's real
    time, not simulated device time.

*Corrupted measurements*
    A valid measurement's per-step time is replaced with garbage — NaN, a
    negated value, or an absurd outlier — while ``valid`` stays True.  This
    models a worker that silently returned a broken number; detecting and
    rejecting it is the job of :class:`repro.core.engine.EvaluationPolicy`.

What to inject is configured by a :class:`FaultPlan`; how the search engine
*survives* it (bounded retries with exponential backoff, corruption
rejection, quarantine) lives in :class:`repro.core.engine.EvaluationPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .environment import Measurement

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .backends import EvaluationBackend

__all__ = ["EvaluationFault", "FaultPlan", "FaultInjectingBackend"]

#: Corruption modes a :class:`FaultPlan` may enable.
CORRUPTION_KINDS = ("nan", "negative", "outlier")


class EvaluationFault(RuntimeError):
    """An evaluation failed for an operational (not placement) reason.

    ``kind`` distinguishes the failure mode: ``"crash"`` (injected or real
    worker death — the remote backend also maps connection refused/reset
    and server-reported worker errors here), ``"straggler"`` (a network
    deadline expired before the result arrived), ``"timeout"`` (the
    policy's per-evaluation deadline expired), or ``"corruption"`` (the
    policy rejected the returned value).  Unlike an OOM — which is a
    *property of the placement* and produces an invalid measurement — a
    fault says nothing about the placement, so the engine retries rather
    than penalising it.

    ``index`` is the position of the failed placement within the batch that
    was being evaluated (``None`` when unknown): a batch-level fault raised
    by ``evaluate_batch`` means placements ``0..index-1`` were measured and
    charged, and placements past ``index`` were never evaluated.
    """

    def __init__(
        self, message: str, *, kind: str = "crash", index: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.index = index


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, with which probabilities, under which seed.

    Rates are independent per-evaluation probabilities.  A crash pre-empts
    the evaluation entirely; straggling and corruption apply to a completed
    measurement and may co-occur.  Corruption only targets *valid*
    measurements — an OOM is already a failure and needs no garbling.
    """

    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    #: mean of the exponential straggler-delay distribution, in simulated
    #: wall-clock seconds.
    straggler_delay: float = 30.0
    corruption_rate: float = 0.0
    corruption_kinds: Tuple[str, ...] = CORRUPTION_KINDS
    #: multiplier applied to the true per-step time for ``"outlier"``
    #: corruption; large enough that any sane out-of-band check catches it.
    outlier_scale: float = 1e6
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "corruption_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_delay < 0:
            raise ValueError("straggler_delay must be >= 0")
        if self.outlier_scale <= 1.0:
            raise ValueError("outlier_scale must be > 1")
        if not self.corruption_kinds:
            raise ValueError("corruption_kinds must not be empty")
        unknown = set(self.corruption_kinds) - set(CORRUPTION_KINDS)
        if unknown:
            raise ValueError(f"unknown corruption kinds: {sorted(unknown)}")

    @property
    def enabled(self) -> bool:
        return bool(self.crash_rate or self.straggler_rate or self.corruption_rate)

    @classmethod
    def chaos(cls, rate: float, *, seed: int = 0, straggler_delay: float = 30.0) -> "FaultPlan":
        """All three failure modes at the same rate — the standard chaos run."""
        return cls(
            crash_rate=rate,
            straggler_rate=rate,
            straggler_delay=straggler_delay,
            corruption_rate=rate,
            seed=seed,
        )


def _corrupt(measurement: Measurement, kind: str, outlier_scale: float) -> Measurement:
    t = measurement.per_step_time
    if kind == "nan":
        t = float("nan")
    elif kind == "negative":
        t = -abs(t)
    else:  # "outlier"
        t = t * outlier_scale
    return replace(measurement, per_step_time=t)


class FaultInjectingBackend:
    """Wraps any backend and injects crashes, stragglers and corruption.

    Fault fates are drawn from a private generator seeded by the plan, so
    they are deterministic given the plan and the sequence of evaluations —
    and completely decoupled from the environment's measurement-noise
    stream.  With an all-zero plan the wrapper is measurement-for-
    measurement identical to the wrapped backend (golden-tested).

    Counters: ``crashes_injected``, ``stragglers_injected`` and
    ``corruptions_injected`` record what was injected;
    :attr:`faults_injected` (crashes + corruptions) is the number the
    engine's retry/quarantine accounting must balance against.  Straggler
    latency accumulates in :attr:`wall_time`; the latency of the most
    recent evaluation is exposed as :attr:`last_eval_latency` for the
    policy's per-evaluation timeout.
    """

    def __init__(self, inner: "EvaluationBackend", plan: FaultPlan = FaultPlan()) -> None:
        self.inner = inner
        self.environment = inner.environment
        self.plan = plan
        self.crashes_injected = 0
        self.stragglers_injected = 0
        self.corruptions_injected = 0
        self.wall_time = 0.0
        self.last_eval_latency = 0.0
        self._rng = np.random.default_rng(plan.seed)

    @property
    def faults_injected(self) -> int:
        """Injected failures the engine should observe as faults.

        Stragglers are excluded: they only become faults when a policy
        timeout is configured and exceeded, which is the engine's call.
        """
        return self.crashes_injected + self.corruptions_injected

    def prepare_batch(self, placements) -> None:
        """Forward the engine's pre-dispatch hint to the wrapped backend.

        Without this forwarding, wrapping a backend for chaos testing would
        silently disable batch ticketing (remote prefetch, and the memo's
        cache warm-up, which sweeps a minibatch of at least
        :data:`~repro.sim.batch.SWEEP_MIN_LANES` misses): the engine
        discovers ``prepare_batch`` with ``getattr`` on the outermost
        backend only.  No fault fates are drawn here — the
        hint is not an evaluation, and the fault stream must depend only on
        how many evaluations ran.
        """
        prepare = getattr(self.inner, "prepare_batch", None)
        if prepare is not None:
            prepare(placements)

    def evaluate_batch(self, placements: Sequence[np.ndarray]) -> List[Measurement]:
        """Measure the batch with per-placement fault draws, in order.

        Batch semantics (identical to :class:`~repro.sim.backends
        .SerialBackend` evaluating the same prefix): placements are
        processed strictly left to right, each drawing its own three fault
        fates; stragglers and corruption garble individual measurements
        without affecting their siblings.  An injected *crash* at position
        ``k`` raises immediately with ``fault.index == k`` — placements
        ``0..k-1`` have already been measured and charged to the
        environment clock exactly as a serial evaluation of that prefix
        would, and placements ``k+1..`` are untouched (no fate draws, no
        clock charges).  Callers that need per-placement fault attribution
        submit single-element batches, as
        :class:`~repro.core.engine.EvaluationPolicy` does.
        """
        out = []
        for i, placement in enumerate(placements):
            try:
                out.append(self._measure(placement))
            except EvaluationFault as fault:
                fault.index = i
                raise
        return out

    def _measure(self, placement: np.ndarray) -> Measurement:
        self.last_eval_latency = 0.0
        # Always draw all three fates so the fault stream depends only on
        # how many evaluations ran, never on earlier outcomes.
        u_crash, u_straggle, u_corrupt = self._rng.random(3)
        if u_crash < self.plan.crash_rate:
            self.crashes_injected += 1
            raise EvaluationFault("injected worker crash", kind="crash")
        measurement = self.inner.evaluate_batch([placement])[0]
        if u_straggle < self.plan.straggler_rate:
            delay = float(self._rng.exponential(self.plan.straggler_delay))
            self.stragglers_injected += 1
            self.wall_time += delay
            self.last_eval_latency = delay
        if u_corrupt < self.plan.corruption_rate and measurement.valid:
            kinds = self.plan.corruption_kinds
            kind = kinds[int(self._rng.integers(len(kinds)))]
            self.corruptions_injected += 1
            measurement = _corrupt(measurement, kind, self.plan.outlier_scale)
        return measurement

    def close(self) -> None:
        self.inner.close()

    def state_dict(self) -> Dict:
        """Fault-RNG position and counters (plus the wrapped backend's state).

        Restoring this on resume makes the post-resume fault *stream*
        identical to the uninterrupted run's — crashes, stragglers, and
        corruptions land on the same evaluations."""
        inner = None
        if hasattr(self.inner, "state_dict"):
            inner = self.inner.state_dict()
        return {
            "rng": self._rng.bit_generator.state,
            "crashes_injected": self.crashes_injected,
            "stragglers_injected": self.stragglers_injected,
            "corruptions_injected": self.corruptions_injected,
            "wall_time": self.wall_time,
            "last_eval_latency": self.last_eval_latency,
            "inner": inner,
        }

    def load_state_dict(self, state: Dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self.crashes_injected = int(state["crashes_injected"])
        self.stragglers_injected = int(state["stragglers_injected"])
        self.corruptions_injected = int(state["corruptions_injected"])
        self.wall_time = float(state["wall_time"])
        self.last_eval_latency = float(state["last_eval_latency"])
        if state.get("inner") is not None and hasattr(self.inner, "load_state_dict"):
            self.inner.load_state_dict(state["inner"])

    def stats(self) -> Dict[str, float]:
        return {
            **self.inner.stats(),
            "crashes_injected": float(self.crashes_injected),
            "stragglers_injected": float(self.stragglers_injected),
            "corruptions_injected": float(self.corruptions_injected),
            "faults_injected": float(self.faults_injected),
            "wall_time": self.wall_time,
        }
