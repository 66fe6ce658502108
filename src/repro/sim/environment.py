"""The RL environment: placement in, measured per-step time out.

Wraps :class:`Simulator` with the paper's measurement protocol (§IV-C):
each sampled placement is "run" for 15 steps, the first 5 warm-up steps are
discarded (parameter initialisation on the new placement makes them slower),
and the per-step time is the mean of the remaining 10.  Multiplicative
measurement noise models run-to-run variance on a real machine.

The environment also keeps the *environment clock*: every evaluation is
charged its setup cost plus the simulated duration of all measured steps.
This clock is the x-axis of the paper's training-process figures (Figs. 5–7)
— on the authors' testbed, interaction time dominates agent compute, and the
same accounting applies here.

Cache-vs-noise semantics
------------------------
An evaluation decomposes into a *deterministic* part (the simulator's
noiseless makespan, or the OOM outcome) and a *per-evaluation* part (the
lognormal measurement-noise draw and the environment-clock charge).  Only the
deterministic part is cacheable: :meth:`PlacementEnvironment.simulate_raw`
produces it as a :class:`RawOutcome`, and
:meth:`PlacementEnvironment.commit` applies the per-evaluation part.
``evaluate`` composes the two.  Memoising backends
(:class:`repro.sim.backends.MemoBackend`) cache only the raw outcome and
still ``commit`` every call, so repeated placements draw fresh noise and are
charged full environment time — the Figs. 5–7 accounting is unchanged
whether or not a cache sits in front of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..graph.opgraph import OpGraph
from .cost_model import CostModel
from .devices import Topology
from .simulator import OutOfMemoryError, Simulator, StepBreakdown

__all__ = ["Measurement", "RawOutcome", "raw_outcome", "PlacementEnvironment"]


@dataclass(frozen=True)
class Measurement:
    """Outcome of evaluating one placement.

    ``valid`` is False for OOM placements; then ``per_step_time`` is +inf
    and ``oom_detail`` holds the over-committed devices.
    """

    per_step_time: float
    valid: bool
    env_time_charged: float
    oom_detail: Optional[Dict[int, Tuple[float, float]]] = None
    breakdown: Optional[StepBreakdown] = None

    @property
    def is_oom(self) -> bool:
        return not self.valid


@dataclass(frozen=True)
class RawOutcome:
    """Deterministic simulator outcome for one placement.

    This is the cacheable half of an evaluation (see the module docstring):
    the noiseless makespan for valid placements (``base_time``), or the OOM
    detail for invalid ones (``base_time is None``).  It carries no noise
    draw and no clock charge — those are applied when the outcome is
    *committed* to an environment.  Instances are immutable and picklable
    (modulo ``breakdown``), so backends may cache them or ship them across
    process boundaries.
    """

    base_time: Optional[float]
    oom_detail: Optional[Dict[int, Tuple[float, float]]] = None
    breakdown: Optional[StepBreakdown] = None

    @property
    def is_oom(self) -> bool:
        return self.base_time is None

    def without_breakdown(self) -> "RawOutcome":
        """A copy safe to cache or pickle (drops the trace-sized breakdown)."""
        if self.breakdown is None:
            return self
        return RawOutcome(self.base_time, self.oom_detail)


def raw_outcome(
    simulator: Simulator, placement: Sequence[int], with_breakdown: bool = False
) -> RawOutcome:
    """One scalar simulation as a :class:`RawOutcome`.

    The single place an :class:`OutOfMemoryError` becomes an OOM outcome:
    the environment, the batch simulator's scalar side and the parallel
    backend's workers all call it.
    """
    try:
        breakdown = simulator.simulate(placement)
    except OutOfMemoryError as exc:
        return RawOutcome(None, oom_detail=exc.overcommitted)
    return RawOutcome(breakdown.makespan, breakdown=breakdown if with_breakdown else None)


class PlacementEnvironment:
    """Evaluates placements and accounts environment time.

    Parameters
    ----------
    graph, topology, cost_model:
        Forwarded to :class:`Simulator`.
    measure_steps, warmup_steps:
        The 15/5 protocol of §IV-C; warm-up steps run ``warmup_slowdown``×
        slower and are discarded from the reported mean.
    setup_time:
        Seconds charged per evaluation for re-initialising parameters under
        a new placement (the paper notes ~1 minute to evaluate 10 NMT
        steps, mostly setup).
    noise_std:
        Std-dev of the multiplicative lognormal measurement noise.
    oom_time_charge:
        Environment seconds charged for discovering an invalid placement
        (allocation fails quickly on a real machine).
    seed:
        Noise RNG seed; evaluations are deterministic given the seed and
        call order.
    """

    def __init__(
        self,
        graph: OpGraph,
        topology: Optional[Topology] = None,
        cost_model: Optional[CostModel] = None,
        *,
        measure_steps: int = 10,
        warmup_steps: int = 5,
        warmup_slowdown: float = 3.0,
        setup_time: float = 5.0,
        noise_std: float = 0.01,
        oom_time_charge: float = 2.0,
        seed: int = 0,
    ) -> None:
        if measure_steps < 1 or warmup_steps < 0:
            raise ValueError("need at least one measured step and non-negative warm-up")
        self.simulator = Simulator(graph, topology or Topology.default_4gpu(), cost_model)
        self.measure_steps = measure_steps
        self.warmup_steps = warmup_steps
        self.warmup_slowdown = warmup_slowdown
        self.setup_time = setup_time
        self.noise_std = noise_std
        self.oom_time_charge = oom_time_charge
        self._rng = np.random.default_rng(seed)
        self.env_time = 0.0
        self.num_evaluations = 0
        self.num_oom = 0

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> OpGraph:
        return self.simulator.graph

    @property
    def topology(self) -> Topology:
        return self.simulator.topology

    @property
    def num_devices(self) -> int:
        return self.simulator.num_devices

    # ------------------------------------------------------------------ #
    def simulate_raw(self, placement: Sequence[int], with_breakdown: bool = False) -> RawOutcome:
        """Deterministic simulator outcome; draws no noise, charges no time.

        This is the cacheable half of :meth:`evaluate` — see the module
        docstring for the cache-vs-noise contract.
        """
        return raw_outcome(self.simulator, placement, with_breakdown)

    def commit(self, raw: RawOutcome) -> Measurement:
        """Account one measurement of a raw outcome: draw the per-evaluation
        noise, charge the environment clock, bump the counters.

        Committing the same :class:`RawOutcome` twice models re-measuring the
        same placement on the machine — each commit gets its own noise draw
        and full clock charge.
        """
        self.num_evaluations += 1
        if raw.is_oom:
            self.num_oom += 1
            self.env_time += self.oom_time_charge
            return Measurement(
                per_step_time=float("inf"),
                valid=False,
                env_time_charged=self.oom_time_charge,
                oom_detail=raw.oom_detail,
            )
        base = raw.base_time
        if self.noise_std > 0:
            noise = self._rng.lognormal(mean=0.0, sigma=self.noise_std, size=self.measure_steps)
            measured = float(base * noise.mean())
        else:
            measured = base
        charged = self.setup_time + base * (
            self.warmup_steps * self.warmup_slowdown + self.measure_steps
        )
        self.env_time += charged
        return Measurement(
            per_step_time=measured,
            valid=True,
            env_time_charged=charged,
            breakdown=raw.breakdown,
        )

    def evaluate(self, placement: Sequence[int], with_breakdown: bool = False) -> Measurement:
        """Measure one placement, advancing the environment clock."""
        return self.commit(self.simulate_raw(placement, with_breakdown=with_breakdown))

    def final_evaluate(self, placement: Sequence[int], steps: int = 1000) -> Measurement:
        """The post-training evaluation of §IV-C: run the best placement for
        ``steps`` steps (5 warm-up discarded) without advancing the clock."""
        raw = raw_outcome(self.simulator, placement, with_breakdown=True)
        if raw.is_oom:
            return Measurement(float("inf"), False, 0.0, oom_detail=raw.oom_detail)
        base = raw.base_time
        if self.noise_std > 0:
            noise = self._rng.lognormal(0.0, self.noise_std / np.sqrt(steps))
            base = float(base * noise)
        return Measurement(base, True, 0.0, breakdown=raw.breakdown)

    def reset_clock(self) -> None:
        """Zero the environment clock and counters (new training run)."""
        self.env_time = 0.0
        self.num_evaluations = 0
        self.num_oom = 0

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict:
        """Clock, counters, and the exact noise-RNG position.

        Restoring this into a structurally identical environment makes the
        next ``commit``/``final_evaluate`` draw the same noise an
        uninterrupted run would have — the foundation of bit-for-bit
        checkpoint resume.
        """
        return {
            "env_time": self.env_time,
            "num_evaluations": self.num_evaluations,
            "num_oom": self.num_oom,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: Dict) -> None:
        self.env_time = float(state["env_time"])
        self.num_evaluations = int(state["num_evaluations"])
        self.num_oom = int(state["num_oom"])
        self._rng.bit_generator.state = state["rng"]
