"""Test oracles shared across suites: a per-placement reference backend and
a spy telling the batch simulator's two sides apart."""

from __future__ import annotations

import threading

from repro.sim import BatchSimulator, Simulator


class PerPlacementBackend:
    """The reference evaluator: ``environment.evaluate`` on each placement,
    in order — no batching, no cache, no sweep."""

    def __init__(self, environment) -> None:
        self.environment = environment

    def evaluate_batch(self, placements):
        return [self.environment.evaluate(p) for p in placements]

    def close(self) -> None:
        pass

    def stats(self):
        return {"evaluations": float(self.environment.num_evaluations)}


class SideSpy:
    """Counts :class:`BatchSimulator` sweeps and scalar
    :meth:`Simulator.simulate` calls from the moment it is created.

    The counters are class-level patches, so they see every thread,
    including a measurement server's pool workers.
    """

    def __init__(self, monkeypatch) -> None:
        self.sweeps = 0
        self.scalar = 0
        lock = threading.Lock()
        sweep, simulate = BatchSimulator._sweep, Simulator.simulate

        def counted_sweep(batch, P, record_trace):
            with lock:
                self.sweeps += 1
            return sweep(batch, P, record_trace)

        def counted_simulate(sim, *args, **kwargs):
            with lock:
                self.scalar += 1
            return simulate(sim, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "_sweep", counted_sweep)
        monkeypatch.setattr(Simulator, "simulate", counted_simulate)
