"""Memory regression: a PPO epoch must not keep the previous epoch's graph.

Backward frees the autograd graph it walks, so each PPO epoch builds its
graph after the previous one is gone, even though the update loop still
holds the previous epoch's loss.  The traced peak of a two-epoch update
therefore stays close to the one-epoch peak; when every epoch's graph and
interior gradients outlive their backward pass, the second epoch stacks on
the first (about 1.5x at this size, 1.6x on GNMT at the benchmark size).
"""

import tracemalloc

import numpy as np

from repro.core import EagleAgent
from repro.rl import PPO, RolloutBatch

#: Largest allowed two-epoch / one-epoch ratio of traced peak memory.  What
#: a second epoch legitimately adds is the optimizer's moments and the
#: previous epoch's parameter gradients, a few percent at this size.
MAX_RATIO = 1.25


def _update_peak(graph, epochs: int) -> int:
    """Traced peak bytes of one ``PPO.update`` of ``epochs`` epochs on a
    fresh seed-0 EAGLE agent (16 groups, hidden 32, minibatch 20)."""
    agent = EagleAgent(graph, 3, 16, placer_hidden=32, warm_start=None, seed=0)
    batch = RolloutBatch(agent.sample_placements(20), np.random.default_rng(0).normal(size=20))
    algorithm = PPO(agent, epochs=epochs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        algorithm.update(batch)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_second_ppo_epoch_does_not_stack_on_the_first(layered_graph):
    one = _update_peak(layered_graph, epochs=1)
    two = _update_peak(layered_graph, epochs=2)
    assert two <= MAX_RATIO * one, f"two epochs peak at {two / one:.2f}x one epoch"
