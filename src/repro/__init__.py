"""repro — a full reproduction of *EAGLE: Expedited Device Placement with
Automatic Grouping for Large Models* (IPPS 2021).

Quickstart::

    from repro import EagleAgent, PlacementEnvironment, PlacementSearch
    from repro.graph.models import build_benchmark

    graph = build_benchmark("inception_v3")
    env = PlacementEnvironment(graph)
    agent = EagleAgent(graph, env.num_devices, num_groups=64,
                       placer_hidden=128, seed=0)
    result = PlacementSearch(agent, env, algorithm="ppo").run()
    print(result.best_time, "s/step")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from . import analysis, graph, sim, nn, rl, grouping, placement, core, bench, service
from .service import MeasurementServer, RemoteBackend
from .core import (
    EagleAgent,
    HierarchicalPlannerAgent,
    PostAgent,
    FixedGroupingSeq2SeqAgent,
    FixedGroupingGCNAgent,
    PlacementSearch,
    SearchConfig,
    SearchEngine,
    SearchCallback,
    ProgressPrinter,
    EvaluationPolicy,
    single_gpu_placement,
    human_expert_placement,
)
from .sim import (
    PlacementEnvironment,
    Topology,
    Simulator,
    CostModel,
    SerialBackend,
    MemoBackend,
    make_backend,
    EvaluationFault,
    FaultPlan,
    FaultInjectingBackend,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "graph",
    "sim",
    "nn",
    "rl",
    "grouping",
    "placement",
    "core",
    "bench",
    "EagleAgent",
    "HierarchicalPlannerAgent",
    "PostAgent",
    "FixedGroupingSeq2SeqAgent",
    "FixedGroupingGCNAgent",
    "PlacementSearch",
    "SearchConfig",
    "SearchEngine",
    "SearchCallback",
    "ProgressPrinter",
    "single_gpu_placement",
    "human_expert_placement",
    "PlacementEnvironment",
    "Topology",
    "Simulator",
    "CostModel",
    "SerialBackend",
    "MemoBackend",
    "make_backend",
    "EvaluationPolicy",
    "EvaluationFault",
    "FaultPlan",
    "FaultInjectingBackend",
    "service",
    "MeasurementServer",
    "RemoteBackend",
    "__version__",
]
