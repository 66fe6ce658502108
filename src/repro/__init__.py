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

import importlib
from typing import Any

#: Subpackages, imported on first attribute access.
_SUBPACKAGES = (
    "analysis", "graph", "sim", "nn", "rl", "grouping", "placement", "core", "bench", "service",
)

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    "MeasurementServer": ".service",
    "RemoteBackend": ".service",
    "EagleAgent": ".core",
    "HierarchicalPlannerAgent": ".core",
    "PostAgent": ".core",
    "FixedGroupingSeq2SeqAgent": ".core",
    "FixedGroupingGCNAgent": ".core",
    "PlacementSearch": ".core",
    "SearchConfig": ".core",
    "SearchEngine": ".core",
    "SearchCallback": ".core",
    "ProgressPrinter": ".core",
    "EvaluationPolicy": ".core",
    "single_gpu_placement": ".core",
    "human_expert_placement": ".core",
    "PlacementEnvironment": ".sim",
    "Topology": ".sim",
    "Simulator": ".sim",
    "CostModel": ".sim",
    "SerialBackend": ".sim",
    "MemoBackend": ".sim",
    "make_backend": ".sim",
    "EvaluationFault": ".sim",
    "FaultPlan": ".sim",
    "FaultInjectingBackend": ".sim",
}

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


def __getattr__(name: str) -> Any:
    # PEP 562: import a re-export's module on first use, so importing one
    # submodule does not import the whole package.
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
