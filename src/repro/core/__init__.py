"""EAGLE and the baseline agents + the placement search loop (substrate S7)."""

import importlib
from typing import Any

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    "PlacementAgentBase": ".agent_base",
    "GrouperPlacerBridge": ".bridge",
    "EagleAgent": ".eagle",
    "HierarchicalPlannerAgent": ".hierarchical",
    "FixedGroupingSeq2SeqAgent": ".fixed_group",
    "FixedGroupingGCNAgent": ".fixed_group",
    "PostAgent": ".post",
    "single_gpu_placement": ".predefined",
    "human_expert_placement": ".predefined",
    "PlacementSearch": ".search",
    "SearchConfig": ".search",
    "SearchHistory": ".search",
    "SearchResult": ".search",
    "SearchEngine": ".engine",
    "BudgetTracker": ".engine",
    "BestTracker": ".engine",
    "RewardShaper": ".engine",
    "EntropyAnnealer": ".engine",
    "EvaluationPolicy": ".engine",
    "build_algorithm": ".engine",
    "SearchCallback": ".events",
    "CallbackList": ".events",
    "HistoryRecorder": ".events",
    "ProgressPrinter": ".events",
    "MetricsExporter": ".events",
    "scotch_style_placement": ".heuristic_placement",
    "RandomSearchAgent": ".heuristic_placement",
    "save_checkpoint": ".checkpoint",
    "load_checkpoint": ".checkpoint",
    "restore_agent": ".checkpoint",
}

__all__ = [
    "SearchEngine",
    "BudgetTracker",
    "BestTracker",
    "RewardShaper",
    "EntropyAnnealer",
    "EvaluationPolicy",
    "build_algorithm",
    "SearchCallback",
    "CallbackList",
    "HistoryRecorder",
    "ProgressPrinter",
    "MetricsExporter",
    "PlacementAgentBase",
    "GrouperPlacerBridge",
    "EagleAgent",
    "HierarchicalPlannerAgent",
    "FixedGroupingSeq2SeqAgent",
    "FixedGroupingGCNAgent",
    "PostAgent",
    "single_gpu_placement",
    "human_expert_placement",
    "PlacementSearch",
    "SearchConfig",
    "SearchHistory",
    "SearchResult",
    "scotch_style_placement",
    "RandomSearchAgent",
    "save_checkpoint",
    "load_checkpoint",
    "restore_agent",
]


def __getattr__(name: str) -> Any:
    # PEP 562: import a re-export's module on first use, so importing one
    # submodule does not import the whole package.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
