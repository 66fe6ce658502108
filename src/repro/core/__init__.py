"""EAGLE and the baseline agents + the placement search loop (substrate S7)."""

from .agent_base import PlacementAgentBase
from .bridge import GrouperPlacerBridge
from .eagle import EagleAgent
from .hierarchical import HierarchicalPlannerAgent
from .fixed_group import FixedGroupingSeq2SeqAgent, FixedGroupingGCNAgent
from .post import PostAgent
from .predefined import single_gpu_placement, human_expert_placement
from .search import PlacementSearch, SearchConfig, SearchHistory, SearchResult
from .engine import (
    SearchEngine,
    BudgetTracker,
    BestTracker,
    RewardShaper,
    EntropyAnnealer,
    EvaluationPolicy,
    build_algorithm,
)
from .events import (
    SearchCallback,
    CallbackList,
    HistoryRecorder,
    ProgressPrinter,
    MetricsExporter,
)
from .heuristic_placement import scotch_style_placement, RandomSearchAgent
from .checkpoint import save_checkpoint, load_checkpoint, restore_agent

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
