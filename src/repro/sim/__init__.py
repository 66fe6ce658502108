"""Multi-device execution simulator — the RL environment (substrate S2)."""

from .devices import DeviceSpec, LinkSpec, Topology
from .cost_model import CostModel
from .simulator import Simulator, StepBreakdown, OutOfMemoryError
from .batch import BatchSimulator, BatchStepBreakdown
from .environment import PlacementEnvironment, Measurement, RawOutcome
from .backends import (
    EvaluationBackend,
    SerialBackend,
    MemoBackend,
    make_backend,
)
from .faults import EvaluationFault, FaultPlan, FaultInjectingBackend
from .serialization import (
    topology_to_dict,
    topology_from_dict,
    cost_model_to_dict,
    cost_model_from_dict,
)
from .trace import chrome_trace, ascii_gantt, critical_path
from .memory import peak_memory, PeakMemoryReport

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "Topology",
    "CostModel",
    "Simulator",
    "StepBreakdown",
    "OutOfMemoryError",
    "BatchSimulator",
    "BatchStepBreakdown",
    "PlacementEnvironment",
    "Measurement",
    "RawOutcome",
    "EvaluationBackend",
    "SerialBackend",
    "MemoBackend",
    "make_backend",
    "EvaluationFault",
    "FaultPlan",
    "FaultInjectingBackend",
    "topology_to_dict",
    "topology_from_dict",
    "cost_model_to_dict",
    "cost_model_from_dict",
    "chrome_trace",
    "ascii_gantt",
    "critical_path",
    "peak_memory",
    "PeakMemoryReport",
]
