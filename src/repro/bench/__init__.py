"""Experiment harness regenerating the paper's tables and figures (S8)."""

import importlib
from typing import Any

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    "ExperimentSpec": ".runner",
    "ExperimentOutcome": ".runner",
    "ExperimentRunner": ".runner",
    "cache_dir": ".runner",
    "scale_profile": ".runner",
    "MODELS": ".experiments",
    "AGENT_KINDS": ".experiments",
    "build_experiment_graph": ".experiments",
    "make_environment": ".experiments",
    "make_agent": ".experiments",
    "default_spec": ".experiments",
    "sample_budget": ".experiments",
    "format_time": ".tables",
    "render_table": ".tables",
    "render_curves": ".tables",
    "downsample_curve": ".tables",
}

__all__ = [
    "ExperimentSpec",
    "ExperimentOutcome",
    "ExperimentRunner",
    "cache_dir",
    "scale_profile",
    "MODELS",
    "AGENT_KINDS",
    "build_experiment_graph",
    "make_environment",
    "make_agent",
    "default_spec",
    "sample_budget",
    "format_time",
    "render_table",
    "render_curves",
    "downsample_curve",
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
