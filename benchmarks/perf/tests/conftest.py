"""Harness tests for the repo benchmark.

    PYTHONPATH=src python -m pytest benchmarks/perf/tests            # unit tests, seconds
    PYTHONPATH=src python -m pytest benchmarks/perf/tests --smoke    # + every workload, < 60 s
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF.parents[1] / "src"))
sys.path.insert(0, str(PERF))


def pytest_addoption(parser):
    parser.addoption("--smoke", action="store_true",
                     help="also run every workload end to end on tiny budgets")


def pytest_configure(config):
    config.addinivalue_line("markers", "smoke: runs a workload end to end (needs --smoke)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--smoke"):
        return
    skip = pytest.mark.skip(reason="end-to-end workload run; pass --smoke")
    for item in items:
        if "smoke" in item.keywords:
            item.add_marker(skip)
