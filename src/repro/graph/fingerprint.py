"""Content fingerprints of the measurement space.

A *measurement space* is everything that determines the deterministic half
of an evaluation (:meth:`~repro.sim.environment.PlacementEnvironment.simulate_raw`):
the op graph, the device topology, and the cost model.  Two parties that
agree on the fingerprint agree on every :class:`~repro.sim.environment.RawOutcome`,
so cached raw outcomes can be shared between them — across processes
(:meth:`~repro.sim.backends.MemoBackend.save` /
:meth:`~repro.sim.backends.MemoBackend.load`) and across the network
(the :mod:`repro.service` handshake refuses clients whose fingerprint
differs from the server's).

Fingerprints are SHA-256 hex digests over a canonical JSON rendering, so
they are stable across processes, platforms and Python versions.  The
topology and cost-model arguments are duck-typed (this module must not
import :mod:`repro.sim`, which imports :mod:`repro.graph`).
:func:`topology_dict` and :func:`cost_model_dict` are the one rendering of
each; :mod:`repro.sim.serialization` ships them with a format version.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from .opgraph import OpGraph
from .serialization import graph_to_dict

__all__ = [
    "graph_fingerprint",
    "topology_fingerprint",
    "cost_model_fingerprint",
    "placement_space_fingerprint",
    "topology_dict",
    "cost_model_dict",
]


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def graph_fingerprint(graph: OpGraph) -> str:
    """Digest of the graph's full serialised content (nodes, attrs, edges)."""
    return _digest({"graph": graph_to_dict(graph)})


def topology_dict(topology) -> Dict[str, Any]:
    """The canonical rendering of a :class:`~repro.sim.devices.Topology`."""

    def link_dict(link) -> Dict[str, float]:
        return {
            "bandwidth_bytes_per_s": link.bandwidth_bytes_per_s,
            "latency_s": link.latency_s,
        }

    return {
        "devices": [
            {
                "name": d.name,
                "kind": d.kind,
                "memory_bytes": d.memory_bytes,
                "effective_gflops": d.effective_gflops,
                "per_op_overhead": d.per_op_overhead,
            }
            for d in topology.devices
        ],
        "default_link": link_dict(topology.default_link),
        "links": sorted(
            [list(pair), link_dict(link)] for pair, link in topology._links.items()
        ),
    }


def topology_fingerprint(topology) -> str:
    """Digest of a :class:`~repro.sim.devices.Topology` (devices + links)."""
    return _digest({"topology": topology_dict(topology)})


def cost_model_dict(cost_model) -> Dict[str, Any]:
    """The canonical rendering of a :class:`~repro.sim.cost_model.CostModel`."""
    return {
        "training_flops_multiplier": cost_model.training_flops_multiplier,
        "param_memory_multiplier": cost_model.param_memory_multiplier,
        "activation_memory_multiplier": cost_model.activation_memory_multiplier,
        "send_overhead": cost_model.send_overhead,
        "recv_overhead": cost_model.recv_overhead,
        "gpu_dispatch": cost_model.gpu_dispatch,
        "cpu_dispatch": cost_model.cpu_dispatch,
        "default_efficiency": cost_model.default_efficiency,
        "gpu_efficiency": dict(cost_model.gpu_efficiency),
        "cpu_efficiency": dict(cost_model.cpu_efficiency),
    }


def cost_model_fingerprint(cost_model) -> str:
    """Digest of a :class:`~repro.sim.cost_model.CostModel`'s parameters."""
    return _digest({"cost_model": cost_model_dict(cost_model)})


def placement_space_fingerprint(
    graph: OpGraph, topology, cost_model: Optional[Any] = None
) -> str:
    """Digest of the whole measurement space: graph + topology + cost model.

    This is the fingerprint exchanged by the measurement-service handshake
    and stored in persisted memo caches: it pins every input of
    ``simulate_raw``, so a match guarantees identical raw outcomes.
    """
    payload: Dict[str, Any] = {
        "graph": graph_to_dict(graph),
        "topology": topology_dict(topology),
    }
    if cost_model is not None:
        payload["cost_model"] = cost_model_dict(cost_model)
    return _digest(payload)
