"""Topology and cost-model (de)serialisation.

The measurement-space *spec* shipped to a multi-tenant server
(:mod:`repro.service.tenancy`) must carry everything that determines a
deterministic evaluation: the op graph (already serialisable via
:mod:`repro.graph.serialization`) plus the device topology and the cost
model, serialised here.  Each dict is the canonical rendering of
:mod:`repro.graph.fingerprint` plus a ``format_version`` — a round-tripped
topology or cost model therefore reproduces the *identical*
``placement_space_fingerprint``, which is what lets a server rebuilt from
a spec accept the handshake of the client that shipped it.
"""

from __future__ import annotations

from typing import Any, Dict

from ..graph.fingerprint import cost_model_dict, topology_dict
from .cost_model import CostModel
from .devices import DeviceSpec, LinkSpec, Topology

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "cost_model_to_dict",
    "cost_model_from_dict",
]

_FORMAT_VERSION = 1


def _link_from_dict(data: Dict[str, Any]) -> LinkSpec:
    return LinkSpec(
        bandwidth_bytes_per_s=float(data["bandwidth_bytes_per_s"]),
        latency_s=float(data["latency_s"]),
    )


def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """Serialise a :class:`Topology` to plain JSON-compatible data."""
    return {"format_version": _FORMAT_VERSION, **topology_dict(topology)}


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Rebuild a topology serialised by :func:`topology_to_dict`.

    The round trip is fingerprint-exact:
    ``topology_fingerprint(topology_from_dict(topology_to_dict(t)))``
    equals ``topology_fingerprint(t)``.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    devices = [
        DeviceSpec(
            name=d["name"],
            kind=d["kind"],
            memory_bytes=int(d["memory_bytes"]),
            effective_gflops=float(d["effective_gflops"]),
            per_op_overhead=float(d["per_op_overhead"]),
        )
        for d in data["devices"]
    ]
    links = {
        (int(pair[0]), int(pair[1])): _link_from_dict(link)
        for pair, link in data.get("links", [])
    }
    return Topology(devices, _link_from_dict(data["default_link"]), links)


def cost_model_to_dict(cost_model: CostModel) -> Dict[str, Any]:
    """Serialise a :class:`CostModel` to plain JSON-compatible data."""
    return {"format_version": _FORMAT_VERSION, **cost_model_dict(cost_model)}


def cost_model_from_dict(data: Dict[str, Any]) -> CostModel:
    """Rebuild a cost model serialised by :func:`cost_model_to_dict`."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported cost-model format version {version!r}")
    return CostModel(
        training_flops_multiplier=float(data["training_flops_multiplier"]),
        param_memory_multiplier=float(data["param_memory_multiplier"]),
        activation_memory_multiplier=float(data["activation_memory_multiplier"]),
        send_overhead=float(data["send_overhead"]),
        recv_overhead=float(data["recv_overhead"]),
        gpu_dispatch=float(data["gpu_dispatch"]),
        cpu_dispatch=float(data["cpu_dispatch"]),
        default_efficiency=float(data["default_efficiency"]),
        gpu_efficiency={str(k): float(v) for k, v in data["gpu_efficiency"].items()},
        cpu_efficiency={str(k): float(v) for k, v in data["cpu_efficiency"].items()},
    )
