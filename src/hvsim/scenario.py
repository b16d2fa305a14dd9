"""Scenario: a circuit plus integration settings and requested probes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple, Union

from .circuit import Circuit, CircuitError, is_ground
from .engine import IntegrationSettings

#: probe request: a node label, or a (pos, neg) node pair for a differential trace
ProbeSpec = Union[str, Tuple[str, str]]


def probe_label(probe: ProbeSpec) -> str:
    if isinstance(probe, str):
        return f"V_{probe}"
    return f"V_{probe[0]}_{probe[1]}"


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one transient experiment."""

    circuit: Circuit
    settings: IntegrationSettings
    probes: Tuple[ProbeSpec, ...] = ()

    def __post_init__(self) -> None:
        known = set(self.circuit.node_labels())
        for probe in self.probes:
            nodes = (probe,) if isinstance(probe, str) else probe
            for node in nodes:
                if not is_ground(node) and node not in known:
                    raise CircuitError(f"probe references unknown node {node!r}")

    def with_settings(self, **changes) -> "Scenario":
        return replace(self, settings=replace(self.settings, **changes))
