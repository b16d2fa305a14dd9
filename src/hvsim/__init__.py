"""Transient circuit simulator for a series-MOSFET high-voltage half-bridge,
its miniature DC-HVDC converter supply, and actuator-equivalent loads.

The package is organized around a small modified-nodal-analysis engine
(:mod:`hvsim.engine`) fed by an immutable circuit and scenario model
(:mod:`hvsim.circuit`), with behavioral device models (:mod:`hvsim.devices`),
a netlist language (:mod:`hvsim.netlist`), named presets and the bridge
builders behind them (:mod:`hvsim.presets`), measurement/sweep utilities
(:mod:`hvsim.analysis`), an electromechanical displacement model and its
fig8 study (:mod:`hvsim.electromech`), and a CLI (:mod:`hvsim.cli`).
Import each name from the module that defines it: the package re-exports
nothing, so that ``import hvsim.cli`` loads only what the CLI needs.
"""

__version__ = "0.1.0"
